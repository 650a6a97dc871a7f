"""Exporters: Chrome trace-event files and JSON metrics snapshots.

``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) both load
the trace-event JSON array format: complete events (``"ph": "X"``) with
microsecond ``ts``/``dur``, integer ``pid``/``tid``, and ``args`` for
the structured attributes; metadata events (``"ph": "M"``) name the
process/thread tracks.  :func:`chrome_trace_events` lays the tracer's
spans out with one track per (pid, thread) pair — the serve executor's
worker threads appear as their own named rows.

:func:`validate_chrome_trace` is the schema check the CI trace-smoke job
runs on the artifact before uploading it — cheap structural validation,
not a rendering test.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from .metrics import MetricsRegistry, get_registry
from .tracer import Span, Tracer


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """The tracer's spans as a Chrome trace-event list.

    Timestamps are rebased to the tracer's creation (µs), so traces
    start near zero.  Each distinct ``(pid, tid-name)`` pair becomes an
    integer ``tid`` with a ``thread_name`` metadata event; each pid gets
    a ``process_name`` event.
    """
    spans = tracer.spans()
    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}
    pids_seen: set[int] = set()
    for span in spans:
        key = (span.pid, span.tid)
        if key not in tids:
            tids[key] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": span.pid,
                    "tid": tids[key],
                    "args": {"name": span.tid},
                }
            )
        if span.pid not in pids_seen:
            pids_seen.add(span.pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": span.pid,
                    "tid": 0,
                    "args": {"name": "repro"},
                }
            )
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "cat": span.name.split(":", 1)[0].split(".", 1)[0],
                "ts": (span.start - tracer.created) * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": tids[(span.pid, span.tid)],
                "args": _jsonable(span.attrs),
            }
        )
    return events


def _jsonable(attrs: Mapping) -> dict:
    """Attribute values coerced to JSON-safe scalars (repr fallback)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = repr(value)
    return out


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the trace-event JSON array to *path*; returns the event
    count (CLI feedback)."""
    events = chrome_trace_events(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(events, handle)
    return len(events)


def validate_chrome_trace(events: object) -> list[str]:
    """Structural schema check of a trace-event array.

    Returns a list of problems (empty = valid).  Checks the fields the
    Perfetto/catapult loaders actually require: a JSON array; every
    event an object with string ``name``/``ph`` and integer-like
    ``pid``/``tid``; complete events (``X``) additionally with numeric
    non-negative ``ts`` and ``dur``.
    """
    problems: list[str] = []
    if not isinstance(events, list):
        return [f"trace must be a JSON array, got {type(events).__name__}"]
    if not events:
        problems.append("trace contains no events")
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing 'ph'")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: complete event needs numeric >=0 "
                        f"{field!r}, got {value!r}"
                    )
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


def metrics_snapshot(registry: MetricsRegistry | None = None) -> dict:
    """JSON-ready snapshot of *registry* (default: the global one)."""
    return (registry if registry is not None else get_registry()).snapshot()


def write_metrics_snapshot(
    path: str, registry: MetricsRegistry | None = None
) -> dict:
    """Write the metrics snapshot to *path* and return it."""
    snapshot = metrics_snapshot(registry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
    return snapshot


def render_metrics(snapshot: Mapping) -> str:
    """Human-readable rendering of a metrics snapshot (``repro stats``)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]:g}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name} = {gauges[name]:g}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            if not h.get("count"):
                lines.append(f"  {name}: empty")
                continue
            lines.append(
                f"  {name}: count={h['count']} mean={h['mean']:.6g} "
                f"p50={h.get('p50', 0):.6g} p95={h.get('p95', 0):.6g} "
                f"p99={h.get('p99', 0):.6g} max={h['max']:.6g}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def render_trace_summary(events: Sequence[Mapping]) -> str:
    """Per-name totals of a trace-event array, largest first (the quick
    profile ``repro stats trace.json`` prints after validating)."""
    totals: dict[str, tuple[float, int]] = {}
    threads: set[tuple] = set()
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event.get("name", "?")
        seconds, count = totals.get(name, (0.0, 0))
        totals[name] = (seconds + event.get("dur", 0) / 1e6, count + 1)
        threads.add((event.get("pid"), event.get("tid")))
    lines = [
        f"{len(events)} events, "
        f"{sum(c for _, c in totals.values())} spans across "
        f"{len(threads)} thread track(s)"
    ]
    for name, (seconds, count) in sorted(
        totals.items(), key=lambda item: -item[1][0]
    )[:20]:
        lines.append(f"  {seconds * 1e3:10.3f}ms  {count:6d}x  {name}")
    return "\n".join(lines)


def spans_by_attr(
    spans: Sequence[Span], name: str, attr: str
) -> dict[object, list[Span]]:
    """Group *name*-spans by one attribute value (EXPLAIN ANALYZE's
    per-plan-node aggregation helper)."""
    grouped: dict[object, list[Span]] = {}
    for span in spans:
        if span.name == name and attr in span.attrs:
            grouped.setdefault(span.attrs[attr], []).append(span)
    return grouped
