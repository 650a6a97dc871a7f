"""Always-on flight recorder: a bounded black box for the engine.

Traces and profiles are things you *turn on* after something went
wrong; a flight recorder is already running when it does.  This module
keeps a small, bounded, always-on ring of recent activity —

* **events**: one entry per engine request (query, latency, rows, plan
  digest, per-request stat deltas), plus slow-query captures and
  errors, in a ``deque(maxlen=capacity)``;
* **spans**: a ring-mode :class:`~repro.obs.tracer.Tracer`
  (evict-oldest) the engine installs around requests when nothing else
  is tracing, so the spans *leading up to* a failure are always
  available;

— and knows how to ``dump()`` itself to JSON when an
``EvaluationError``/``BudgetExceeded`` strikes.  Dump
*files* are only written when a destination is configured
(``Engine(flight_dump=...)`` or ``$REPRO_FLIGHT_DUMP``); the in-memory
ring always records, so ``repro stats --flight`` can inspect a live
process and tests exercising failure paths do not litter the
filesystem.

The overhead budget is the tracer's: recording an event is a dict and a
deque append under a lock, per *request* (not per operator), and the
span ring reuses the existing instrumentation.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .export import _jsonable
from .tracer import Span, Tracer

#: Environment variable naming the auto-dump destination (a file path,
#: or a directory to drop ``flight-<pid>-<n>.json`` files into).
FLIGHT_ENV_VAR = "REPRO_FLIGHT_DUMP"

#: Default event-ring capacity (requests + captures).
DEFAULT_CAPACITY = 256

#: Default span-ring capacity (most recent spans kept).
DEFAULT_SPAN_CAPACITY = 4096


@dataclass(frozen=True)
class FlightEvent:
    """One ring entry.  ``seq`` is a global monotone sequence number
    (total order across concurrent writers); ``wall`` is epoch seconds,
    ``perf`` the shared ``perf_counter`` timeline the spans live on."""

    seq: int
    kind: str
    wall: float
    perf: float
    payload: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "wall": self.wall,
            "perf": self.perf,
            **_jsonable_payload(self.payload),
        }


def _jsonable_payload(payload: dict) -> dict:
    """Payload coerced for JSON: scalars pass, dicts/lists recurse,
    everything else goes through repr."""
    out = {}
    for key, value in payload.items():
        out[str(key)] = _jsonable_value(value)
    return out


def _jsonable_value(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return _jsonable_payload(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable_value(v) for v in value]
    return repr(value)


def span_forest(spans: Sequence[Span]) -> list[dict]:
    """Nest flat spans into trees by interval containment per
    (pid, tid) track — the request's *span tree* the dump carries.

    Spans are sorted by (start, -end); a stack per track assigns each
    span to the innermost still-open enclosing span.
    """
    roots: list[dict] = []
    stacks: dict[tuple[int, str], list[tuple[Span, dict]]] = {}
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        node = {
            "name": span.name,
            "start": span.start,
            "duration_ms": round(span.duration * 1e3, 6),
            "pid": span.pid,
            "tid": span.tid,
            "attrs": _jsonable(span.attrs),
            "children": [],
        }
        stack = stacks.setdefault((span.pid, span.tid), [])
        while stack and stack[-1][0].end < span.end:
            stack.pop()
        if stack and stack[-1][0].start <= span.start:
            stack[-1][1]["children"].append(node)
        else:
            roots.append(node)
        stack.append((span, node))
    return roots


def _render_forest(nodes: list[dict], indent: int = 0) -> list[str]:
    lines = []
    for node in nodes:
        lines.append(
            "  " * indent
            + f"[{node['duration_ms']:9.3f}ms] {node['name']}"
            + (f" ({node['tid']})" if indent == 0 else "")
        )
        lines.extend(_render_forest(node["children"], indent + 1))
    return lines


class FlightRecorder:
    """The bounded always-on ring of recent engine activity.

    Thread-safe; concurrent writers get a total order via ``seq``.  One
    process-global instance (:func:`get_flight_recorder`) backs every
    engine by default — a black box is most useful when there is
    exactly one of it.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
    ):
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._events: deque[FlightEvent] = deque(maxlen=self.capacity)
        self._seq = itertools.count()
        self.recorded = 0  # total record() calls, beyond the ring bound
        self.dumps = 0
        #: The always-on span ring engines fall back to when no other
        #: tracer is active (evict-oldest keeps the spans *before* a
        #: failure).
        self.tracer = Tracer(max_spans=span_capacity, ring=True)

    def record(self, kind: str, **payload) -> FlightEvent:
        """Append one event; cheap enough for the per-request hot path."""
        event = FlightEvent(
            seq=next(self._seq),
            kind=kind,
            wall=time.time(),
            perf=time.perf_counter(),
            payload=payload,
        )
        with self._lock:
            self._events.append(event)
            self.recorded += 1
        return event

    def events(self, kind: str | None = None) -> list[FlightEvent]:
        """Snapshot of the ring, oldest first (optionally one kind)."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.recorded = 0
            self.dumps = 0
        self.tracer.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    # -- snapshots and dumps ----------------------------------------------
    def snapshot(self, reason: str | None = None) -> dict:
        """The dump document: ring events plus the recent-span forest."""
        return {
            "flight": 1,
            "reason": reason,
            "pid": os.getpid(),
            "captured_at": time.time(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "events": [e.as_dict() for e in self.events()],
            "recent_spans": span_forest(self.tracer.spans()),
            "spans_evicted": self.tracer.evicted,
        }

    def dump(self, reason: str, path: str | None = None) -> str | None:
        """Write the snapshot to JSON if a destination is configured.

        *path* (or ``$REPRO_FLIGHT_DUMP``) may be a file path — used
        as-is, last dump wins — or a directory, in which case each dump
        gets a fresh ``flight-<pid>-<n>.json``.  Returns the written
        path, or ``None`` when no destination is configured (the ring
        still holds everything for ``repro stats --flight``).
        """
        destination = path or os.environ.get(FLIGHT_ENV_VAR, "").strip() or None
        if not destination:
            return None
        if os.path.isdir(destination):
            destination = os.path.join(
                destination, f"flight-{os.getpid()}-{self.dumps}.json"
            )
        doc = self.snapshot(reason)
        with open(destination, "w") as fh:
            json.dump(doc, fh, indent=1)
        self.dumps += 1
        return destination


def render_flight(snapshot: dict) -> str:
    """Human rendering of a flight snapshot (``repro stats --flight``)."""
    lines = [
        f"flight recorder: pid {snapshot.get('pid')}, "
        f"{len(snapshot.get('events', []))} event(s) in ring "
        f"({snapshot.get('recorded', 0)} recorded)"
        + (f", reason: {snapshot['reason']}" if snapshot.get("reason") else "")
    ]
    for event in snapshot.get("events", []):
        detail = {
            k: v
            for k, v in event.items()
            if k not in ("seq", "kind", "wall", "perf", "spans")
        }
        rendered = " ".join(f"{k}={v}" for k, v in detail.items())
        lines.append(f"  #{event.get('seq')} {event.get('kind')}: {rendered}")
    recent = snapshot.get("recent_spans", [])
    if recent:
        lines.append(f"recent spans ({len(recent)} root(s)):")
        lines.extend("  " + line for line in _render_forest(recent))
    return "\n".join(lines)


# -- the process-global recorder --------------------------------------------

_flight = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder engines record into."""
    return _flight


def set_flight_recorder(recorder: FlightRecorder | None) -> FlightRecorder:
    """Replace the global recorder (tests); ``None`` installs a fresh
    one.  Returns the new recorder."""
    global _flight
    _flight = recorder if recorder is not None else FlightRecorder()
    return _flight
