"""Nested-span tracing for the whole evaluation pipeline.

A :class:`Tracer` records *spans* — named intervals of wall-clock time
with structured attributes — from every layer of the stack: portfolio
decomposition attempts, plan-cache lookups, per-bag materialisation,
Yannakakis sweep operators, and incremental view maintenance batches.

Design constraints, in order:

1. **Zero overhead when off.**  The default tracer is the module-level
   :data:`NULL_TRACER`, whose ``enabled`` flag is ``False`` and whose
   ``span()`` returns one shared no-op context manager — no allocation,
   no clock read, no lock.  Hot loops additionally guard on
   ``tracer.enabled`` before building attribute dicts.
2. **One process-global current tracer.**  Spans are recorded from deep
   layers (sweep operators, the decomposition portfolio) that would need
   a ``tracer=`` parameter threaded through a dozen signatures.  Instead
   :func:`current_tracer` reads a process-global slot that
   :func:`set_tracer` / the :func:`tracing` context manager install a
   live :class:`Tracer` into.  The engine installs its tracer around
   each request; concurrent requests under one engine share the tracer
   (it is thread-safe, and spans carry their thread id).

The span stream is exported by :mod:`repro.obs.export` as a Chrome
trace-event file (``chrome://tracing`` / Perfetto loadable) or consumed
in-process by ``Engine.explain(analyze=True)``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .metrics import get_registry

#: Environment variable switching tracing on for CLI entry points (its
#: value, when not empty/"0", is the default trace output path — "1"
#: means "trace, default path").
TRACE_ENV_VAR = "REPRO_TRACE"


@dataclass
class Span:
    """One finished span: a named interval with structured attributes.

    ``start`` / ``end`` are ``time.perf_counter()`` seconds; ``pid`` /
    ``tid`` locate the recording process and thread so exporters can lay
    spans out in per-thread tracks.
    """

    name: str
    start: float
    end: float
    pid: int
    tid: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __str__(self) -> str:
        extra = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
            if self.attrs
            else ""
        )
        return f"[{self.duration * 1e3:8.3f}ms] {self.name}{extra}"


class _NullSpan:
    """The shared do-nothing span: context manager and attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Discard attributes (live spans record them)."""

    def add(self, key: str, value: float) -> None:
        """Discard accumulation (live spans sum into ``attrs``)."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span()`` hands back one preallocated context manager, so the
    instrumented hot paths cost a method call and an empty ``with``
    block — measured well under the 5% budget the benchmark gate
    enforces (see ``benchmarks/bench_obs.py``).
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> list[Span]:
        return []

    def active_span(self, ident: int) -> None:
        """No span is ever active on a disabled tracer."""
        return None


NULL_TRACER = NullTracer()


class _LiveSpan:
    """An open span: context manager recording into its tracer on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (row counts, hits)."""
        self.attrs.update(attrs)

    def add(self, key: str, value: float) -> None:
        """Accumulate a numeric attribute (per-iteration volumes)."""
        self.attrs[key] = self.attrs.get(key, 0) + value

    def __enter__(self) -> "_LiveSpan":
        # Push onto this thread's active-span stack *before* taking the
        # start timestamp, so the bookkeeping cost stays outside the
        # measured interval.  Each thread only ever mutates its own
        # stack; the sampling profiler reads other threads' stacks under
        # the GIL (list append/pop are atomic).
        active = self._tracer._active
        ident = threading.get_ident()
        stack = active.get(ident)
        if stack is None:
            stack = active[ident] = []
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record(
            Span(
                self.name,
                self._start,
                end,
                self._tracer.pid,
                threading.current_thread().name,
                self.attrs,
            )
        )
        stack = self._tracer._active.get(threading.get_ident())
        if stack:
            stack.pop()
        return False


class Tracer:
    """A thread-safe span recorder.

    Spans finish in arbitrary order across threads; each is appended to
    one flat list under a lock (span close is rare next to the work a
    span encloses).  ``max_spans`` bounds memory on pathological runs —
    beyond it new spans are counted in :attr:`dropped` instead of
    stored (and surfaced through the ``tracer.spans_dropped`` metrics
    counter, so a truncated trace cannot silently lie), so a forgotten
    long-lived tracer degrades gracefully.

    ``ring=True`` flips the bound's policy from *drop newest* to *evict
    oldest*: the tracer becomes a bounded ring that always holds the
    most recent ``max_spans`` spans, counting evictions in
    :attr:`evicted`.  That is the flight-recorder configuration — a
    black box wants the spans leading up to a failure, not the start of
    the run.

    The tracer also maintains a per-thread stack of *currently open*
    span names (:meth:`active_span`), which the sampling profiler reads
    to tag wall-clock samples with the innermost active span.
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000, ring: bool = False):
        self.pid = os.getpid()
        self.created = time.perf_counter()
        self.max_spans = max_spans
        self.ring = ring
        self.dropped = 0
        self.evicted = 0
        self._lock = threading.Lock()
        self._spans: "list[Span] | deque[Span]" = (
            deque(maxlen=max_spans) if ring else []
        )
        # thread ident -> stack of open span names (each thread mutates
        # only its own stack; cross-thread reads are GIL-consistent).
        self._active: dict[int, list[str]] = {}

    def span(self, name: str, **attrs) -> _LiveSpan:
        """Open a span; use as ``with tracer.span("semijoin", node=...):``."""
        return _LiveSpan(self, name, attrs)

    def active_span(self, ident: int) -> str | None:
        """The innermost span currently open on thread *ident* (or None)."""
        stack = self._active.get(ident)
        return stack[-1] if stack else None

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                if self.ring:
                    self.evicted += 1
                    self._spans.append(span)  # deque evicts the oldest
                    return
                self.dropped += 1
                get_registry().counter("tracer.spans_dropped").inc()
                return
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """A snapshot of the finished spans (safe to iterate/mutate)."""
        with self._lock:
            return list(self._spans)

    def view_since(self, start: float) -> "Tracer":
        """A detached tracer holding only the calling thread's spans that
        started at/after *start* (perf_counter seconds) — how the engine
        renders one request's EXPLAIN ANALYZE / span tree out of the
        shared flight ring, which other threads' requests record into
        too, without re-executing anything."""
        tid = threading.current_thread().name
        view = Tracer(max_spans=self.max_spans)
        view.pid = self.pid
        with self._lock:
            view._spans = [
                s for s in self._spans if s.start >= start and s.tid == tid
            ]
        return view

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0
            self.evicted = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- convenience views -------------------------------------------------
    def find(self, name: str) -> list[Span]:
        """Finished spans with exactly this name."""
        return [s for s in self.spans() if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of all spans with this name."""
        return sum(s.duration for s in self.find(name))


# -- the process-global current tracer --------------------------------------

_current: NullTracer | Tracer = NULL_TRACER


def current_tracer() -> "NullTracer | Tracer":
    """The tracer instrumentation records into (default: the no-op)."""
    return _current


def set_tracer(tracer: "Tracer | NullTracer | None") -> None:
    """Install *tracer* as the process-global current tracer
    (``None`` restores the no-op)."""
    global _current
    _current = tracer if tracer is not None else NULL_TRACER


class tracing:
    """Context manager installing a tracer for a dynamic extent::

        with tracing(Tracer()) as tracer:
            engine.execute(query, db)
        write_chrome_trace(tracer, "trace.json")

    Re-entrant: installing the already-current tracer is a no-op, so an
    engine wrapping each request does not disturb an outer CLI-installed
    tracer.  Restores the previous tracer on exit.
    """

    def __init__(self, tracer: "Tracer | NullTracer"):
        self.tracer = tracer
        self._previous: "Tracer | NullTracer | None" = None

    def __enter__(self) -> "Tracer | NullTracer":
        self._previous = current_tracer()
        if self._previous is not self.tracer:
            set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        if self._previous is not self.tracer:
            set_tracer(self._previous)


def trace_path_from_env() -> str | None:
    """The trace output path requested by ``$REPRO_TRACE``.

    Unset, empty, or ``"0"`` means tracing is off (``None``); ``"1"`` or
    a bare truthy switch means "on, default path ``trace.json``"; any
    other value is the output path itself.
    """
    raw = os.environ.get(TRACE_ENV_VAR, "").strip()
    if not raw or raw == "0":
        return None
    if raw.lower() in ("1", "true", "yes", "on"):
        return "trace.json"
    return raw


def iter_leaf_totals(spans: list[Span]) -> Iterator[tuple[str, float, int]]:
    """``(name, total_seconds, count)`` per span name, largest first —
    the quick textual profile ``repro stats`` prints for a trace."""
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        seconds, count = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + span.duration, count + 1)
    for name, (seconds, count) in sorted(
        totals.items(), key=lambda item: -item[1][0]
    ):
        yield name, seconds, count
