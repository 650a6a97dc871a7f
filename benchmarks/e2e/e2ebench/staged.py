"""The traced run: staged calls into each layer, wrapped in spans.

Nothing under ``src/`` knows about this benchmark, so layers are timed
from outside: :func:`staged_execute` makes the same public calls
``Engine._execute_request`` makes and wraps each one in a benchmark-owned
span.  Only inside ``execute_plan`` is the program's own tracer switched
on, to read the ``plan.bag`` / ``sweep.*`` spans it already emits.  Spans
stay in memory (one :class:`repro.obs.Tracer`) until the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.db.annotated import AnnotatedRelation
from repro.db.stats import EvalStats
from repro.engine.executor import EvalResult
from repro.engine.fingerprint import fingerprint
from repro.engine.plan import compile_plan, execute_plan
from repro.heuristics.portfolio import decompose
from repro.obs import Tracer, tracing

ROOT = "bench.op"


class Recorder:
    """Benchmark-owned spans: name, start, end, parent, one id per op."""

    def __init__(self) -> None:
        self.tracer = Tracer(max_spans=5_000_000)
        self._local = threading.local()

    @contextmanager
    def op(self, client: int, seq: int):
        """The root span of one operation; *seq* numbers a client's ops."""
        self._local.op = f"{client}:{seq}"
        self._local.seq = seq
        self._local.stack = []
        with self.span(ROOT):
            yield

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.stack
        parent = stack[-1] if stack else None
        stack.append(name)
        try:
            with self.tracer.span(
                name, op=self._local.op, seq=self._local.seq,
                parent=parent, **attrs
            ) as live:
                yield live
        finally:
            stack.pop()


def staged_execute(rec, engine, query, db, semiring=None) -> EvalResult:
    """``Engine.execute`` taken apart (sequential backend): the calls of
    ``_decomposition_for`` and ``_execute_request``, one span each."""
    tag = semiring.tag if semiring is not None else "set"
    started = time.monotonic()
    stats = EvalStats()
    with rec.span("engine.fingerprint"):
        fingerprint(query)
    with rec.span("engine.cache.lookup"):
        hit = engine.cache.lookup(query, tag)
    if hit is not None:
        hd, method, width = hit.decomposition, hit.method, hit.width
    else:
        with rec.span("heuristics.decompose"):
            found = decompose(query, mode=engine.mode)
        with rec.span("engine.cache.store"):
            engine.cache.store(
                query, found.decomposition, found.width, found.method,
                semiring_tag=tag,
            )
        hd, method, width = found.decomposition, found.method, found.width
    with rec.span("engine.plan.compile"):
        plan = compile_plan(
            query, db, hd, provenance=method, cache_hit=hit is not None,
            backend="sequential", workers=1,
            shard_threshold=engine.shard_threshold,
            layout="row" if semiring is not None else engine.layout,
        )
    with rec.span("engine.plan.execute"), tracing(rec.tracer):
        answer = execute_plan(plan, db, stats=stats, semiring=semiring)
    if semiring is not None and not isinstance(answer, AnnotatedRelation):
        answer = AnnotatedRelation.lift(answer, semiring)
    return EvalResult(
        query, answer, stats, hit is not None, width, method,
        time.monotonic() - started, semiring=semiring,
    )


def analyse(tracer: Tracer, count_ops: int) -> dict:
    """Per-name totals of the recorded spans.

    Returns ``{"self": name → seconds, "total": name → seconds,
    "ops": root span count, "bag_rows": Σ rows of plan.bag spans in each
    client's first *count_ops* ops}``.  A span's self time is its duration
    minus the part its child spans cover; nesting is recovered per thread
    from the intervals, so spans the program emitted (which carry no op
    id) inherit the op of the benchmark span around them.
    """
    by_thread = defaultdict(list)
    for span in tracer.spans():
        by_thread[span.tid].append(span)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    ops = bag_rows = 0
    for spans in by_thread.values():
        if not any(s.name == ROOT for s in spans):
            continue  # a program thread (the server's), not a caller
        spans.sort(key=lambda s: (s.start, -s.end))
        stack: list = []  # [span, seconds covered by children, op seq]
        for span in spans:
            while stack and stack[-1][0].end <= span.start:
                done, covered, _ = stack.pop()
                self_s[done.name] += done.duration - covered
            seq = span.attrs.get("seq", stack[-1][2] if stack else None)
            if stack:
                stack[-1][1] += span.duration
            stack.append([span, 0.0, seq])
            total_s[span.name] += span.duration
            if span.name == ROOT:
                ops += 1
            elif span.name == "plan.bag" and seq is not None and seq < count_ops:
                bag_rows += span.attrs.get("rows", 0)
        for done, covered, _ in stack:
            self_s[done.name] += done.duration - covered
    return {
        "self": dict(self_s),
        "total": dict(total_s),
        "ops": ops,
        "bag_rows": bag_rows,
    }
