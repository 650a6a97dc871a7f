"""The ``Engine`` facade: decompose once, execute many.

One object ties the repo's pieces into a pipeline callers no longer
hand-wire per query::

    fingerprint → plan cache → (portfolio decompose on miss) →
    physical plan (χ labels, join orders, root, layout; compiled once,
    replayed while its estimator reads hold) → Yannakakis passes

* :meth:`Engine.execute` answers one query against one database,
  returning an :class:`EvalResult` with the answer relation, per-request
  :class:`~repro.db.stats.EvalStats`, and cache provenance.
* :meth:`Engine.execute_many` runs a batch one request after another
  in the caller's thread, isolating failures per request and
  aggregating stats with ``EvalStats.merge``.
* :meth:`Engine.explain` renders the chosen physical plan without
  executing it.

Each request runs its plan's program — the bags, then the Yannakakis
passes over them — sequentially, in the thread that submitted it.  The
engine starts no threads; only the serve tier calls one
``Engine`` from several threads at once, which is what the plan cache's
lock and the single-flight planning gates are for.

**Semiring evaluation.**  ``execute(..., semiring=...)`` switches a
request to annotated semantics (:mod:`repro.db.semiring`): the answer
relation carries one value per row and :attr:`EvalResult.annotations`
exposes the map (read-only).  A semiring whose values can ride a weight
column (:func:`repro.db.columnar.rides_buffers` — counting, the integer
ring) is planned under the engine's layout policy like a set request;
the others compile row plans (:func:`~repro.engine.plan.compile_plan`
decides both).  :meth:`Engine.count`, :meth:`Engine.top_k`,
:meth:`Engine.provenance` and :meth:`Engine.probability` are the four
workload-family front doors built on it.  Decompositions are shared
across semirings: the cache keys on the fingerprint alone, so the first
``count`` of an already-planned shape is a cache hit, and the first
requests of one new shape under two semirings run one search.  Only
the compiled plan depends on the semiring, so the plan memo keys on its
tag.

Per-request time *budgets* (wall-clock seconds) bound both the
decomposition search — via the portfolio's own budget handling, which
degrades to a certified heuristic plan in ``"auto"`` mode — and plan
execution, where the deadline is checked between operators and raises
:class:`repro._errors.BudgetExceeded`.  ``execute`` propagates the
exception; ``execute_many`` records it on the failed request's result
and keeps going.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from .._errors import BudgetExceeded, EvaluationError, ReproError
from ..core.query import ConjunctiveQuery
from ..db.annotated import AnnotatedRelation
from ..db.columnar import LAYOUTS, default_layout
from ..db.database import Database
from ..db.relation import Relation, Row
from ..db.semiring import FactId, Semiring, resolve_semiring
from ..db.stats import EvalStats, read
from ..heuristics.portfolio import Mode, decompose
from ..obs import Tracer, current_tracer, get_registry, tracing
from ..obs.flight import FlightRecorder, get_flight_recorder, span_forest
from .cache import CacheHit, PlanCache
from .fingerprint import fingerprint
from .plan import QueryPlan, check_backend, compile_plan, execute_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (incremental imports engine)
    from ..incremental.live import LiveEngine


@dataclass
class EvalResult:
    """Outcome of one engine request."""

    query: ConjunctiveQuery
    answer: Relation | None
    stats: EvalStats
    cache_hit: bool
    width: int
    method: str
    elapsed: float
    error: str | None = None
    semiring: Semiring | None = None

    @property
    def boolean(self) -> bool:
        """The Boolean reading of the answer (non-empty = true)."""
        return bool(self.answer)

    @property
    def annotations(self) -> Mapping[Row, object] | None:
        """Row → semiring value for an annotated request; ``None`` under
        set semantics.  Read-only: the answer of an identity projection
        shares the map the database memoises per relation version."""
        annotations = getattr(self.answer, "annotations", None)
        return None if annotations is None else MappingProxyType(annotations)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    """Outcome of :meth:`Engine.execute_many`, in request order."""

    results: list[EvalResult]
    stats: EvalStats
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0
    failures: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def throughput(self) -> float:
        """Completed requests per second of batch wall-clock."""
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> dict[str, float | int]:
        return {
            "requests": len(self.results),
            "failures": self.failures,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "elapsed": round(self.elapsed, 6),
            "throughput_qps": round(self.throughput, 2),
            **self.stats.as_row(),
        }


def cheapest(
    annotations: Mapping[Row, tuple], k: int
) -> list[tuple[Row, float, tuple[FactId, ...]]]:
    """The *k* cheapest rows of a min-cost answer as ``(row, cost,
    witness)`` triples, cost-ascending, equal costs in row-rendering
    order — the one cut :meth:`Engine.top_k` and the serve tier's
    ``top_k`` mode share, so the wire and the API break ties alike."""
    best = heapq.nsmallest(
        k, annotations.items(), key=lambda item: (item[1][0], repr(item[0]))
    )
    return [(row, cost, witness) for row, (cost, witness) in best]


def _empty_answer_rows(
    query: ConjunctiveQuery,
) -> tuple[tuple[str, ...], frozenset[Row]]:
    """The head and rows an atom-less query answers: the empty
    conjunction holds once, so a head without variables gets the 0-ary
    unit row and one with variables (bound by nothing) gets none."""
    head = query.head_names
    return head, frozenset({()} if not head else ())


class Engine:
    """A decompose-once, execute-many conjunctive-query engine.

    The hypertree decomposition depends only on the query's shape and is
    cached per fingerprint; the physical plan over it (join orders,
    grown χ, root, layout) depends on the semiring and the cardinality
    estimates as well.  One plan per (query, decomposition, method,
    layout policy, semiring) is memoised on the plan-cache entry —
    bounded by ``cache_size``, dropped with it — and replayed on any
    database that returns every estimator read it logged with the same
    value; otherwise a fresh compile replaces it.

    Parameters
    ----------
    cache_size:
        Maximum number of cached plans (0 disables the cache — every
        request decomposes and compiles from scratch, the baseline
        configuration the E22 experiment measures against).
    mode:
        Planner strategy forwarded to the heuristics portfolio
        (``"exact"``, ``"heuristic"``, or ``"auto"``).
    budget:
        Default per-request wall-clock budget in seconds (``None`` =
        unbounded); individual calls may override it.
    backend:
        Selects nothing: only ``"sequential"`` is accepted, and the
        keyword remains only for the end-to-end benchmark driver under
        ``benchmarks/e2e``; any other value raises ``ValueError`` (the
        parallel backends were removed).
    layout:
        Storage layout for materialised bags: ``"row"`` |
        ``"columnar"`` | ``"auto"`` (resolved once per plan, to the
        layout its operators are predicted to run in fewer
        milliseconds — each priced from the plan's estimates by the
        fitted per-operator costs of
        :data:`~repro.db.columnar.OPERATOR_COSTS`; ``explain`` prints
        both predictions).  Columnar bags are joined in their atoms'
        column buffers and run the vectorised semijoin/join kernels.
        Defaults to ``$REPRO_LAYOUT`` when set, else ``"auto"``.
        A semiring request follows it when the semiring's values can
        ride a weight column — ``auto`` then by its largest pipeline
        input against :data:`~repro.db.columnar.WEIGHTED_MIN_ROWS`, not
        by predicted time — and compiles a row plan otherwise.
    slow_query_ms:
        Latency threshold for the flight recorder's slow-query log:
        requests at/above it get a ``slow_query`` event carrying the
        plan digest and an EXPLAIN ANALYZE rendering built from the
        spans the request *already* recorded (never re-executed).
        ``None`` (default) disables the log.
    flight:
        The always-on black box.  ``None``/``True`` (default) records
        into the process-global :func:`repro.obs.get_flight_recorder`;
        a :class:`repro.obs.FlightRecorder` instance records there;
        ``False`` switches flight recording off for this engine.  Every
        request appends one bounded ring event; ``EvaluationError`` /
        ``BudgetExceeded`` additionally capture the failing request's
        span tree and auto-dump to *flight_dump*.
    flight_dump:
        Where failure dumps are written: a JSON file path (last dump
        wins) or a directory (one file per dump).  Defaults to
        ``$REPRO_FLIGHT_DUMP``; with neither set the ring still records
        in memory but no files are written.
    """

    def __init__(
        self,
        cache_size: int = 256,
        mode: Mode = "auto",
        budget: float | None = None,
        backend: str = "sequential",
        layout: str | None = None,
        slow_query_ms: float | None = None,
        flight: "FlightRecorder | bool | None" = None,
        flight_dump: str | None = None,
    ):
        self.cache = PlanCache(cache_size)
        self.slow_query_ms = slow_query_ms
        self._flight_spec = flight
        self.flight_dump = flight_dump
        self.mode: Mode = mode
        self.budget = budget
        check_backend(backend)
        if layout is None:
            layout = default_layout()
        if layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; expected one of {LAYOUTS}"
            )
        self.layout = layout
        self.decompositions = 0  # fresh planner searches performed
        # Single-flight gates: fingerprint -> Event set when the
        # leader's search lands in the cache.  Concurrent first requests
        # of one shape (e.g. two tenants submitting isomorphic queries at
        # once, under any semirings) elect one decomposer; the rest wait
        # and re-read the cache.
        self._plan_gates: dict = {}
        self._plan_gates_lock = threading.Lock()

    @property
    def flight(self) -> FlightRecorder | None:
        """The flight recorder this engine records into (``None`` when
        disabled).  Resolved lazily so a swapped global recorder (tests,
        servers) takes effect without rebuilding engines."""
        spec = self._flight_spec
        if spec is False:
            return None
        if spec is None or spec is True:
            return get_flight_recorder()
        return spec

    @property
    def shard_threshold(self) -> None:
        """Selects nothing (nothing is sharded); read only by the
        end-to-end benchmark driver under ``benchmarks/e2e``, which
        forwards it to :func:`~repro.engine.plan.compile_plan`."""
        return None

    # -- resource lifecycle ------------------------------------------------
    def close(self) -> None:
        """Release what the engine holds — nothing since requests run
        sequentially; kept so callers can treat every engine, server and
        live view alike (``with Engine() as engine:``)."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- planning ---------------------------------------------------------
    def _decomposition_for(
        self, query: ConjunctiveQuery, deadline: float | None
    ) -> tuple[CacheHit, bool]:
        """The cached-or-fresh decomposition, as a :class:`CacheHit`
        whose ``entry`` is where its compiled plans are memoised
        (``None`` with the cache disabled), and whether it was a hit.

        Cache misses are *single-flight* per structural fingerprint: of N
        threads missing the same shape concurrently, one runs the
        portfolio search while the rest wait on a gate and then re-read
        the cache — the "exactly one decomposition for isomorphic
        queries" guarantee holds under concurrency, not just in
        sequential replays.  Waiters count as cache hits: they never
        searched.
        """
        with current_tracer().span(
            "plan.cache_lookup", query=query.name
        ) as sp:
            hit = self.cache.lookup(query)
            sp.set(hit=hit is not None)
        if hit is not None:
            return hit, True
        key = fingerprint(query)
        while True:
            with self._plan_gates_lock:
                gate = self._plan_gates.get(key)
                if gate is None:
                    gate = threading.Event()
                    self._plan_gates[key] = gate
                    leader = True
                else:
                    leader = False
            if leader:
                break
            # Follower: wait out the leader's search, then re-read the
            # cache.  The deadline still applies to the wait — a blown
            # budget surfaces as BudgetExceeded, not an eternal block.
            remaining = (
                max(0.0, deadline - time.monotonic())
                if deadline is not None
                else None
            )
            gate.wait(timeout=remaining)
            hit = self.cache.lookup(query)
            if hit is not None:
                get_registry().counter("engine.singleflight_waits").inc()
                return hit, True
            if deadline is not None and time.monotonic() >= deadline:
                raise BudgetExceeded(
                    f"budget exhausted waiting for the in-flight "
                    f"decomposition of {query.name}"
                )
            # Leader failed (or the entry was evicted immediately): loop
            # and try to become the leader ourselves.
        try:
            remaining = (
                max(0.0, deadline - time.monotonic())
                if deadline is not None
                else None
            )
            result = decompose(query, mode=self.mode, budget=remaining)
            self.decompositions += 1
            entry = self.cache.store(
                query, result.decomposition, result.width, result.method
            )
        finally:
            with self._plan_gates_lock:
                self._plan_gates.pop(key, None)
            gate.set()
        return CacheHit(
            result.decomposition, result.width, result.method, entry
        ), False

    def plan(
        self,
        query: ConjunctiveQuery,
        db: Database | None = None,
        semiring: "Semiring | str | None" = None,
    ) -> QueryPlan:
        """The physical plan the engine would execute (used by explain,
        and by live views registering through the shared cache) — the
        one an ``execute`` of *query* on *db* right now would run,
        replayed if the memoised plan's estimator reads hold on *db*.
        The engine's ``budget`` bounds the decomposition search, as it
        does an ``execute``'s.  An atom-less query has nothing to
        decompose and no plan (``ValueError``); ``execute`` and
        ``explain`` answer it without one."""
        semiring = resolve_semiring(semiring)
        deadline = (
            time.monotonic() + self.budget if self.budget is not None else None
        )
        found, hit = self._decomposition_for(query, deadline)
        return self._compile(query, db, found, hit, semiring)

    def _compile(
        self,
        query: ConjunctiveQuery,
        db: Database | None,
        found: CacheHit,
        hit: bool,
        semiring: Semiring | None,
    ) -> QueryPlan:
        """*found*'s decomposition compiled against *db* under this
        engine's layout policy, for *semiring* — or replayed: the plan is
        a pure function of (query with its name, decomposition, method,
        layout policy, semiring) and of what its compile read
        (:attr:`QueryPlan.reads`), so the plan memoised under that key is
        reused, whatever database it was compiled on, while every read
        returns the same value on *db*, and a fresh compile replaces it
        otherwise.  The memo sits on the cache entry, which every
        semiring shares, so the key holds the semiring tag; without an
        entry (cache disabled) or a database, every call compiles."""
        hd, method, entry = found.decomposition, found.method, found.entry
        memoised = entry is not None and db is not None
        key = (
            query, query.name, hd.root, method, self.layout,
            semiring.tag if semiring is not None else "set",
        )
        plan = self.cache.recall_plan(entry, key) if memoised else None
        if plan is None or any(read(db, k) != v for k, v in plan.reads):
            plan = compile_plan(
                query, db, hd, provenance=method, cache_hit=hit,
                layout=self.layout, semiring=semiring,
            )
            if memoised:
                self.cache.keep_plan(entry, key, plan)
            return plan
        if not plan.reused or plan.cache_hit != hit:
            plan = plan.restamped(cache_hit=hit, reused=True)
            self.cache.keep_plan(entry, key, plan)
        with current_tracer().span(
            "plan.compile", query=query.name, layout=plan.layout, reused=True,
        ) as sp:
            sp.set(**plan.compile_attrs())
        get_registry().counter("plan.reused").inc()
        return plan

    def live(self, db: Database | None = None) -> "LiveEngine":
        """A :class:`repro.incremental.LiveEngine` planning through this
        engine — registered views share this plan cache, so a view of an
        already-seen shape costs a transport, not a search."""
        # Imported here: the incremental layer sits above the engine.
        from ..incremental.live import LiveEngine

        return LiveEngine(db=db, engine=self)

    def explain(
        self,
        query: ConjunctiveQuery,
        db: Database | None = None,
        analyze: bool = False,
        semiring: "Semiring | str | None" = None,
    ) -> str:
        """Render the chosen plan (cache provenance, layout, per node the
        χ labels priced and rejected, the join tree, and the program:
        bags with their join orders, then the sweep) — with *semiring*,
        the program an annotated request of that semiring runs.

        With ``analyze=True`` (requires *db*) the query is executed once
        under a private tracer and the rendering is annotated with what
        actually happened: per-node actual row counts next to the
        estimator's predictions, and bag/sweep wall times.
        """
        semiring = resolve_semiring(semiring)
        if analyze and db is None:
            raise ValueError(
                "explain(analyze=True) executes the query and needs db="
            )
        if not query.atoms:
            # No atoms, nothing to decompose: the request answers the
            # 0-ary unit relation (or nothing, under a head variable)
            # without a plan, as execute does.
            head, rows = _empty_answer_rows(query)
            output = f"({', '.join(head)})" if head else "boolean"
            text = (
                f"plan for {query.name}: no atoms [empty]\n"
                f"output: {output}\n"
                f"answer: {len(rows)} row(s), no bags and no sweep"
            )
            if analyze:
                result = self._execute(query, db, None, None, semiring, [])
                text += (
                    f"\nanalyze: executed in {result.elapsed * 1e3:.3f}ms, "
                    f"{len(result.answer)} answer row(s)"
                )
            return text
        if not analyze:
            return self.plan(query, db, semiring=semiring).render(semiring)
        # Reuse an ambient tracer (e.g. the CLI's --trace) so analyze
        # spans land in the exported trace too; otherwise capture into a
        # private one.
        ambient = current_tracer()
        capture = ambient if isinstance(ambient, Tracer) else Tracer()
        plan_sink: list[QueryPlan] = []
        with tracing(capture):
            result = self._execute(query, db, None, None, semiring, plan_sink)
        # The plan the request ran.
        plan = plan_sink[0]
        return plan.render_analyzed(
            capture, result.elapsed, len(result.answer), semiring
        )

    # -- execution --------------------------------------------------------
    def execute(
        self,
        query: ConjunctiveQuery,
        db: Database,
        budget: float | None = None,
        stats: EvalStats | None = None,
        semiring: "Semiring | str | None" = None,
    ) -> EvalResult:
        """Evaluate one query, raising :class:`BudgetExceeded` on timeout.

        The budget deadline is anchored to *this call*, the moment the
        request actually starts executing — never to the submission time
        of a surrounding batch (see :meth:`execute_many`).

        *semiring* (a :class:`~repro.db.semiring.Semiring` or registry
        tag such as ``"count"``) switches the request to annotated
        semantics; the result's answer then carries one semiring value
        per row (see :attr:`EvalResult.annotations`).
        """
        return self._execute(query, db, budget, stats, semiring, [])

    def _execute(
        self,
        query: ConjunctiveQuery,
        db: Database,
        budget: float | None,
        stats: EvalStats | None,
        semiring: "Semiring | str | None",
        plan_sink: list[QueryPlan],
    ) -> EvalResult:
        """:meth:`execute`, handing the plan it runs to *plan_sink*."""
        budget = budget if budget is not None else self.budget
        started = time.monotonic()
        deadline = started + budget if budget is not None else None
        semiring = resolve_semiring(semiring)
        stats = stats if stats is not None else EvalStats()
        flight = self.flight
        # An ambient tracer (CLI --trace, explain(analyze=True)) wins;
        # without one, requests record into the flight recorder's
        # always-on bounded span ring (the black box holds the spans
        # leading up to a failure).
        ambient = current_tracer()
        if ambient.enabled:
            tracer = ambient
        elif flight is not None:
            tracer = flight.tracer
        else:
            tracer = ambient
        request_perf = time.perf_counter()
        try:
            with tracing(tracer), tracer.span(
                "engine.execute", query=query.name,
                semiring=semiring.tag if semiring is not None else "set",
            ) as request_span:
                result = self._execute_request(
                    query, db, deadline, stats, started, plan_sink, semiring,
                )
                request_span.set(
                    cache_hit=result.cache_hit,
                    width=result.width,
                    method=result.method,
                    rows=len(result.answer),
                )
        except (EvaluationError, BudgetExceeded) as error:
            if flight is not None:
                self._flight_failure(
                    flight, query, error, plan_sink, tracer, request_perf
                )
            raise
        self._record_request(result)
        if flight is not None:
            self._flight_request(
                flight, result, plan_sink, tracer, request_perf
            )
        return result

    # -- workload families over semirings ----------------------------------
    def count(self, query: ConjunctiveQuery, db: Database, **kwargs) -> int:
        """The number of *derivations* of the query — answer multiplicity
        under bag semantics, summed over the head (ℕ semiring).  For a
        full-output query this equals the brute-force join's bag count;
        a projecting head sums the multiplicities the projection folds.
        """
        result = self.execute(query, db, semiring="count", **kwargs)
        return int(result.answer.total())

    def top_k(
        self,
        query: ConjunctiveQuery,
        db: Database,
        k: int = 1,
        **kwargs,
    ) -> list[tuple[Row, float, tuple[FactId, ...]]]:
        """The *k* cheapest answers under the min-cost (tropical)
        semiring: ``(row, cost, witness)`` triples, cost-ascending, where
        *witness* lists the ``(predicate, fact)`` pairs achieving the
        cost.  Fact costs come from :meth:`Database.set_weight`
        (``add_fact(..., weight=)``), defaulting to 1.0 per fact."""
        if k < 1:
            raise ValueError(f"top_k needs k >= 1, got {k}")
        result = self.execute(query, db, semiring="mincost", **kwargs)
        return cheapest(result.annotations, k)

    def provenance(
        self, query: ConjunctiveQuery, db: Database, **kwargs
    ) -> dict[Row, frozenset]:
        """Why-provenance: row → set of witness sets, each witness a
        frozenset of ``(predicate, fact)`` pairs that jointly derive the
        row."""
        result = self.execute(query, db, semiring="provenance", **kwargs)
        return dict(result.annotations)

    def probability(
        self, query: ConjunctiveQuery, db: Database, **kwargs
    ) -> dict[Row, float]:
        """Row probabilities over a tuple-independent database (fact
        weights read as marginal probabilities; a row's derivations
        combined by noisy-or after one full join, an upper-bound
        approximation when derivations share facts)."""
        result = self.execute(query, db, semiring="prob", **kwargs)
        return dict(result.annotations)

    def _execute_request(
        self,
        query: ConjunctiveQuery,
        db: Database,
        deadline: float | None,
        stats: EvalStats,
        started: float,
        plan_sink: list | None = None,
        semiring: Semiring | None = None,
    ) -> EvalResult:
        with stats.timed():
            if not query.atoms:
                head, rows = _empty_answer_rows(query)
                if semiring is not None:
                    answer: Relation = AnnotatedRelation.make(
                        head, rows, "ans", semiring,
                        dict.fromkeys(rows, semiring.one),
                    )
                else:
                    answer = Relation(head, rows, "ans")
                return EvalResult(
                    query, answer, stats, False, 0, "empty",
                    time.monotonic() - started, semiring=semiring,
                )
            found, hit = self._decomposition_for(query, deadline)
            plan = self._compile(query, db, found, hit, semiring)
            if plan_sink is not None:
                # Threaded out so the flight recorder can attach the
                # plan digest even when execution fails below.
                plan_sink.append(plan)
            answer = execute_plan(
                plan, db, stats=stats, deadline=deadline, semiring=semiring
            )
        return EvalResult(
            query, answer, stats, hit, found.width, found.method,
            time.monotonic() - started, semiring=semiring,
        )

    def _record_request(self, result: EvalResult) -> None:
        """Absorb one finished request into the process-global metrics
        registry (request count/latency, operator counters, and a
        lock-consistent plan-cache snapshot)."""
        registry = get_registry()
        registry.counter("engine.requests").inc()
        # Per-semiring request counters, label-in-name style (grouped by
        # ``repro stats`` via the "semiring" scope): set semantics is the
        # "set" family.
        tag = result.semiring.tag if result.semiring is not None else "set"
        registry.counter(f"semiring.{tag}.engine.requests").inc()
        registry.counter(
            "engine.cache_hits" if result.cache_hit else "engine.cache_misses"
        ).inc()
        registry.histogram("engine.request_seconds").observe(result.elapsed)
        registry.record_eval(result.stats)
        registry.record_cache(self.cache.snapshot())

    # -- flight recording -------------------------------------------------
    def _flight_request(
        self,
        flight: FlightRecorder,
        result: EvalResult,
        plan_sink: list,
        tracer,
        request_perf: float,
    ) -> None:
        """One ring event per finished request (the metric delta the
        flight recorder keeps), plus the slow-query capture when the
        request crossed ``slow_query_ms``."""
        plan = plan_sink[0] if plan_sink else None
        digest = plan.digest() if plan is not None else None
        elapsed_ms = result.elapsed * 1e3
        flight.record(
            "request",
            query=result.query.name,
            elapsed_ms=round(elapsed_ms, 3),
            rows=len(result.answer) if result.answer is not None else None,
            cache_hit=result.cache_hit,
            method=result.method,
            width=result.width,
            digest=digest,
            stats=result.stats.as_row(),
        )
        if self.slow_query_ms is None or elapsed_ms < self.slow_query_ms:
            return
        # Slow-query capture: EXPLAIN ANALYZE rendered from the spans
        # this request already recorded — never re-executed.
        explain = None
        if plan is not None and isinstance(tracer, Tracer):
            explain = plan.render_analyzed(
                tracer.view_since(request_perf),
                result.elapsed,
                len(result.answer) if result.answer is not None else 0,
                result.semiring,
            )
        flight.record(
            "slow_query",
            query=result.query.name,
            elapsed_ms=round(elapsed_ms, 3),
            threshold_ms=self.slow_query_ms,
            digest=digest,
            explain=explain,
        )
        get_registry().counter("engine.slow_queries").inc()

    def _flight_failure(
        self,
        flight: FlightRecorder,
        query: ConjunctiveQuery,
        error: Exception,
        plan_sink: list,
        tracer,
        request_perf: float,
    ) -> None:
        """Record the failing request (span tree + plan digest) and
        auto-dump the black box."""
        plan = plan_sink[0] if plan_sink else None
        spans = (
            tracer.view_since(request_perf).spans()
            if isinstance(tracer, Tracer)
            else []
        )
        flight.record(
            "error",
            query=query.name,
            error=type(error).__name__,
            message=str(error),
            digest=plan.digest() if plan is not None else None,
            spans=span_forest(spans),
        )
        flight.dump(
            reason=f"{type(error).__name__}: {query.name}",
            path=self.flight_dump,
        )

    def execute_many(
        self,
        requests: Iterable[tuple[ConjunctiveQuery, Database] | ConjunctiveQuery],
        db: Database | None = None,
        budget: float | None = None,
        semiring: "Semiring | str | None" = None,
    ) -> BatchResult:
        """Evaluate a batch of requests, one after another, in the
        caller's thread.

        *requests* is an iterable of ``(query, database)`` pairs, or of
        bare queries when a shared *db* is given.  Results come back in
        request order; a request that fails with a library error (a
        blown budget, a schema mismatch, an undecomposable query) yields
        an :class:`EvalResult` with ``error`` set instead of aborting the
        batch, and keeps the time and counters it spent before failing.
        Non-library exceptions still propagate — those are bugs, not
        request outcomes.  The merged :class:`EvalStats` ride on the
        returned :class:`BatchResult`.  *semiring* sets the per-request
        annotation algebra (see :meth:`execute`).

        Each request gets the whole *budget*: its deadline is anchored
        when :meth:`execute` starts it, not when the batch starts.
        """
        pairs: list[tuple[ConjunctiveQuery, Database]] = []
        for request in requests:
            if isinstance(request, ConjunctiveQuery):
                if db is None:
                    raise ValueError(
                        "bare queries in execute_many need the shared "
                        "db= argument"
                    )
                pairs.append((request, db))
            else:
                query, request_db = request
                pairs.append((query, request_db))

        started = time.monotonic()
        results: list[EvalResult] = []
        for query, request_db in pairs:
            stats = EvalStats()
            request_started = time.monotonic()
            try:
                results.append(self.execute(
                    query, request_db, budget=budget, stats=stats,
                    semiring=semiring,
                ))
            except ReproError as error:
                method = "budget" if isinstance(error, BudgetExceeded) else "error"
                results.append(EvalResult(
                    query, None, stats, False, 0, method,
                    time.monotonic() - request_started, error=str(error),
                ))
        elapsed = time.monotonic() - started

        merged = EvalStats()
        for r in results:
            merged.merge(r.stats)
        return BatchResult(
            results=results,
            stats=merged,
            elapsed=elapsed,
            cache_hits=sum(1 for r in results if r.cache_hit),
            cache_misses=sum(1 for r in results if r.ok and not r.cache_hit),
            failures=sum(1 for r in results if not r.ok),
        )
