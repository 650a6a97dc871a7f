"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``width QUERY [--upper-bound] [--qw]``
    Print acyclicity, hypertree-width and (optionally) query-width.  With
    ``--upper-bound`` the exponential exact search is skipped: the fast
    heuristic bracket ``[lower bound, greedy upper bound]`` is printed
    instead, which is the right tool for large queries.
``decompose QUERY [-k K] [--strategy S] [--budget SECONDS]``
    Compute and render a hypertree decomposition.  ``--strategy`` selects
    the portfolio mode:

    * ``exact`` (default) — the paper's ``k-decomp`` search, optimal
      width, exponential time;
    * ``heuristic`` — polynomial-time ordering-based GHTD construction
      (checker-validated, width may exceed the optimum);
    * ``auto`` — heuristics first, their width seeding the exact search;
      falls back to the heuristic result if ``--budget`` runs out.

    ``--budget SECONDS`` bounds the exact search; when the budget is
    exhausted (or no width ≤ K decomposition exists under ``-k``) the
    command exits with status 1 and a one-line message — never a
    traceback.
``evaluate QUERY FACTS [--method M]``
    Evaluate a query against a facts file (one ground atom per line).
``run FACTS QUERY [QUERY ...] [--repeat N] [--budget S] [--workers N]``
    Evaluate one or more queries through the :class:`repro.engine.Engine`
    pipeline (fingerprint → plan cache → physical plan → Yannakakis).
    Structurally identical queries share one cached decomposition;
    ``--repeat`` re-runs the batch to demonstrate warm-cache
    amortisation, and ``--stats`` prints the merged counters plus the
    cache's hit/miss/eviction numbers.  Each query evaluates
    sequentially; ``--workers`` only runs several queries at once.
    ``--layout row|columnar|auto`` picks the bag storage layout
    (columnar = vectorised kernels).  ``--semiring
    count|mincost|provenance|prob`` switches the batch to annotated
    evaluation (derivation counts,
    cheapest witnesses, why-provenance, probabilities).
``explain QUERY [FACTS] [--analyze] [--layout L] [--semiring S]``
    Render the physical plan the engine would execute: cached-or-fresh
    decomposition provenance, per-bag join order with cardinality
    estimates (when FACTS is given), and the rooted join tree.  With
    ``--analyze`` the query is executed once under a tracer and the
    rendering gains per-node *actual* row counts and wall times next to
    the estimates (EXPLAIN ANALYZE).  ``--semiring`` renders (and
    analyzes) the plan of an annotated request instead — whether a
    ``count`` plan resolved to the columnar layout, say.
``watch QUERY [FACTS] [--deltas FILE]``
    Register the query as a live materialized view and stream updates
    through it.  Each update line is a ground atom with an optional
    sign — ``+e(1, 2).`` inserts, ``-e(1, 2).`` deletes, an unsigned
    atom inserts — read from ``--deltas FILE`` (default: stdin, one
    batch per line).  After every batch the *answer delta* is printed
    (``+ (..)`` rows appeared, ``- (..)`` rows vanished), which is the
    incremental subsystem's headline: maintenance cost scales with the
    delta, not the database.
``stats [FILE] [--json] [--flight]``
    Validate and summarise a ``--trace`` file (Chrome trace-event
    schema), render a ``--metrics`` snapshot or a flight-recorder dump
    (auto-detected), or — without FILE — the current process's metrics
    registry (``--flight``: its flight-recorder ring).  ``--json``
    switches to machine-readable output.  A truncated trace (spans
    dropped by the ``max_spans`` guard) gets a stderr warning.
``bench record --out run.json BENCH_*.json`` / ``bench diff BASE CUR``
    The perf-regression observatory: merge benchmark emissions into one
    unified run document (schema, env fingerprint, suite-tagged
    records), then compare runs direction-aware with per-metric noise
    tolerances — wall-clock metrics only compare between identical env
    fingerprints; ratios and counts always do.  ``diff`` exits 1 on any
    regression, which is the CI gate.
``serve [FACTS] [--port P] [--rate R] [--tenant-budget S] ...``
    Run the multi-tenant query service: newline-delimited JSON over TCP,
    per-tenant databases/budgets/rate limits over one shared plan cache,
    bounded-queue admission control with typed retryable shed responses,
    and push subscriptions fed by the incremental view machinery.
``loadgen QUERY [...] [--mode closed|open] [--assert-p99-ms MS] ...``
    Open/closed-loop load generator against a running server: reports
    p50/p95/p99 latency, throughput, and typed outcome counts, writes a
    latency-histogram JSON (``--out``), and gates CI via
    ``--assert-p99-ms`` / ``--assert-no-shed``.
``contains Q2 Q1``
    Decide Q1 ⊑ Q2 (Chandra–Merlin through the decomposition pipeline).

``run``, ``watch``, and ``serve`` accept ``--slow-query-ms MS`` (flight
recorder slow-query log) and ``--flight-dump PATH`` (failure-dump
destination, default ``$REPRO_FLIGHT_DUMP``).

``run``, ``watch`` and ``explain`` accept ``--trace PATH`` (or
``$REPRO_TRACE``) to export a Chrome trace-event file of the request's
spans and ``--metrics PATH`` for a JSON metrics snapshot;
``--profile PATH`` (or ``$REPRO_PROFILE``) runs the wall-clock sampling
profiler alongside and writes a speedscope JSON profile (or collapsed
text for ``.txt``/``.folded`` paths).
``experiments [ID ...]``
    Run the reproduction experiments (same as ``python -m
    repro.experiments``).

``QUERY`` arguments are either inline rule text or a path to a file
containing it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
import time

from ._errors import (
    BudgetExceeded,
    ReproError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .core.acyclicity import is_acyclic
from .core.containment import contains
from .core.detkdecomp import decompose_k, hypertree_width
from .core.parser import parse_atom, parse_query
from .core.query import ConjunctiveQuery
from .core.qwsearch import query_width
from .db.database import Database
from .db.evaluate import evaluate, evaluate_boolean
from .db.stats import EvalStats
from .engine import Engine
from .heuristics import decompose as portfolio_decompose
from .graphs.primal import primal_graph
from .heuristics import greedy_upper_bound, lower_bound
from .obs import (
    SamplingProfiler,
    Tracer,
    diff_runs,
    get_flight_recorder,
    load_run,
    merge_runs,
    metrics_snapshot,
    profile_path_from_env,
    profiling,
    render_flight,
    render_metrics,
    render_trace_summary,
    trace_path_from_env,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_collapsed,
    write_metrics_snapshot,
    write_speedscope,
)


def _load_query(text_or_path: str, name: str = "Q") -> ConjunctiveQuery:
    path = pathlib.Path(text_or_path)
    if path.exists() and path.is_file():
        return parse_query(path.read_text(), name=path.stem)
    return parse_query(text_or_path, name=name)


def _load_facts(path: str) -> Database:
    db = Database()
    for raw in pathlib.Path(path).read_text().splitlines():
        line = raw.strip().rstrip(".")
        if not line or line.startswith(("#", "%")):
            continue
        db.add_atom(parse_atom(line))
    return db


@contextlib.contextmanager
def _observed(args: argparse.Namespace):
    """Tracing/profiling/metrics wrapper for the execution commands.

    Installs a tracer for the command's dynamic extent when ``--trace``
    (or ``$REPRO_TRACE``) asks for one and writes the Chrome trace-event
    file on the way out; likewise a sampling profiler for ``--profile``
    (or ``$REPRO_PROFILE``), written as speedscope JSON (or collapsed
    text when the path ends in ``.txt``/``.folded``/``.collapsed``);
    writes the ``--metrics`` snapshot regardless.  Notices go to stderr,
    so piped answer output stays clean.
    """
    trace_path = getattr(args, "trace", None) or trace_path_from_env()
    profile_path = getattr(args, "profile", None) or profile_path_from_env()
    tracer = Tracer() if trace_path else None
    profiler = SamplingProfiler() if profile_path else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing(tracer))
        if profiler is not None:
            stack.enter_context(profiling(profiler))
        yield
    if tracer is not None:
        events = write_chrome_trace(tracer, trace_path)
        print(
            f"trace: {events} events -> {trace_path}"
            + (f" ({tracer.dropped} spans dropped)" if tracer.dropped else ""),
            file=sys.stderr,
        )
    if profiler is not None:
        if profile_path.endswith((".txt", ".folded", ".collapsed")):
            total = write_collapsed(profiler.profile, profile_path)
        else:
            total = write_speedscope(profiler.profile, profile_path)
        print(
            f"profile: {total} samples -> {profile_path}", file=sys.stderr
        )
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        write_metrics_snapshot(metrics_path)
        print(f"metrics: snapshot -> {metrics_path}", file=sys.stderr)


def _cmd_width(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    print(f"query: {query}")
    print(f"atoms: {len(query.atoms)}  variables: {len(query.variables)}")
    acyclic = is_acyclic(query)
    print(f"acyclic: {acyclic}")
    if args.upper_bound:
        graph = primal_graph(query)
        ub = greedy_upper_bound(query, graph=graph)
        print(f"hw lower bound: {lower_bound(query, graph=graph)}")
        print(f"hw upper bound (heuristic, {ub.method}): {ub.width}")
    else:
        width, _ = hypertree_width(query)
        print(f"hypertree-width: {width}")
    if args.qw:
        if len(query.atoms) > args.qw_limit:
            print(
                f"query-width: skipped (> {args.qw_limit} atoms; "
                "NP-hard search — pass --qw-limit to force)"
            )
        else:
            qw, _ = query_width(query)
            print(f"query-width: {qw}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    deadline = (
        time.monotonic() + args.budget if args.budget is not None else None
    )
    try:
        if args.strategy == "exact" and args.k is not None:
            hd = decompose_k(query, args.k, deadline=deadline)
            if hd is None:
                print(f"no hypertree decomposition of width <= {args.k}")
                return 1
            width, provenance = hd.width, "exact"
        elif args.strategy == "exact":
            width, hd = hypertree_width(query, deadline=deadline)
            provenance = "exact"
        else:
            result = portfolio_decompose(
                query, mode=args.strategy, budget=args.budget, seed=args.seed
            )
            width, hd = result.width, result.decomposition
            provenance = result.method + (
                " — optimal"
                if result.optimal
                else f" — bounds [{result.lower}, {result.width}]"
            )
            if args.k is not None and width > args.k:
                # Only an optimal portfolio result proves nonexistence;
                # otherwise the bound may simply not have been found yet.
                if result.optimal:
                    print(
                        f"no decomposition of width <= {args.k} exists "
                        f"(optimal width: {width})"
                    )
                else:
                    print(
                        f"no decomposition of width <= {args.k} found "
                        f"(best {args.strategy} width so far: {width}; "
                        "existence not determined)"
                    )
                return 1
    except BudgetExceeded as error:
        print(f"budget exhausted ({args.budget}s): {error}")
        return 1
    print(f"width: {width}  [{provenance}]")
    print(hd.render_atoms() if args.atoms else hd.render())
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    db = _load_facts(args.facts)
    stats = EvalStats()
    if query.is_boolean:
        answer = evaluate_boolean(query, db, method=args.method, stats=stats)
        print(f"answer: {answer}")
    else:
        relation = evaluate(query, db, method=args.method, stats=stats)
        print(f"answers ({len(relation)} rows over {relation.attributes}):")
        for row in sorted(relation.rows, key=repr):
            print("  " + ", ".join(map(str, row)))
    if args.stats:
        print(f"stats: {stats.as_row()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    db = _load_facts(args.facts)
    queries = [
        _load_query(text, name=f"Q{i}") for i, text in enumerate(args.queries)
    ]
    engine = Engine(
        mode=args.strategy,
        budget=args.budget,
        workers=args.workers,
        layout=args.layout,
        slow_query_ms=args.slow_query_ms,
        flight_dump=args.flight_dump,
    )
    semiring = getattr(args, "semiring", None)
    batch = None
    with engine, _observed(args):
        for _ in range(max(1, args.repeat)):
            batch = engine.execute_many(queries, db=db, semiring=semiring)
    for result in batch:
        if not result.ok:
            print(f"{result.query.name}: ERROR {result.error}")
            continue
        tag = "cached plan" if result.cache_hit else result.method
        if semiring is not None:
            total = result.answer.total()
            if result.query.is_boolean:
                print(
                    f"{result.query.name}: {semiring} total {total}  [{tag}]"
                )
            else:
                print(
                    f"{result.query.name}: {len(result.answer)} answers "
                    f"over {result.answer.attributes}, {semiring} total "
                    f"{total}  [{tag}]"
                )
        elif result.query.is_boolean:
            print(f"{result.query.name}: {result.boolean}  [{tag}]")
        else:
            print(
                f"{result.query.name}: {len(result.answer)} answers over "
                f"{result.answer.attributes}  [{tag}]"
            )
    print(
        f"batch: {len(batch)} queries in {batch.elapsed:.4f}s "
        f"({batch.throughput:.1f} q/s), "
        f"{batch.cache_hits} cache hits / {batch.cache_misses} misses"
    )
    if args.stats:
        print(f"stats: {batch.stats.as_row()}")
        print(f"cache: {engine.cache.info()}")
    return 1 if batch.failures else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    db = _load_facts(args.facts) if args.facts else None
    engine = Engine(mode=args.strategy, layout=args.layout)
    if args.analyze and db is None:
        print(
            "error: --analyze executes the query and needs a FACTS file",
            file=sys.stderr,
        )
        return 2
    with engine, _observed(args):
        print(
            engine.explain(
                query, db, analyze=args.analyze, semiring=args.semiring
            )
        )
    return 0


def _parse_delta_line(line: str):
    """``+atom.`` / ``-atom.`` / ``atom.`` -> (predicate, row, sign)."""
    from .core.atoms import Constant

    sign = 1
    if line[0] in "+-":
        sign = 1 if line[0] == "+" else -1
        line = line[1:].lstrip()
    atom = parse_atom(line.rstrip("."))
    row = []
    for term in atom.terms:
        if not isinstance(term, Constant):
            raise ReproError(f"update atom {atom} is not ground")
        row.append(term.value)
    return atom.predicate, tuple(row), sign


def _cmd_watch(args: argparse.Namespace) -> int:
    from .incremental import Delta, LiveEngine

    query = _load_query(args.query)
    db = _load_facts(args.facts) if args.facts else Database()
    engine = Engine(
        mode=args.strategy,
        slow_query_ms=args.slow_query_ms,
        flight_dump=args.flight_dump,
    )
    live = LiveEngine(db=db, engine=engine, parallelism=args.parallelism)
    with engine, live, _observed(args):
        handle = live.register(query)
        print(
            f"registered {query.name}: width {handle.width} "
            f"[{handle.method}], {len(handle.answers())} initial answers"
        )

        if args.deltas and args.deltas != "-":
            lines = pathlib.Path(args.deltas).read_text().splitlines()
        else:
            lines = sys.stdin
        applied = 0
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            predicate, row, sign = _parse_delta_line(line)
            changes = live.apply(Delta({predicate: {row: sign}}))
            applied += 1
            answer_delta = changes.get(handle.view_id)
            if answer_delta:
                for inserted in sorted(answer_delta.inserted, key=repr):
                    print("+ (" + ", ".join(map(str, inserted)) + ")")
                for deleted in sorted(answer_delta.deleted, key=repr):
                    print("- (" + ", ".join(map(str, deleted)) + ")")
    print(
        f"final: {len(handle.answers())} answers after {applied} updates"
    )
    if args.stats:
        print(f"stats: {handle.stats.as_row()}")
        print(f"notes: {handle.stats.notes}")
    return 0


def _truncation_warning(snapshot: dict) -> None:
    """Surface the tracer's drop guard: a trace that silently lost spans
    would lie about what happened, so say so on stderr."""
    dropped = snapshot.get("counters", {}).get("tracer.spans_dropped", 0)
    if dropped:
        print(
            f"warning: {int(dropped)} span(s) dropped by the tracer's "
            "max_spans guard — traces are truncated (raise "
            "Tracer(max_spans=...))",
            file=sys.stderr,
        )


def _trace_summary_json(events: list, problems: list[str]) -> dict:
    """Machine-readable trace summary (``stats --json`` on a trace)."""
    spans = [e for e in events if e.get("ph") == "X"]
    by_name: dict[str, dict] = {}
    for event in spans:
        entry = by_name.setdefault(
            event.get("name", "?"), {"seconds": 0.0, "count": 0}
        )
        entry["seconds"] += event.get("dur", 0) / 1e6
        entry["count"] += 1
    return {
        "kind": "trace",
        "valid": not problems,
        "problems": problems,
        "events": len(events),
        "spans": len(spans),
        "tracks": len(
            {(e.get("pid"), e.get("tid")) for e in spans}
        ),
        "by_name": {
            name: {"seconds": round(v["seconds"], 6), "count": v["count"]}
            for name, v in by_name.items()
        },
    }


def _cmd_stats(args: argparse.Namespace) -> int:
    """Render observability artifacts (or the live process registry).

    With FILE: auto-detects a Chrome trace-event array (validated
    against the schema the Perfetto loader needs, then summarised per
    span name), a flight-recorder dump, or a metrics snapshot dict.
    Without FILE: the in-process global metrics registry — or, with
    ``--flight``, the live flight recorder's ring.  ``--json`` switches
    every mode to machine-readable output (what the CI gates assert
    on).
    """
    as_json = getattr(args, "json", False)

    def emit(doc, rendered: str) -> None:
        print(json.dumps(doc, indent=1, sort_keys=True) if as_json else rendered)

    if args.flight and not args.file:
        snapshot = get_flight_recorder().snapshot()
        emit(snapshot, render_flight(snapshot))
        return 0
    if args.file:
        try:
            data = json.loads(pathlib.Path(args.file).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
            return 2
        if isinstance(data, list):
            problems = validate_chrome_trace(data)
            if as_json:
                print(json.dumps(_trace_summary_json(data, problems), indent=1))
                return 1 if problems else 0
            if problems:
                print(f"invalid chrome trace ({len(problems)} problem(s)):")
                for problem in problems[:20]:
                    print(f"  {problem}")
                return 1
            print(f"valid chrome trace: {args.file}")
            print(render_trace_summary(data))
            return 0
        if isinstance(data, dict):
            if data.get("flight") == 1 or args.flight:
                emit(data, render_flight(data))
                return 0
            emit(_with_tenant_groups(data), render_metrics(data))
            _truncation_warning(data)
            return 0
        print(
            f"error: {args.file} is neither a trace-event array, a "
            "flight dump, nor a metrics snapshot",
            file=sys.stderr,
        )
        return 2
    snapshot = metrics_snapshot()
    emit(_with_tenant_groups(snapshot), render_metrics(snapshot))
    _truncation_warning(snapshot)
    return 0


def _with_tenant_groups(snapshot: dict) -> dict:
    """Fold label-in-name instruments into structured groups for the
    ``--json`` view: ``tenant.<id>.<metric>`` into ``tenants`` and
    ``semiring.<tag>.<metric>`` into ``semirings``, so dashboards read
    ``doc["tenants"]["acme"]["requests"]`` or
    ``doc["semirings"]["count"]["engine.requests"]`` instead of parsing
    dotted metric names."""
    from .obs.metrics import group_scoped

    out = snapshot
    tenants = group_scoped(snapshot, scope="tenant")
    if tenants:
        out = {**out, "tenants": tenants}
    semirings = group_scoped(snapshot, scope="semiring")
    if semirings:
        out = {**out, "semirings": semirings}
    return out


def _suite_name(path: str, doc: dict) -> str:
    """The suite tag for a benchmark emission: its own ``suite`` field,
    else the filename with the BENCH_ prefix/extension stripped."""
    if doc.get("suite"):
        return str(doc["suite"])
    stem = pathlib.Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def _cmd_bench_record(args: argparse.Namespace) -> int:
    """Merge benchmark emissions into one unified run document."""
    suite_docs = []
    total = 0
    for path in args.inputs:
        try:
            doc = json.loads(pathlib.Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read {path}: {error}", file=sys.stderr)
            return 2
        records = doc.get("records")
        if not isinstance(records, list):
            print(
                f"error: {path} carries no 'records' list (pre-observatory "
                "benchmark emission? re-run the suite)",
                file=sys.stderr,
            )
            return 2
        suite_docs.append((_suite_name(path, doc), doc))
        total += len(records)
    run = merge_runs(suite_docs, meta={"sources": list(args.inputs)})
    pathlib.Path(args.out).write_text(json.dumps(run, indent=1, sort_keys=True))
    print(
        f"recorded {total} metric(s) from {len(suite_docs)} suite(s) "
        f"-> {args.out}"
    )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Compare a run against a baseline; exit 1 on regression."""
    try:
        baseline = load_run(args.baseline)
        current = load_run(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kwargs = {"compare_all": args.all_metrics}
    if args.tolerance is not None:
        kwargs["default_tolerance"] = args.tolerance
    report = diff_runs(baseline, current, **kwargs)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant query server until interrupted."""
    import asyncio

    from .serve import QueryServer

    seed_db = _load_facts(args.facts) if args.facts else None
    server = QueryServer(
        host=args.host,
        port=args.port,
        seed_db=seed_db,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        max_estimated_rows=args.max_estimated_rows,
        request_budget=args.budget,
        tenant_budget=args.tenant_budget,
        rate=args.rate,
        burst=args.burst,
        mode=args.strategy,
        slow_query_ms=args.slow_query_ms,
        flight_dump=args.flight_dump,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"serving on {server.host}:{server.port} "
            f"(inflight {args.max_inflight}, queue {args.max_queue})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; server stopped", file=sys.stderr)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Generate load against a running server; print (and gate on) the
    latency/shed report."""
    from .serve import ServeClient, run_closed_loop, run_open_loop

    queries = [_load_query(q, name=f"Q{i}") for i, q in enumerate(args.queries)]
    texts = [str(q) for q in queries]
    if args.facts:
        seed = _load_facts(args.facts)
        with ServeClient(args.host, args.port, tenant=args.tenant) as client:
            for predicate in seed.predicates():
                client.load(predicate, [list(r) for r in seed.rows(predicate)])
    if args.mode == "closed":
        report = run_closed_loop(
            args.host, args.port, args.tenant, texts,
            workers=args.workers,
            requests_per_worker=args.requests,
            budget_ms=args.budget_ms,
            queue_timeout_ms=args.queue_timeout_ms,
        )
    else:
        report = run_open_loop(
            args.host, args.port, args.tenant, texts,
            rate=args.rate,
            duration=args.duration,
            concurrency=args.workers,
            budget_ms=args.budget_ms,
            queue_timeout_ms=args.queue_timeout_ms,
        )
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(
            f"{summary['mode']} loop: {summary['ok']}/{summary['offered']} "
            f"ok in {summary['duration_seconds']}s "
            f"({summary['throughput_qps']} q/s)"
        )
        print(
            f"latency: p50 {summary['p50_ms']}ms  p95 {summary['p95_ms']}ms "
            f"p99 {summary['p99_ms']}ms"
        )
        print(
            f"outcomes: shed {summary['shed']}, rate-limited "
            f"{summary['rate_limited']}, budget {summary['budget_exceeded']}, "
            f"errors {summary['errors']}, cache hits {summary['cache_hits']}"
        )
    if args.out:
        pathlib.Path(args.out).write_text(
            json.dumps(report.histogram(), indent=1, sort_keys=True)
        )
        print(f"histogram -> {args.out}", file=sys.stderr)
    failed = False
    if args.assert_p99_ms is not None:
        p99 = summary["p99_ms"]
        if not p99 <= args.assert_p99_ms:
            print(
                f"FAIL: p99 {p99}ms > {args.assert_p99_ms}ms",
                file=sys.stderr,
            )
            failed = True
    if args.assert_no_shed and report.shed:
        print(f"FAIL: {report.shed} request(s) shed", file=sys.stderr)
        failed = True
    if args.assert_no_errors and report.errors:
        print(f"FAIL: {report.errors} request error(s)", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_contains(args: argparse.Namespace) -> int:
    q2 = _load_query(args.q2, name="Q2")
    q1 = _load_query(args.q1, name="Q1")
    result = contains(q2, q1, method=args.method)
    print(f"Q1 ⊑ Q2: {result}")
    return 0 if result else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    return experiments_main(args.ids or ["list"])


def _add_flight_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        dest="slow_query_ms",
        metavar="MS",
        help="flight-recorder slow-query threshold: requests at/above "
        "this latency get a slow_query ring event with the plan digest "
        "and an EXPLAIN ANALYZE built from already-recorded spans",
    )
    p.add_argument(
        "--flight-dump",
        default=None,
        dest="flight_dump",
        metavar="PATH",
        help="where flight-recorder failure dumps land: a JSON file "
        "(last dump wins) or a directory (one file per dump); default "
        "$REPRO_FLIGHT_DUMP",
    )


def _add_observability_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record spans across decompose/plan/bags/sweeps and "
        "write a Chrome trace-event file (chrome://tracing / Perfetto) "
        "to PATH; $REPRO_TRACE=PATH is the env equivalent",
    )
    p.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write the process metrics registry (counters, gauges, "
        "latency histograms) as a JSON snapshot to PATH",
    )
    p.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="run a wall-clock sampling profiler (spans-tagged folded "
        "stacks) and write a speedscope JSON profile to PATH (.txt/.folded/.collapsed for "
        "collapsed flamegraph text); $REPRO_PROFILE=PATH is the env "
        "equivalent",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hypertree decompositions and tractable queries "
        "(Gottlob, Leone, Scarcello — PODS'99/JCSS 2002).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("width", help="acyclicity / hw / qw of a query")
    p.add_argument("query", help="rule text or a file containing it")
    p.add_argument("--qw", action="store_true", help="also compute query-width")
    p.add_argument("--qw-limit", type=int, default=10, dest="qw_limit")
    p.add_argument(
        "--upper-bound",
        action="store_true",
        dest="upper_bound",
        help="print the fast heuristic width bracket instead of running "
        "the exponential exact search",
    )
    p.set_defaults(fn=_cmd_width)

    p = sub.add_parser("decompose", help="compute a hypertree decomposition")
    p.add_argument("query")
    p.add_argument("-k", type=int, default=None, help="width bound (else optimal)")
    p.add_argument(
        "--atoms", action="store_true", help="Fig.-7 atom representation"
    )
    p.add_argument(
        "--strategy",
        default="exact",
        choices=["exact", "heuristic", "auto"],
        help="decomposition strategy (default: exact)",
    )
    p.add_argument(
        "--budget",
        type=float,
        default=None,
        help="wall-clock seconds for the exact search; on exhaustion "
        "'auto' falls back to the heuristic result, 'exact' exits 1",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="ordering local-search seed"
    )
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("evaluate", help="evaluate a query over a facts file")
    p.add_argument("query")
    p.add_argument("facts", help="file of ground atoms, one per line")
    p.add_argument(
        "--method",
        default="decomposition",
        choices=["decomposition", "yannakakis", "naive", "backtracking"],
    )
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser(
        "run", help="evaluate queries through the plan-caching engine"
    )
    p.add_argument("facts", help="file of ground atoms, one per line")
    p.add_argument(
        "queries", nargs="+", help="rule texts or files containing them"
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the batch N times (N>1 shows warm-cache amortisation)",
    )
    p.add_argument(
        "--budget", type=float, default=None, help="per-query seconds"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="queries of the batch run at once (each query itself "
        "evaluates sequentially)",
    )
    p.add_argument(
        "--layout",
        default=None,
        choices=["row", "columnar", "auto"],
        help="bag storage layout: 'columnar' (contiguous buffers + "
        "vectorised kernels), 'row' (frozenset-of-tuples), or 'auto' "
        "(columnar when a plan touches a relation estimated at "
        "COLUMNAR_MIN_ROWS rows or more); default: $REPRO_LAYOUT or auto",
    )
    p.add_argument(
        "--semiring",
        default=None,
        choices=["count", "mincost", "provenance", "prob"],
        help="annotated evaluation: 'count' (derivation counts), "
        "'mincost' (cheapest witness per answer, fact weights as costs), "
        "'provenance' (why-provenance witness sets), 'prob' (answer "
        "probabilities over a tuple-independent database)",
    )
    p.add_argument(
        "--strategy", default="auto", choices=["exact", "heuristic", "auto"]
    )
    p.add_argument("--stats", action="store_true")
    _add_observability_options(p)
    _add_flight_options(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("explain", help="render the engine's physical plan")
    p.add_argument("query")
    p.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional facts file for cardinality estimates",
    )
    p.add_argument(
        "--strategy", default="auto", choices=["exact", "heuristic", "auto"]
    )
    p.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query once under a tracer and annotate the "
        "plan with actual per-node row counts and wall times (needs "
        "FACTS)",
    )
    p.add_argument(
        "--layout",
        default=None,
        choices=["row", "columnar", "auto"],
        help="bag storage layout for the plan; default: $REPRO_LAYOUT "
        "or auto",
    )
    p.add_argument(
        "--semiring",
        default=None,
        choices=["count", "mincost", "provenance", "prob"],
        help="explain the plan of an annotated request (see 'run "
        "--semiring'): a semiring whose values ride weight columns "
        "follows --layout, the others compile row plans",
    )
    _add_observability_options(p)
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "watch", help="maintain a live view under an update stream"
    )
    p.add_argument("query", help="rule text or a file containing it")
    p.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional initial facts file (default: start empty)",
    )
    p.add_argument(
        "--deltas",
        default="-",
        help="file of signed ground atoms, one per line "
        "('+e(1,2).' inserts, '-e(1,2).' deletes); '-' reads stdin",
    )
    p.add_argument(
        "--strategy", default="auto", choices=["exact", "heuristic", "auto"]
    )
    p.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="fan updates out to touched views over this many workers",
    )
    p.add_argument("--stats", action="store_true")
    _add_observability_options(p)
    _add_flight_options(p)
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "stats",
        help="validate/summarise a trace, metrics, or flight-dump file, "
        "or render the live metrics registry",
    )
    p.add_argument(
        "file",
        nargs="?",
        default=None,
        help="a --trace output (trace-event array), --metrics output "
        "(snapshot dict), or flight-recorder dump; omitted = the "
        "current process's registry (or ring, with --flight)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable JSON output (CI gates assert on fields "
        "instead of grepping rendered text)",
    )
    p.add_argument(
        "--flight",
        action="store_true",
        help="inspect the flight recorder: render FILE as a flight dump "
        "(auto-detected anyway), or without FILE the live process ring",
    )
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "bench",
        help="the perf-regression observatory: record unified benchmark "
        "runs and diff them against a baseline",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    pb = bench_sub.add_parser(
        "record",
        help="merge bench_*.py JSON emissions into one run document "
        "(schema + env fingerprint + suite-tagged records)",
    )
    pb.add_argument(
        "inputs", nargs="+", help="benchmark emissions (BENCH_*.json)"
    )
    pb.add_argument(
        "--out", required=True, metavar="PATH", help="run document output"
    )
    pb.set_defaults(fn=_cmd_bench_record)
    pb = bench_sub.add_parser(
        "diff",
        help="compare a recorded run against a baseline run; exits 1 "
        "when any metric regressed beyond its noise tolerance",
    )
    pb.add_argument("baseline", help="baseline run document")
    pb.add_argument("current", help="current run document")
    pb.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="default relative tolerance for records without their own "
        "(default 0.25)",
    )
    pb.add_argument(
        "--all-metrics",
        action="store_true",
        dest="all_metrics",
        help="compare wall-clock metrics even across differing "
        "environment fingerprints",
    )
    pb.add_argument(
        "--json", action="store_true", help="machine-readable diff output"
    )
    pb.set_defaults(fn=_cmd_bench_diff)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant query server (newline-delimited JSON "
        "over TCP: per-tenant databases/budgets/rate limits over one "
        "shared plan cache, admission control, push subscriptions)",
    )
    p.add_argument(
        "facts",
        nargs="?",
        default=None,
        help="optional facts file preloaded into every new tenant",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7407,
        help="TCP port (0 picks an ephemeral one; default 7407)",
    )
    p.add_argument(
        "--max-inflight", type=int, default=8, dest="max_inflight",
        help="concurrent executing requests (the worker-pool width)",
    )
    p.add_argument(
        "--max-queue", type=int, default=64, dest="max_queue",
        help="requests allowed to wait for a slot; past this, shed",
    )
    p.add_argument(
        "--max-estimated-rows", type=float, default=None,
        dest="max_estimated_rows",
        help="admission cost gate: reject queries whose estimated input "
        "volume exceeds this many rows",
    )
    p.add_argument(
        "--budget", type=float, default=None,
        help="default per-request execution budget in seconds",
    )
    p.add_argument(
        "--tenant-budget", type=float, default=None, dest="tenant_budget",
        help="cumulative execution-seconds quota per tenant",
    )
    p.add_argument(
        "--rate", type=float, default=None,
        help="per-tenant token-bucket rate (requests/second)",
    )
    p.add_argument(
        "--burst", type=float, default=None,
        help="token-bucket burst depth (default: max(1, rate))",
    )
    p.add_argument(
        "--strategy", default="auto", choices=["exact", "heuristic", "auto"]
    )
    _add_flight_options(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="generate open/closed-loop load against a running server "
        "and report p50/p95/p99 latency, throughput, and typed outcome "
        "counts (shed / rate-limited / budget)",
    )
    p.add_argument(
        "queries", nargs="+", help="rule texts or files containing them"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7407)
    p.add_argument("--tenant", default="loadgen")
    p.add_argument(
        "--facts", default=None,
        help="facts file loaded into the tenant before the run",
    )
    p.add_argument(
        "--mode", default="closed", choices=["closed", "open"],
        help="closed: each worker fires on completion; open: fixed-rate "
        "arrivals, latency measured from scheduled arrival time",
    )
    p.add_argument(
        "--workers", type=int, default=4,
        help="closed-loop workers / open-loop connection pool size",
    )
    p.add_argument(
        "--requests", type=int, default=25,
        help="closed loop: requests per worker",
    )
    p.add_argument(
        "--rate", type=float, default=50.0,
        help="open loop: arrivals per second",
    )
    p.add_argument(
        "--duration", type=float, default=2.0,
        help="open loop: seconds of arrivals",
    )
    p.add_argument(
        "--budget-ms", type=float, default=None, dest="budget_ms",
        help="per-request execution budget forwarded to the server",
    )
    p.add_argument(
        "--queue-timeout-ms", type=float, default=None,
        dest="queue_timeout_ms",
        help="shed requests that wait longer than this for a slot",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the latency histogram as JSON to PATH",
    )
    p.add_argument("--json", action="store_true", help="JSON summary")
    p.add_argument(
        "--assert-p99-ms", type=float, default=None, dest="assert_p99_ms",
        help="exit 1 unless p99 latency is at or under this (CI gate)",
    )
    p.add_argument(
        "--assert-no-shed", action="store_true", dest="assert_no_shed",
        help="exit 1 if any request was shed (CI gate for low load)",
    )
    p.add_argument(
        "--assert-no-errors", action="store_true", dest="assert_no_errors",
        help="exit 1 on any non-typed request error",
    )
    p.set_defaults(fn=_cmd_loadgen)

    p = sub.add_parser("contains", help="decide Q1 ⊑ Q2")
    p.add_argument("q2", help="the containing query Q2")
    p.add_argument("q1", help="the contained query Q1")
    p.add_argument(
        "--method",
        default="decomposition",
        choices=["decomposition", "naive", "backtracking"],
    )
    p.set_defaults(fn=_cmd_contains)

    p = sub.add_parser("experiments", help="run reproduction experiments")
    p.add_argument("ids", nargs="*", help="experiment ids, or 'all'")
    p.set_defaults(fn=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream closed the pipe (| head, a pager quit): exit
        # quietly like cat does.  Redirect stdout to devnull first so
        # the interpreter's shutdown flush doesn't raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UnknownRelationError, UnknownAttributeError) as error:
        # A typo'd relation/attribute name is a user-input problem, not a
        # malformed invocation: readable one-liner, exit 1, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
