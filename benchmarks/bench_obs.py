"""Observability overhead gate: tracing must be free when it is off.

The instrumented kernels (:mod:`repro.db.yannakakis`) call
``current_tracer().span()`` on every semijoin/join operator.  When
tracing is disabled that
call hits :class:`repro.obs.tracer.NullTracer` — one method call and an
empty ``with`` block.  This benchmark pins down what that costs:

* **disabled vs seed** — today's kernel, instrumentation included but
  tracing off, against a frozen copy of the pre-fix seed kernel kept
  below.  The gate: the disabled-tracing kernel stays
  comfortably *faster* than the seed baseline (no-op instrumentation
  must not eat the optimisation win) — asserted at ≤ 5% of the seed
  kernel's time budget, i.e. ``disabled ≤ 1.05 × seed`` per phase, far
  above what the instrumented kernel actually needs.  Since the
  semiring refactor this "disabled" side runs the *generic* operators
  (``semiring=None`` set-semantics specialisation), so the same gate
  doubles as the semiring zero-overhead gate: set-semantics evaluation
  through the generic operator vocabulary must stay within 1.05× of
  the frozen pre-refactor kernel.
* **enabled vs disabled** — the same kernel under a live
  :class:`~repro.obs.Tracer`, reported (not gated: span recording is
  per-operator, so it is cheap, but it is honest work).
* **profiled vs unprofiled** — the same kernel with the background
  sampling profiler running at its default rate (99 Hz), measured
  interleaved (unprofiled/profiled alternating per repeat) so machine
  drift cancels.  Gated in aggregate: total profiled wall time ≤ 1.05 ×
  total unprofiled wall time, i.e. always-on profiling costs at most
  5%.  When profiling is off, no sampler thread may exist at all
  (asserted by thread name).
* **null-span microbenchmark** — ns per ``with tracer.span(...)`` for
  the null and live tracers, the number the "zero overhead when off"
  claim rests on.

Correctness is a hard gate before any time is reported: every run
(seed, disabled, enabled, unprofiled, profiled) must produce
byte-identical answer rows.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_obs.json

Also collectable by pytest (same asserts, same default scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db import bind_atom, enumerate_answers, full_reduce
from repro.db.relation import Relation
from repro.generators.families import path_query
from repro.generators.workloads import random_database
from repro.obs import (
    NULL_PROFILER,
    NULL_TRACER,
    SamplingProfiler,
    Tracer,
    current_profiler,
    current_tracer,
    profiling,
    tracing,
)
from repro.obs.history import record

#: Suite tag for the unified bench-record schema (repro bench record/diff).
SUITE = "obs"

#: The gate: with tracing disabled, the instrumented kernel must use at
#: most this fraction of the frozen seed kernel's wall time.  The
#: current kernel runs well below 1.0 (it is the optimised one); 1.05
#: means "instrumentation may cost at most 5% of the seed budget".
#: The current kernel is also the semiring-generic one, so this gate
#: simultaneously bounds the generic-operator overhead for set
#: semantics at 1.05× the pre-refactor kernel.
DISABLED_BUDGET_VS_SEED = 1.05

#: The profiler gate: with the sampler running at its default rate the
#: kernel may spend at most 5% more aggregate wall time than unprofiled.
PROFILED_BUDGET_VS_UNPROFILED = 1.05


# -- the seed kernel, preserved verbatim as the baseline -------------------
#
# This is the sequential kernel as it stood before the hot-path fixes:
# `semijoin` rebuilt the probe key set from scratch on every call (one
# tuple allocation per row on both sides), `join` rebuilt its hash table
# per call, and nothing short-circuited on empty inputs.  Do not
# "improve" it — its whole point is to stay the fixed reference.


def _seed_semijoin(rel: Relation, other: Relation) -> Relation:
    shared = [a for a in rel.attributes if a in other._index_of]
    if not shared:
        return rel if other.rows else Relation.trusted(
            rel.attributes, frozenset(), rel.name
        )
    left_pos = [rel._position(a) for a in shared]
    right_pos = [other._position(a) for a in shared]
    keys = {tuple(row[p] for p in right_pos) for row in other.rows}
    rows = frozenset(
        row for row in rel.rows if tuple(row[p] for p in left_pos) in keys
    )
    return Relation.trusted(rel.attributes, rows, rel.name)


def _seed_join(rel: Relation, other: Relation) -> Relation:
    shared = [a for a in rel.attributes if a in other._index_of]
    left_pos = [rel._position(a) for a in shared]
    right_pos = [other._position(a) for a in shared]
    extra = [a for a in other.attributes if a not in rel._index_of]
    extra_pos = [other._position(a) for a in extra]
    if len(rel.rows) <= len(other.rows):
        build, probe = rel, other
        build_key, probe_key, build_is_left = left_pos, right_pos, True
    else:
        build, probe = other, rel
        build_key, probe_key, build_is_left = right_pos, left_pos, False
    table: dict = {}
    for row in build.rows:
        table.setdefault(tuple(row[p] for p in build_key), []).append(row)
    out_rows = set()
    for row in probe.rows:
        key = tuple(row[p] for p in probe_key)
        for match in table.get(key, ()):
            left_row = match if build_is_left else row
            right_row = row if build_is_left else match
            out_rows.add(left_row + tuple(right_row[p] for p in extra_pos))
    return Relation.trusted(
        rel.attributes + tuple(extra), frozenset(out_rows), rel.name
    )


def _seed_project(rel: Relation, attrs, name=None) -> Relation:
    positions = [rel._position(a) for a in attrs]
    rows = frozenset(tuple(row[p] for p in positions) for row in rel.rows)
    return Relation.trusted(tuple(attrs), rows, name or rel.name)


def seed_full_reduce(tree, relations):
    reduced = dict(relations)
    for node in tree.post_order():
        for child in tree.children(node):
            reduced[node] = _seed_semijoin(reduced[node], reduced[child])
    for node in tree.nodes:
        for child in tree.children(node):
            reduced[child] = _seed_semijoin(reduced[child], reduced[node])
    return reduced


def seed_enumerate(tree, relations, output):
    reduced = seed_full_reduce(tree, relations)
    out_set = set(output)
    partial, subtree = {}, {}
    for node in tree.post_order():
        rel = reduced[node]
        attrs_below = set(rel.attributes)
        for child in tree.children(node):
            attrs_below.update(subtree[child])
        keep = set(rel.attributes) | (attrs_below & out_set)
        for child in tree.children(node):
            rel = _seed_join(rel, partial[child])
            rel = _seed_project(rel, [a for a in rel.attributes if a in keep])
        partial[node] = rel
        subtree[node] = attrs_below
    return _seed_project(partial[tree.root], list(output), name="ans")


# -- workloads -------------------------------------------------------------


def star_query(n: int) -> ConjunctiveQuery:
    body = tuple(
        Atom("e", (Variable("C"), Variable(f"X{i}"))) for i in range(1, n + 1)
    )
    return ConjunctiveQuery(body, (), f"star_{n}")


def _workloads(rows: int, seed: int):
    for query in (path_query(3), path_query(5), star_query(5)):
        head = tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        query = query.with_head(head)
        db = random_database(query, rows, rows, seed=seed)
        yield query.name, query, db


def _best_of(fn, bind, repeats: int):
    """Best wall time over *repeats* runs, re-binding fresh relations
    each time so memoisation cannot leak across repeats."""
    best, result = float("inf"), None
    for _ in range(repeats):
        rels = bind()
        started = time.perf_counter()
        result = fn(rels)
        best = min(best, time.perf_counter() - started)
    return best, result


def _sampler_thread_exists() -> bool:
    return any(
        t.name == SamplingProfiler.THREAD_NAME for t in threading.enumerate()
    )


def _span_call_ns(tracer, calls: int = 200_000) -> float:
    """Nanoseconds per ``with tracer.span(...)`` round trip."""
    span = tracer.span  # bind once; the loop measures the call itself
    started = time.perf_counter()
    for _ in range(calls):
        with span("bench"):
            pass
    return (time.perf_counter() - started) / calls * 1e9


def run_benchmark(rows: int = 10_000, repeats: int = 5, seed: int = 0) -> dict:
    """One full overhead comparison; returns the JSON-ready dict."""
    assert not current_tracer().enabled, "benchmark needs tracing off"
    # Profiling off must mean *off*: the no-op profiler installed and no
    # sampler thread alive anywhere in the process.
    assert current_profiler() is NULL_PROFILER, "benchmark needs profiling off"
    assert not _sampler_thread_exists(), "stray sampler thread before run"
    samples_total = 0
    workloads = []
    for name, query, db in _workloads(rows, seed):
        tree = join_tree(query)
        output = tuple(v.name for v in query.head_terms)

        def bind():
            return {a: bind_atom(a, db) for a in query.atoms}

        phases: dict[str, dict[str, float]] = {}
        answers: dict[str, object] = {}

        t, _ = _best_of(
            lambda rels: seed_full_reduce(tree, rels), bind, repeats
        )
        phases["full_reduce"] = {"seed": t}
        t, answers["seed"] = _best_of(
            lambda rels: seed_enumerate(tree, rels, output), bind, repeats
        )
        phases["enumerate"] = {"seed": t}

        t, _ = _best_of(lambda rels: full_reduce(tree, rels), bind, repeats)
        phases["full_reduce"]["disabled"] = t
        t, answers["disabled"] = _best_of(
            lambda rels: enumerate_answers(tree, rels, output), bind, repeats
        )
        phases["enumerate"]["disabled"] = t

        with tracing(Tracer()):
            t, _ = _best_of(
                lambda rels: full_reduce(tree, rels), bind, repeats
            )
            phases["full_reduce"]["enabled"] = t
            t, answers["enabled"] = _best_of(
                lambda rels: enumerate_answers(tree, rels, output),
                bind,
                repeats,
            )
            phases["enumerate"]["enabled"] = t

        # Profiler overhead, measured interleaved: each repeat runs the
        # full pipeline unprofiled then profiled on fresh binds, so
        # machine drift between measurement blocks hits both sides
        # equally and best-of keeps only clean runs of each.
        unprofiled_t = profiled_t = float("inf")
        for _ in range(repeats):
            rels = bind()
            started = time.perf_counter()
            answers["unprofiled"] = enumerate_answers(tree, rels, output)
            unprofiled_t = min(unprofiled_t, time.perf_counter() - started)
            rels = bind()
            with profiling(SamplingProfiler()) as prof:
                assert _sampler_thread_exists(), "sampler should be live"
                started = time.perf_counter()
                answers["profiled"] = enumerate_answers(tree, rels, output)
                profiled_t = min(profiled_t, time.perf_counter() - started)
                samples_total += prof.profile.total()
        assert current_profiler() is NULL_PROFILER
        assert not _sampler_thread_exists(), "sampler thread leaked"
        profiler_seconds = {
            "unprofiled": round(unprofiled_t, 6),
            "profiled": round(profiled_t, 6),
        }

        # Hard gate: tracing/profiling (off or on) never changes a row.
        assert answers["disabled"].rows == answers["seed"].rows
        assert answers["enabled"].rows == answers["seed"].rows
        assert answers["unprofiled"].rows == answers["seed"].rows
        assert answers["profiled"].rows == answers["seed"].rows

        workloads.append(
            {
                "workload": name,
                "answers": len(answers["seed"]),
                "seconds": {
                    phase: {k: round(v, 6) for k, v in times.items()}
                    for phase, times in phases.items()
                },
                "disabled_vs_seed": {
                    phase: round(times["disabled"] / times["seed"], 3)
                    for phase, times in phases.items()
                },
                "enabled_vs_disabled": {
                    phase: round(times["enabled"] / times["disabled"], 3)
                    for phase, times in phases.items()
                },
                "profiler_seconds": profiler_seconds,
                "profiled_vs_unprofiled": round(
                    profiler_seconds["profiled"]
                    / profiler_seconds["unprofiled"],
                    3,
                ),
            }
        )

    worst = max(
        ratio
        for w in workloads
        for ratio in w["disabled_vs_seed"].values()
    )
    # The profiler gate is deliberately aggregate: per-workload best-of
    # times on a loaded runner jitter more than the ~1% a 99 Hz sampler
    # actually costs, so the sum is the stable signal.
    unprofiled_total = sum(
        w["profiler_seconds"]["unprofiled"] for w in workloads
    )
    profiled_total = sum(
        w["profiler_seconds"]["profiled"] for w in workloads
    )
    profiled_vs_unprofiled = round(profiled_total / unprofiled_total, 3)
    null_span_ns = round(_span_call_ns(NULL_TRACER), 1)
    live_span_ns = round(_span_call_ns(Tracer()), 1)
    return {
        "suite": SUITE,
        "records": [
            record("worst_disabled_vs_seed", worst, "x",
                   better="lower", tolerance=0.75),
            record("profiled_vs_unprofiled", profiled_vs_unprofiled, "x",
                   better="lower", tolerance=0.75),
            record("null_span_ns", null_span_ns, "ns",
                   better="lower", tolerance=0.75),
            record("live_span_ns", live_span_ns, "ns",
                   better="lower", tolerance=0.75),
        ],
        "benchmark": "observability_disabled_overhead_gate",
        "rows": rows,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "budget_disabled_vs_seed": DISABLED_BUDGET_VS_SEED,
        "worst_disabled_vs_seed": worst,
        "budget_profiled_vs_unprofiled": PROFILED_BUDGET_VS_UNPROFILED,
        "profiled_vs_unprofiled": profiled_vs_unprofiled,
        "profiler_hz": SamplingProfiler().hz,
        "profiler_samples": samples_total,
        "null_span_ns": null_span_ns,
        "live_span_ns": live_span_ns,
        "workloads": workloads,
        "note": (
            "disabled_vs_seed < 1 means the instrumented kernel (tracing "
            "off) is still faster than the frozen pre-fix seed kernel; "
            "the gate only fails if no-op instrumentation burns more "
            "than 5% of the seed kernel's time budget.  "
            "profiled_vs_unprofiled is aggregate wall time with the 99 Hz "
            "sampler running over aggregate wall time without it."
        ),
    }


def test_bench_obs_smoke(bench_seed):
    """Pytest gate: disabled tracing within the 5%-of-seed budget on
    every workload and phase, the default-rate sampling profiler within
    the 5%-of-unprofiled aggregate budget (with the no-sampler-thread
    and identical-answers asserts inside run_benchmark), and the null
    span staying orders of magnitude below the live span."""
    result = run_benchmark(rows=10_000, repeats=5, seed=bench_seed)
    for w in result["workloads"]:
        for phase, ratio in w["disabled_vs_seed"].items():
            assert ratio <= DISABLED_BUDGET_VS_SEED, (w["workload"], phase, w)
    assert result["profiled_vs_unprofiled"] <= PROFILED_BUDGET_VS_UNPROFILED, result
    assert result["null_span_ns"] < result["live_span_ns"]
    assert result["suite"] == SUITE and result["records"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_obs.json")
    args = parser.parse_args(argv)
    result = run_benchmark(rows=args.rows, repeats=args.repeats, seed=args.seed)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    print(json.dumps(result, indent=2))
    print(f"\nwritten to {args.out}", file=sys.stderr)
    if result["worst_disabled_vs_seed"] > DISABLED_BUDGET_VS_SEED:
        print("FAIL: disabled-tracing overhead above budget", file=sys.stderr)
        return 1
    # The profiler budget is asserted by the pytest smoke at the
    # controlled 10k-row scale; at arbitrary --rows the ratio jitters
    # more than the ~1% the sampler costs, so the CLI only warns.
    if result["profiled_vs_unprofiled"] > PROFILED_BUDGET_VS_UNPROFILED:
        print(
            "WARNING: profiler overhead above budget at this scale",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
