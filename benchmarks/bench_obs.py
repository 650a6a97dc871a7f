"""Observability overhead gate: tracing must be free when it is off.

The instrumented kernels (:mod:`repro.db.yannakakis`, the backends)
call ``current_tracer().span()``
on every semijoin/join/shard operator.  When tracing is disabled that
call hits :class:`repro.obs.tracer.NullTracer` — one method call and an
empty ``with`` block.  This benchmark pins down what that costs:

* **disabled vs seed** — today's kernel, instrumentation included but
  tracing off, against the frozen pre-fix seed kernel from
  :mod:`bench_parallel`.  The gate: the disabled-tracing kernel stays
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

from bench_parallel import (
    _best_of,
    _workloads,
    seed_enumerate,
    seed_full_reduce,
)

from repro.core.acyclicity import join_tree
from repro.db import bind_atom, enumerate_answers, full_reduce
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
