"""Backend benchmark: sequential vs thread vs process execution.

Measures the two Yannakakis phases on 10k-row acyclic workloads (the
ISSUE acceptance scale) across the three execution backends of
:mod:`repro.db.backend`:

* ``sequential`` — the plain kernel (:mod:`repro.db.yannakakis`), no
  sharding at all;
* ``thread@w`` — the sharded kernel over a ``w``-thread pool.  GIL-bound:
  it banks per-operator constants, not cores;
* ``process@w`` — the sharded kernel over ``w`` worker processes with
  resident shards: rows cross the process boundary at scatter and gather
  only, every intermediate stays in the workers.

Two workload classes, because they answer different questions:

* **sparse** (domain = rows, as in ``bench_parallel.py``) — semijoins
  filter ~40% and joins stay thin.  Per-operator compute here is a
  millisecond or two, the same order as one scatter, so the process
  backend roughly breaks even: this is the scatter-cost caveat the
  README documents, reported honestly rather than hidden.
* **fan-out** (domain = rows/10, single-variable head) — every join key
  matches ~10 partner rows, so the join pass builds ~100k-row
  intermediates that are pure CPU.  Resident shards keep all of that in
  the workers; this is the CPU-bound workload where multicore pays, and
  the headline acceptance gate: ``process@4`` at least **2x** faster
  than ``thread@4`` on the semijoin+join (enumerate) phase.

Correctness is a hard gate: every backend must produce identical answers
before any time is reported.  ``cpu_count`` rides in the JSON — on a
single-core runner the process numbers measure IPC overhead, not
scaling, which is why the speedup smoke skips below 4 cores.

Usage::

    PYTHONPATH=src python benchmarks/bench_backends.py \
        --rows 10000 --out BENCH_backends.json

Also collectable by pytest (equivalence smoke at reduced scale always;
the 2x gate on machines with >= 4 cores).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pytest

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db import (
    ProcessBackend,
    SequentialBackend,
    ThreadBackend,
    bind_atom,
    enumerate_answers,
    full_reduce,
    shard_relations,
)
from repro.generators.families import path_query
from repro.generators.workloads import random_database
from repro.obs.history import record

WORKERS = 4

#: Suite tag for the unified bench-record schema (repro bench record/diff).
SUITE = "backends"


def star_query(n: int) -> ConjunctiveQuery:
    body = tuple(
        Atom("e", (Variable("C"), Variable(f"X{i}"))) for i in range(1, n + 1)
    )
    return ConjunctiveQuery(body, (), f"star_{n}")


def _workloads(rows: int, seed: int):
    """(name, query, db, cpu_bound) tuples at the requested scale."""
    for query in (path_query(3), star_query(5)):
        head = tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        query = query.with_head(head)
        db = random_database(query, rows, rows, seed=seed)
        yield f"{query.name}_sparse", query, db, False
    # Fan-out: domain 20x smaller than rows => ~20 join partners per
    # key.  One output variable keeps the answer small while the join
    # intermediates (which stay worker-resident) are ~20x the input —
    # the genuinely CPU-bound regime where multicore scaling shows.
    query = path_query(3)
    head = (sorted(query.variables, key=lambda v: v.name)[0],)
    query = query.with_head(head)
    db = random_database(query, max(2, rows // 20), rows, seed=seed)
    yield f"{query.name}_fanout", query, db, True


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


def run_benchmark(
    rows: int = 10_000, repeats: int = 3, seed: int = 0, workers: int = WORKERS
) -> dict:
    """One full comparison run; returns the JSON-ready result dict."""
    backends = {
        "thread": ThreadBackend(workers=workers),
        "process": ProcessBackend(workers=workers),
    }
    try:
        workloads = []
        for name, query, db, cpu_bound in _workloads(rows, seed):
            tree = join_tree(query)
            output = tuple(v.name for v in query.head_terms)

            def bind():
                return {a: bind_atom(a, db) for a in query.atoms}

            reduce_times: dict[str, float] = {}
            enum_times: dict[str, float] = {}

            t, seq_reduced = _best_of(
                lambda rels: full_reduce(tree, rels), bind, repeats
            )
            reduce_times["sequential"] = t
            t, seq_answers = _best_of(
                lambda rels: enumerate_answers(tree, rels, output),
                bind,
                repeats,
            )
            enum_times["sequential"] = t

            counts = dict.fromkeys(tree.nodes, workers)
            for kind, ctx in backends.items():
                # Cutting (and, for processes, scattering) the relations
                # is part of what is timed.
                t, par_reduced = _best_of(
                    lambda rels: full_reduce(
                        tree, shard_relations(tree, rels, counts, ctx)
                    ),
                    bind,
                    repeats,
                )
                reduce_times[kind] = t
                t, par_answers = _best_of(
                    lambda rels: enumerate_answers(
                        tree, shard_relations(tree, rels, counts, ctx), output
                    ),
                    bind,
                    repeats,
                )
                enum_times[kind] = t
                # Hard correctness gates before any number is reported.
                for node in tree.nodes:
                    assert par_reduced[node].rows == seq_reduced[node].rows
                assert par_answers.rows == seq_answers.rows

            workloads.append(
                {
                    "workload": name,
                    "cpu_bound": cpu_bound,
                    "answers": len(seq_answers),
                    "full_reduce_seconds": {
                        k: round(v, 6) for k, v in reduce_times.items()
                    },
                    "enumerate_seconds": {
                        k: round(v, 6) for k, v in enum_times.items()
                    },
                    "process_vs_thread": {
                        "full_reduce": round(
                            reduce_times["thread"] / reduce_times["process"], 2
                        ),
                        "enumerate": round(
                            enum_times["thread"] / enum_times["process"], 2
                        ),
                    },
                    "thread_vs_sequential": {
                        "full_reduce": round(
                            reduce_times["sequential"] / reduce_times["thread"],
                            2,
                        ),
                        "enumerate": round(
                            enum_times["sequential"] / enum_times["thread"], 2
                        ),
                    },
                }
            )
    finally:
        for ctx in backends.values():
            ctx.close()

    cpu_bound_speedups = {
        w["workload"]: w["process_vs_thread"]["enumerate"]
        for w in workloads
        if w["cpu_bound"]
    }
    records = [
        record(f"answers.{w['workload']}", w["answers"], "rows",
               better="higher", tolerance=0.0)
        for w in workloads
    ]
    records.append(
        record("best_process_vs_thread_cpu_bound",
               max(cpu_bound_speedups.values()), "x",
               better="higher", tolerance=1.0)
    )
    return {
        "suite": SUITE,
        "records": records,
        "benchmark": "execution_backends_sequential_thread_process",
        "rows": rows,
        "repeats": repeats,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        # The acceptance gate: the process backend's multicore win on
        # the CPU-bound (fan-out join) workload's semijoin+join phase.
        "process_vs_thread_cpu_bound": cpu_bound_speedups,
        "best_process_vs_thread_cpu_bound": max(cpu_bound_speedups.values()),
        "note": (
            "sparse workloads have per-operator compute of the same order "
            "as one scatter, so the process backend breaks roughly even "
            "there (the scatter-cost caveat); the fan-out workload is "
            "CPU-bound and shows the resident-shard multicore win.  With "
            "cpu_count < workers the process numbers measure IPC "
            "overhead, not scaling."
        ),
    }


def test_bench_backends_equivalence_smoke(bench_seed):
    """Always-run smoke: every backend agrees on every workload (the
    asserts live inside run_benchmark) at a scale quick enough for any
    runner.  No timing claims at this size."""
    result = run_benchmark(rows=1_500, repeats=1, workers=3, seed=bench_seed)
    assert result["workloads"], result
    assert result["suite"] == SUITE and result["records"]


def test_bench_backends_speedup_smoke(bench_seed):
    """The ISSUE acceptance gate at full scale: the 4-worker process
    backend at least 2x faster than the thread backend on the CPU-bound
    10k-row semijoin/join workload.  Needs real cores — on fewer than 4
    the process pool time-slices one core and only measures IPC tax, so
    the gate is skipped (CI runners provide 4)."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("process-backend scaling needs >= 4 cores")
    result = run_benchmark(rows=10_000, repeats=3, seed=bench_seed)
    assert result["best_process_vs_thread_cpu_bound"] >= 2.0, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument("--out", default="BENCH_backends.json")
    args = parser.parse_args(argv)

    result = run_benchmark(
        rows=args.rows, repeats=args.repeats, seed=args.seed,
        workers=args.workers,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(
        f"\nprocess@{args.workers} vs thread@{args.workers} on the "
        f"CPU-bound {result['rows']}-row workloads (enumerate phase): "
        f"{result['process_vs_thread_cpu_bound']}; wrote {args.out}"
    )
    # Correctness gates are the asserts inside run_benchmark; the
    # speedup threshold only warns here so a noisy or small runner
    # cannot turn a scheduling hiccup into a red build (pytest asserts
    # it on capable machines).
    if (
        (os.cpu_count() or 1) >= 4
        and result["best_process_vs_thread_cpu_bound"] < 2.0
    ):
        print(
            "WARNING: process backend below 2x over threads on the "
            "CPU-bound workload",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
