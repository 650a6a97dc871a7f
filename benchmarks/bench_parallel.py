"""Parallel-kernel benchmark: sharded evaluation vs the seed kernel.

Measures the two Yannakakis phases separately on large acyclic workloads
(10k rows per relation by default — the ISSUE acceptance scale) built
from :mod:`repro.generators.workloads`:

* **full reduce** — the semijoin sweeps, the paper's tractability
  workhorse (Theorem 4.8 / Corollary 5.20 assume they stay cheap);
* **enumerate** — the output-polynomial join pass on top.

Three kernels run on identical freshly bound relations:

* ``seed`` — a faithful, frozen copy of the pre-fix sequential kernel,
  kept here as the baseline: it rebuilt every semijoin key set and every
  join hash table on each call, per-row generator tuples included;
* ``sequential`` — today's :mod:`repro.db.yannakakis` over memoised
  :class:`~repro.db.relation.Relation` indexes;
* ``parallel@w`` — the same driver over relations cut into ``w`` hash
  partitions (:func:`repro.db.shard_relations`) on a ``w``-thread
  backend.

Correctness is a hard gate: every kernel must produce identical results
before any time is reported.  The headline number — asserted ≥ 2x by the
pytest smoke — is the 4-worker sharded kernel against the seed kernel on
the semijoin phase.  Note that per-operator wins (memoised indexes,
short-circuits, partition-wise probes) are what a GIL-bound CPython can
bank; thread-level scaling across the shard tasks additionally needs
free cores and a GIL-releasing runtime — the process-pool backend in
ROADMAP's open items.  ``cpu_count`` rides in the JSON so readers can
interpret the sweep.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py \
        --rows 10000 --out BENCH_parallel.json

Also collectable by pytest (same asserts, same default scale).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db import (
    ThreadBackend,
    bind_atom,
    enumerate_answers,
    full_reduce,
    shard_relations,
)
from repro.db.relation import Relation
from repro.generators.families import path_query
from repro.generators.workloads import random_database
from repro.obs.history import record

WORKER_SWEEP = (1, 2, 4)

#: Suite tag for the unified bench-record schema (repro bench record/diff).
SUITE = "parallel"


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


def run_benchmark(
    rows: int = 10_000, repeats: int = 5, seed: int = 0
) -> dict:
    """One full comparison run; returns the JSON-ready result dict."""
    workloads = []
    for name, query, db in _workloads(rows, seed):
        tree = join_tree(query)
        output = tuple(v.name for v in query.head_terms)

        def bind():
            return {a: bind_atom(a, db) for a in query.atoms}

        reduce_times: dict[str, float] = {}
        enum_times: dict[str, float] = {}

        t, seed_reduced = _best_of(
            lambda rels: seed_full_reduce(tree, rels), bind, repeats
        )
        reduce_times["seed"] = t
        t, seq_reduced = _best_of(
            lambda rels: full_reduce(tree, rels), bind, repeats
        )
        reduce_times["sequential"] = t
        t, seed_answers = _best_of(
            lambda rels: seed_enumerate(tree, rels, output), bind, repeats
        )
        enum_times["seed"] = t
        t, seq_answers = _best_of(
            lambda rels: enumerate_answers(tree, rels, output), bind, repeats
        )
        enum_times["sequential"] = t

        # Hard correctness gates before any number is reported.
        for node in tree.nodes:
            assert seed_reduced[node].rows == seq_reduced[node].rows
        assert seed_answers.rows == seq_answers.rows

        for workers in WORKER_SWEEP:
            counts = dict.fromkeys(tree.nodes, workers)
            with ThreadBackend(workers=workers) as ctx:
                # Cutting the relations is part of what is timed.
                t, par_reduced = _best_of(
                    lambda rels: full_reduce(
                        tree, shard_relations(tree, rels, counts, ctx)
                    ),
                    bind,
                    repeats,
                )
                reduce_times[f"parallel@{workers}"] = t
                t, par_answers = _best_of(
                    lambda rels: enumerate_answers(
                        tree, shard_relations(tree, rels, counts, ctx), output
                    ),
                    bind,
                    repeats,
                )
                enum_times[f"parallel@{workers}"] = t
            for node in tree.nodes:
                assert par_reduced[node].rows == seq_reduced[node].rows
            assert par_answers.rows == seq_answers.rows

        workloads.append(
            {
                "workload": name,
                "answers": len(seq_answers),
                "full_reduce_seconds": {
                    k: round(v, 6) for k, v in reduce_times.items()
                },
                "enumerate_seconds": {
                    k: round(v, 6) for k, v in enum_times.items()
                },
                "full_reduce_speedup_vs_seed": {
                    k: round(reduce_times["seed"] / v, 2)
                    for k, v in reduce_times.items()
                    if k != "seed"
                },
                "enumerate_speedup_vs_seed": {
                    k: round(enum_times["seed"] / v, 2)
                    for k, v in enum_times.items()
                    if k != "seed"
                },
            }
        )

    by_workload = {
        w["workload"]: w["full_reduce_speedup_vs_seed"]["parallel@4"]
        for w in workloads
    }
    # Unified schema: answer counts are exact under the seeded workload;
    # speedups are env-bound (they depend on cores) and loosely bounded.
    records = [
        record(f"answers.{w['workload']}", w["answers"], "rows",
               better="higher", tolerance=0.0)
        for w in workloads
    ]
    records.extend(
        record(f"speedup_seq_full_reduce.{w['workload']}",
               w["full_reduce_speedup_vs_seed"]["sequential"], "x",
               better="higher", tolerance=0.75)
        for w in workloads
    )
    records.append(
        record("best_speedup_at_4_workers", max(by_workload.values()), "x",
               better="higher", tolerance=0.75)
    )
    return {
        "suite": SUITE,
        "records": records,
        "benchmark": "parallel_sharded_kernel_vs_seed_kernel",
        "rows": rows,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        "speedup_at_4_workers_by_workload": by_workload,
        # The acceptance criterion asks for >= 2x on *a* 10k-row acyclic
        # workload; the headline is therefore the best workload — the
        # per-workload map above is the representative picture.
        "best_speedup_at_4_workers": max(by_workload.values()),
        "note": (
            "speedups are per-operator kernel gains (memoised indexes, "
            "short-circuits, partition-wise probes) over the pre-fix seed "
            "kernel; thread-level scaling of the shard tasks additionally "
            "requires free cores and a GIL-releasing runtime (see ROADMAP "
            "open items: process-pool backend)"
        ),
    }


def test_bench_parallel_smoke(bench_seed):
    """Pytest smoke: the ISSUE acceptance gate at full scale — the
    4-worker sharded kernel at least 2x over the seed sequential kernel
    on a 10k-row acyclic workload (and every kernel agreeing exactly,
    asserted inside run_benchmark).  Secondary thresholds are loose
    canaries, not performance claims: best-of-N timing keeps them
    stable, but a loaded CI runner still jitters, so they only catch
    outright regressions (the parallel path falling clearly behind the
    unoptimised seed kernel)."""
    result = run_benchmark(rows=10_000, repeats=5, seed=bench_seed)
    assert result["suite"] == SUITE and result["records"]
    assert result["best_speedup_at_4_workers"] >= 2.0, result
    for w in result["workloads"]:
        assert w["enumerate_speedup_vs_seed"]["parallel@4"] >= 0.8, w
        assert w["full_reduce_speedup_vs_seed"]["sequential"] >= 1.3, w


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=10_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args(argv)

    result = run_benchmark(
        rows=args.rows, repeats=args.repeats, seed=args.seed
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(
        f"\nsharded kernel @ 4 workers vs seed sequential kernel on "
        f"{result['rows']}-row workloads: "
        f"{result['speedup_at_4_workers_by_workload']} "
        f"(semijoin phase, best {result['best_speedup_at_4_workers']}x); "
        f"wrote {args.out}"
    )
    # Correctness gates are the asserts inside run_benchmark; the
    # speedup threshold only warns here so a noisy runner cannot turn a
    # scheduling hiccup into a red build (pytest asserts it at the
    # controlled smoke scale).
    if result["best_speedup_at_4_workers"] < 2.0:
        print(
            "WARNING: 4-worker speedup over the seed kernel below 2x",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
