"""Semiring benchmark: annotated evaluation vs its set-semantics detours.

Three comparisons on a seeded path workload.  The first two answer
"what does asking the engine directly buy over computing the same thing
from set semantics by hand?":

* **count vs materialise-then-len** — ``Engine.count`` (one annotated
  evaluation folding ℕ multiplicities) against executing under set
  semantics and taking ``len()`` of the answer relation.  The two agree
  exactly when the head keeps every variable; with a projecting head the
  count is the bag total that materialise-then-len *cannot* see.
* **top-k vs enumerate-then-sort** — ``Engine.top_k`` (tropical
  evaluation + a k-smallest heap cut) against annotating every answer
  with its min-cost and fully sorting.

The third compares the two carriers of a count:

* **count sweep, columnar vs row** — the same ``count`` request under
  ``layout="columnar"`` (weights as one more column buffer, the
  vectorised sweeps) and ``layout="row"`` (``AnnotatedRelation``'s
  per-row dicts).  Without numpy a count plan compiles row under either
  layout, so the ratio is only recorded — and its 2x gate only asserted
  — when numpy imports; the answer-row and total counts are exact
  records either way.

Correctness is a hard gate before any time is reported: the annotated
answer rows equal the set-semantics rows, the count total equals the
fold of the per-row annotations, and the top-k list is exactly the
first k of the full sort.

Usage::

    PYTHONPATH=src python benchmarks/bench_semiring.py \
        --rows 2000 --k 10 --seed 0 --out BENCH_semiring.json

Also collectable by pytest (same asserts at a smaller smoke scale)::

    PYTHONPATH=src python -m pytest benchmarks/bench_semiring.py -q
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.db.columnar import rides_buffers
from repro.db.database import Database
from repro.db.semiring import COUNTING
from repro.engine import Engine
from repro.generators.families import path_query
from repro.generators.workloads import assign_weights
from repro.obs.history import record

#: Suite tag for the unified bench-record schema (repro bench record/diff).
SUITE = "semiring"

#: Minimum columnar-over-row speedup of the count sweep (numpy only).
COUNT_SWEEP_GATE = 2.0


def _query():
    q = path_query(3)
    head = tuple(sorted(q.variables, key=lambda v: v.name)[:2])
    return q.with_head(head)


def _database(n_rows: int, seed: int = 0) -> Database:
    """Overlapping chains, average out-degree ~1 (the incremental
    benchmark's shape): answers stay linear in the database so the
    timings measure evaluation, not output explosion."""
    rng = random.Random(seed)
    domain = max(64, n_rows)
    db = Database()
    while db.tuple_count() < n_rows:
        a = rng.randrange(domain)
        db.add_fact("e", a, (a + rng.randrange(1, 4)) % domain)
    assign_weights(db, kind="cost", skew=0.3, seed=seed)
    return db


def _best_of(fn, repeats: int):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def count_sweep(query, db, repeats: int) -> dict:
    """The count request under both layouts: exact agreement first,
    then best-of timings on warm plan caches and warm snapshots."""
    seconds, answers = {}, {}
    for layout in ("row", "columnar"):
        with Engine(backend="sequential", layout=layout) as engine:
            engine.execute(query, db, semiring="count")
            seconds[layout], result = _best_of(
                lambda: engine.execute(query, db, semiring="count"), repeats
            )
            answers[layout] = dict(result.annotations)
    assert answers["columnar"] == answers["row"]
    vectorised = rides_buffers(COUNTING)
    records = [
        record("count_sweep.answers", len(answers["row"]), "rows",
               better="higher", tolerance=0.0),
        record("count_sweep.total", sum(answers["row"].values()), "count",
               better="higher", tolerance=0.0),
    ]
    speedup = round(seconds["row"] / seconds["columnar"], 2)
    if vectorised:
        records.append(
            record("count_sweep.columnar_vs_row", speedup, "x",
                   better="higher", tolerance=0.75)
        )
    return {
        "records": records,
        "vectorised": vectorised,
        "speedup": speedup,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
    }


def run_benchmark(
    n_rows: int = 2_000, repeats: int = 3, k: int = 10, seed: int = 0
) -> dict:
    """One full comparison; returns the JSON-ready dict."""
    query = _query()
    db = _database(n_rows, seed)
    sweep = count_sweep(query, db, repeats)
    engine = Engine(backend="sequential")
    try:
        # Warm the plan cache for every tag so the timings compare
        # evaluation, not decomposition (promotion makes this one search).
        engine.execute(query, db)
        engine.execute(query, db, semiring="count")
        engine.execute(query, db, semiring="mincost")

        set_seconds, set_result = _best_of(
            lambda: engine.execute(query, db), repeats
        )
        len_answers = len(set_result.answer)
        count_seconds, counted = _best_of(
            lambda: engine.execute(query, db, semiring="count"), repeats
        )
        total = counted.answer.total()

        # Hard gates: same rows, and the total is the per-row fold.
        assert counted.answer.rows == set_result.answer.rows
        assert total == sum(counted.annotations.values())
        assert total >= len_answers

        sort_seconds, full_sort = _best_of(
            lambda: sorted(
                engine.execute(
                    query, db, semiring="mincost"
                ).annotations.items(),
                key=lambda item: (item[1][0], repr(item[0])),
            ),
            repeats,
        )
        topk_seconds, top = _best_of(
            lambda: engine.top_k(query, db, k=k), repeats
        )
        assert [(row, cost) for row, cost, _ in top] == [
            (row, value[0]) for row, value in full_sort[:k]
        ]

        count_vs_len = round(count_seconds / set_seconds, 3)
        topk_vs_sort = round(topk_seconds / sort_seconds, 3)
        promotions = engine.cache.snapshot()["promotions"]
    finally:
        engine.close()

    return {
        "suite": SUITE,
        "records": [
            record("answers.path_3", len_answers, "rows", better="higher",
                   tolerance=0.0),
            record("count_total.path_3", total, "count", better="higher",
                   tolerance=0.0),
            record("count_vs_len.path_3", count_vs_len, "x",
                   better="lower", tolerance=0.75),
            record("topk_vs_sort.path_3", topk_vs_sort, "x",
                   better="lower", tolerance=0.75),
            *sweep["records"],
        ],
        "benchmark": "semiring_vs_set_semantics_detours",
        "rows": n_rows,
        "repeats": repeats,
        "k": k,
        "seed": seed,
        "answers": len_answers,
        "count_total": total,
        "seconds": {
            "set_execute": round(set_seconds, 6),
            "count_execute": round(count_seconds, 6),
            "mincost_sort": round(sort_seconds, 6),
            "top_k": round(topk_seconds, 6),
        },
        "count_vs_len": count_vs_len,
        "topk_vs_sort": topk_vs_sort,
        "count_sweep": {
            key: sweep[key] for key in ("vectorised", "speedup", "seconds")
        },
        "cache_promotions": promotions,
        "note": (
            "count_vs_len is annotated-count time over set-execute+len "
            "time (the annotated pass does strictly more work: it folds "
            "bag multiplicities set semantics discards).  topk_vs_sort "
            "is Engine.top_k time over mincost-evaluate+full-sort time."
        ),
    }


def test_bench_semiring_smoke(bench_seed):
    """Pytest gate: annotated rows == set rows, the ℕ total folds the
    annotations, top-k is the sorted prefix, and the plan cache shares
    the one decomposition across tags via promotion."""
    result = run_benchmark(n_rows=500, repeats=2, k=5, seed=bench_seed)
    assert result["count_total"] >= result["answers"] > 0
    assert result["cache_promotions"] >= 2
    assert result["suite"] == SUITE and result["records"]


def test_count_sweep_gate(bench_seed):
    """Both layouts return the same counts; with numpy the weight-column
    sweep beats the per-row dicts by the gate."""
    sweep = count_sweep(_query(), _database(4_000, bench_seed), repeats=3)
    assert sweep["records"][0]["value"] > 0
    if sweep["vectorised"]:
        assert sweep["speedup"] >= COUNT_SWEEP_GATE, sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_semiring.json")
    args = parser.parse_args(argv)
    result = run_benchmark(
        n_rows=args.rows, repeats=args.repeats, k=args.k, seed=args.seed
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    print(json.dumps(result, indent=2))
    print(f"\nwritten to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
