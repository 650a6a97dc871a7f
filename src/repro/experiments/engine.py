"""Experiment E22: amortised throughput of the plan-caching engine.

The serving regime the engine targets: many queries, few structural
shapes.  A workload of renamed variants is pushed through the
:class:`repro.engine.Engine` twice — the cold pass pays one portfolio
decomposition per *shape*, the warm pass none at all (asserted via the
cache counters) — and through a cache-disabled engine that decomposes
every query from scratch, the hand-wired per-query pipeline the repo had
before the engine existed.  Answers are cross-checked against the naive
join baseline on every request.
"""

from __future__ import annotations

import time

from ..db.naive import naive_join_eval
from ..engine import Engine, fingerprint
from ..generators.workloads import query_workload, random_database
from .harness import Table, register


@register("E22", "Plan cache amortisation: decompose once, execute many",
          "Lemma 4.6 + engine")
def e22_engine_amortization() -> list[Table]:
    n_queries, n_shapes = 60, 6
    workload = query_workload(n_queries, n_shapes, seed=5)
    requests = [
        (q, random_database(q, domain_size=7, tuples_per_relation=14,
                            seed=300 + i, plant_answer=True))
        for i, q in enumerate(workload)
    ]
    shapes = len({fingerprint(q) for q in workload})
    assert shapes <= n_shapes, (shapes, n_shapes)

    engine = Engine(cache_size=64)
    started = time.monotonic()
    cold = engine.execute_many(requests)
    cold_seconds = time.monotonic() - started
    decompositions_cold = engine.decompositions
    assert decompositions_cold == shapes, (decompositions_cold, shapes)

    started = time.monotonic()
    warm = engine.execute_many(requests)
    warm_seconds = time.monotonic() - started
    # The tentpole claim: a warm second pass performs ZERO decomposition
    # searches — every plan is a certified cache transport.
    assert engine.decompositions == decompositions_cold
    assert warm.cache_hits == n_queries and warm.cache_misses == 0

    uncached = Engine(cache_size=0)
    started = time.monotonic()
    baseline = uncached.execute_many(requests)
    baseline_seconds = time.monotonic() - started
    assert uncached.decompositions == n_queries

    for (q, db), result in zip(requests, warm.results):
        naive = naive_join_eval(q, db)
        assert result.answer.rows == naive.rows, q.name

    table = Table(
        "Two passes over one workload: engine vs per-query decomposition",
        ("pass", "queries", "shapes", "decompositions", "hits", "hit_rate",
         "seconds", "qps"),
    )
    for label, batch, seconds, decomps in (
        ("cold (cache empty)", cold, cold_seconds, decompositions_cold),
        ("warm (cache full)", warm, warm_seconds, 0),
        ("no cache (baseline)", baseline, baseline_seconds, n_queries),
    ):
        table.add(
            **{"pass": label},
            queries=len(batch),
            shapes=shapes,
            decompositions=decomps,
            hits=batch.cache_hits,
            hit_rate=round(batch.cache_hits / len(batch), 3),
            seconds=round(seconds, 4),
            qps=round(len(batch) / seconds, 1) if seconds > 0 else float("inf"),
        )
    table.note(
        f"warm pass answered all {n_queries} queries from {shapes} cached "
        "plans; answers verified against the naive join on every request"
    )
    table.note(
        "merged warm-pass stats: " + str(warm.stats.as_row())
    )
    return [table]
