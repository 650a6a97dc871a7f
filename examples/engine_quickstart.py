"""Engine quickstart: decompose once, execute many.

Demonstrates the ``repro.engine`` pipeline on a repeated-traffic
workload: 40 queries drawn from 4 structural shapes.  The first pass
pays one decomposition per *shape*; the second pass is answered entirely
from the plan cache (zero decomposition searches — the counters prove
it).  Run with ``PYTHONPATH=src python examples/engine_quickstart.py``.
"""

from repro import Engine, parse_query
from repro.db import Database
from repro.engine import fingerprint
from repro.generators.workloads import query_workload, random_database


def main() -> None:
    engine = Engine(cache_size=64)

    # -- single queries: structurally identical shapes share one plan ----
    db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)],
                                  "f": [(1, 2), (2, 3), (3, 1)]})
    triangle = parse_query("e(X,Y), e(Y,Z), e(Z,X)")
    renamed = parse_query("f(A,B), f(B,C), f(C,A)")
    print("two renamings, one fingerprint:",
          fingerprint(triangle) == fingerprint(renamed))

    first = engine.execute(triangle, db)
    second = engine.execute(renamed, db)
    print(f"first:  {first.boolean}  cache_hit={first.cache_hit} "
          f"(decomposed via {first.method}, width {first.width})")
    print(f"second: {second.boolean}  cache_hit={second.cache_hit} "
          "(plan transported through the Theorem A.7 relabelling)")

    print("\nexplain of the cached plan:")
    print(engine.explain(renamed, db))

    # -- batch execution: the cache amortises across a workload ----------
    workload = query_workload(n_queries=40, n_shapes=4, seed=3)
    requests = [
        (q, random_database(q, domain_size=6, tuples_per_relation=12,
                            seed=i, plant_answer=True))
        for i, q in enumerate(workload)
    ]
    cold = engine.execute_many(requests)
    decompositions_after_cold = engine.decompositions
    warm = engine.execute_many(requests)

    print("\ncold pass:", cold.summary())
    print("warm pass:", warm.summary())
    print(f"decompositions: {decompositions_after_cold} cold, "
          f"{engine.decompositions - decompositions_after_cold} warm")
    print("cache:", engine.cache.info())
    assert engine.decompositions == decompositions_after_cold
    assert warm.cache_misses == 0


if __name__ == "__main__":
    main()
