"""Semiring evaluation quickstart: four workload families, one engine.

The same conjunctive query runs under four algebras without changing
the plan: derivation **counts** (ℕ), cheapest witnesses (**top-k** over
the tropical semiring), **why-provenance** witness sets, and
**probabilities** under tuple independence.  Set semantics stays the
untouched default, and the plan cache shares one decomposition across
all of them: it keys on the query's fingerprint alone.  Run with
``PYTHONPATH=src python examples/semirings_quickstart.py``.
"""

from repro import Engine, parse_query
from repro.db import Database


def main() -> None:
    engine = Engine()

    # A small road network: edges carry costs (for min-cost) which the
    # probability semiring ignores unless they're in [0, 1].
    db = Database()
    roads = {
        ("a", "b"): 1.0,
        ("b", "c"): 1.0,
        ("a", "d"): 5.0,
        ("d", "c"): 1.0,
        ("b", "d"): 2.0,
    }
    for (u, v), cost in roads.items():
        db.add_fact("road", u, v, weight=cost)

    hops = parse_query("ans(X, Z) :- road(X, Y), road(Y, Z).")

    # -- set semantics: the plain answer relation ------------------------
    plain = engine.execute(hops, db)
    print("two-hop pairs:", sorted(plain.answer.rows))

    # -- counting: how many distinct derivations per answer? -------------
    counted = engine.execute(hops, db, semiring="count")
    print("derivations per pair:", dict(sorted(counted.annotations.items())))
    print("total two-hop derivations:", engine.count(hops, db))

    # -- top-k / min-cost: cheapest derivations with witnesses -----------
    for row, cost, witness in engine.top_k(hops, db, k=2):
        path = " -> ".join([witness[0][1][0]] + [w[1][1] for w in witness])
        print(f"cheapest #{row}: cost {cost} via {path}")

    # -- why-provenance: every witness set, replayable -------------------
    provenance = engine.provenance(hops, db)
    a_to_c = provenance[("a", "c")]
    print(f"('a','c') has {len(a_to_c)} derivations:")
    for witness in sorted(a_to_c, key=repr):
        print("  uses", sorted(f"{p}{r}" for p, r in witness))

    # -- probability: independent facts, noisy-or over derivations -------
    weather = Database()
    for (u, v), _ in roads.items():
        weather.add_fact("road", u, v, weight=0.9)  # each road open w.p. 0.9
    probs = engine.probability(hops, db=weather)
    print("P(reachable in two hops):",
          {row: round(p, 4) for row, p in sorted(probs.items())})

    # -- one decomposition served every algebra --------------------------
    print(f"decompositions: {engine.decompositions}, "
          f"cache entries: {len(engine.cache)}")
    assert engine.decompositions == 1  # hops planned once, shared 5 ways


if __name__ == "__main__":
    main()
