"""Quickstart: parse a query, decompose it, evaluate it.

Run with::

    python examples/quickstart.py

Walks through the paper's headline pipeline on the Example 1.1 query Q1
("is some student enrolled in a course taught by their own parent?"):
acyclicity test, hypertree decomposition, and decomposition-guided
evaluation against a tiny database through the plan-caching
:class:`repro.Engine`.
"""

from repro import Engine, hypertree_width, is_acyclic, parse_query
from repro.db import Database, EvalStats


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A conjunctive query in datalog-rule syntax (paper Example 1.1).
    # ------------------------------------------------------------------
    q1 = parse_query(
        "ans() :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).",
        name="Q1",
    )
    print(f"{q1.name}: {q1}")
    print(f"  atoms: {len(q1.atoms)}, variables: {len(q1.variables)}")
    print(f"  acyclic? {is_acyclic(q1)}  (the paper: Q1 is cyclic)")

    # ------------------------------------------------------------------
    # 2. Its hypertree decomposition (§4): width 2, so Q1 is tractable.
    # ------------------------------------------------------------------
    width, hd = hypertree_width(q1)
    print(f"\nhypertree width hw(Q1) = {width}")
    print("decomposition (χ/λ labels):")
    print(hd.render())
    print("atom representation (Fig. 7 style):")
    print(hd.render_atoms())
    assert hd.is_valid and hd.is_normal_form

    # ------------------------------------------------------------------
    # 3. A database as ground facts (§2.1) and Boolean evaluation.
    # ------------------------------------------------------------------
    db = Database()
    db.add_fact("enrolled", "ann", "db101", "2026-01-10")
    db.add_fact("enrolled", "joe", "ml201", "2026-02-01")
    db.add_fact("teaches", "bob", "db101", "yes")
    db.add_fact("teaches", "eva", "ml201", "yes")
    db.add_fact("parent", "bob", "ann")   # bob teaches his child ann!
    db.add_fact("parent", "eva", "tim")

    # The engine decomposes Q1 once (its cache key is Q1's shape),
    # compiles a plan against db, and runs Yannakakis over the bags.
    engine = Engine()
    stats = EvalStats()
    result = engine.execute(q1, db, stats=stats)
    print(f"\nQ1 on the toy database: {result.boolean}")
    print(f"  plan width {result.width}, evaluation stats: {stats.as_row()}")

    # ------------------------------------------------------------------
    # 4. The non-Boolean variant (Theorem 4.8): who are those students?
    # ------------------------------------------------------------------
    q1h = parse_query(
        "ans(S, C) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).",
        name="Q1h",
    )
    answers = engine.execute(q1h, db).answer
    print(f"\nanswers of {q1h.name}: {sorted(answers.rows)}")


if __name__ == "__main__":
    main()
