"""The Example 1.1 scenario at scale: Q1 and Q2 on a university database.

Run with::

    python examples/university_queries.py

Generates a synthetic university database (students, courses, teaching
assignments, parent links) and contrasts the evaluation strategies the
paper compares:

* Q2 is acyclic → the engine's width-1 plan is Yannakakis (§2.1);
* Q1 is cyclic but hw(Q1) = 2 → the engine's Lemma 4.6 plan evaluates it
  with bounded intermediate results while the naive join materialises far
  larger intermediates.
"""

import time

from repro import Engine, hypertree_width, is_acyclic
from repro.db import EvalStats
from repro.db.naive import backtracking_eval, naive_boolean_eval
from repro.generators.paper_queries import q1, q2
from repro.generators.workloads import university_database


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - start) * 1000


def main() -> None:
    db = university_database(
        n_persons=120,
        n_courses=25,
        n_enrollments=500,
        n_teaching=80,
        parent_teacher_pairs=3,
        seed=42,
    )
    print(f"database: {db}")
    engine = Engine()

    def decide(query, db, stats):
        return engine.execute(query, db, stats=stats).boolean

    # ------------------------------------------------------------------
    # Q2 (acyclic): "is there a professor with a child enrolled somewhere?"
    # ------------------------------------------------------------------
    query2 = q2()
    print(f"\n{query2.name} acyclic? {is_acyclic(query2)}")
    for method, fn in (("yannakakis", decide), ("naive", naive_boolean_eval)):
        stats = EvalStats()
        answer, ms = timed(fn, query2, db, stats)
        print(
            f"  {method:12s}: {answer}  {ms:7.2f} ms  "
            f"max intermediate = {stats.max_intermediate}"
        )

    # ------------------------------------------------------------------
    # Q1 (cyclic, hw = 2): "does a parent teach their own child?"
    # ------------------------------------------------------------------
    query1 = q1()
    width, hd = hypertree_width(query1)
    print(f"\n{query1.name} is cyclic; hw = {width}; decomposition:")
    print("  " + hd.render_atoms().replace("\n", "\n  "))
    for method, fn in (
        ("decomposition", decide),
        ("naive", naive_boolean_eval),
        ("backtracking", backtracking_eval),
    ):
        stats = EvalStats()
        answer, ms = timed(fn, query1, db, stats)
        print(
            f"  {method:12s}: {answer}  {ms:7.2f} ms  "
            f"max intermediate = {stats.max_intermediate}"
        )

    # ------------------------------------------------------------------
    # Who exactly? (Theorem 4.8: output-polynomial enumeration.)
    # ------------------------------------------------------------------
    from repro import parse_query

    q1h = parse_query(
        "ans(P, S, C) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).",
        name="Q1-heads",
    )
    result = engine.execute(q1h, db).answer
    print(f"\nparent-taught enrolments ({len(result)} rows):")
    for row in sorted(result.rows):
        print(f"  professor {row[0]} teaches their child {row[1]} in {row[2]}")


if __name__ == "__main__":
    main()
