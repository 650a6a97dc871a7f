"""Columnar execution quickstart: row vs columnar vs auto layouts.

One query runs under all three layouts and must produce identical
answers; ``explain`` shows what the auto policy resolved the plan to,
and the batch kernels are timed head-to-head against their row
counterparts, alone and inside a whole request.  Run with
``PYTHONPATH=src python examples/columnar_quickstart.py``.
"""

import time

from repro import Engine, parse_query
from repro.db import Database, Relation, to_columnar


def build_database(n: int = 20_000) -> Database:
    edges = [(i, (i * 7 + 3) % (n // 4)) for i in range(n)]
    edges += [((i * 5 + 1) % (n // 4), i % (n // 6)) for i in range(n // 2)]
    return Database.from_relations({"e": edges})


def main() -> None:
    db = build_database()
    query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).", name="two_hop")

    # -- the three layouts must be indistinguishable on answers ----------
    baseline = Engine(mode="heuristic", layout="row").execute(query, db)
    print(f"      row: {len(baseline.answer)} answers "
          f"in {baseline.elapsed:.3f}s")
    for layout in ("columnar", "auto"):
        result = Engine(mode="heuristic", layout=layout).execute(query, db)
        assert result.answer.rows == baseline.answer.rows, layout
        print(f"{layout:>9}: {len(result.answer)} answers "
              f"in {result.elapsed:.3f}s (same rows)")

    # -- the auto policy in the plan --------------------------------------
    # "auto" resolves once per plan: columnar when some relation a bag
    # pipeline touches reaches COLUMNAR_MIN_ROWS (the measured
    # crossover), row — with its lower constants — for tiny plans.
    print("\nexplain (the header says what decided the layout):")
    print(Engine(mode="heuristic", layout="auto").explain(query, db))

    # -- one kernel head-to-head ------------------------------------------
    left = Relation.from_rows(
        ("a", "b"), [(i % 977, i) for i in range(50_000)], "L"
    )
    right = Relation.from_rows(
        ("b", "c"), [(i * 53, i % 11) for i in range(1_000)], "R"
    )
    cl, cr = to_columnar(left), to_columnar(right)
    assert cl.semijoin(cr).rows == left.semijoin(right).rows

    started = time.perf_counter()
    left.semijoin(right)
    row_ms = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    cl.semijoin(cr)
    col_ms = (time.perf_counter() - started) * 1e3
    print(f"\nsparse semijoin, 50k rows: row {row_ms:.2f}ms, "
          f"columnar {col_ms:.2f}ms ({row_ms / col_ms:.1f}x)")

    # -- warm whole requests ----------------------------------------------
    # The snapshots' column buffers are built once per relation version;
    # after the first request every bag of a columnar plan is a view of
    # them, so a warm request pays only for the sweeps.
    for layout in ("row", "columnar"):
        with Engine(mode="heuristic", layout=layout) as engine:
            engine.execute(query, db)  # cold: plan, snapshot buffers
            result = engine.execute(query, db)
        assert result.answer.rows == baseline.answer.rows
        print(f"warm {layout:>8} request: {result.elapsed * 1e3:.1f}ms")


if __name__ == "__main__":
    main()
