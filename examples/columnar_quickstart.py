"""Columnar execution quickstart: row vs columnar vs auto layouts.

One query runs under all three layouts and must produce identical
answers; ``explain`` shows which plan nodes the auto policy flipped to
the columnar path, the batch kernels are timed head-to-head against
their row counterparts, and a process-backend run demonstrates the
zero-copy shared-memory scatter.  Run with
``PYTHONPATH=src python examples/columnar_quickstart.py``.
"""

import time

from repro import Engine, parse_query
from repro.db import Database, Relation, to_columnar
from repro.db.shm import shm_available


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

    # -- zero-copy scatter on the process backend --------------------------
    # Columnar shards and broadcast partners cross the process boundary
    # as shared-memory descriptors (O(schema) bytes), not pickles.
    if shm_available():
        with Engine(
            mode="heuristic", backend="process", backend_workers=2,
            layout="columnar", shard_threshold=0,
        ) as engine:
            result = engine.execute(query, db)
        assert result.answer.rows == baseline.answer.rows
        print(f"process + shm: {len(result.answer)} answers "
              f"in {result.elapsed:.3f}s (same rows, zero-copy scatter)")
    else:
        print("process + shm: skipped (no usable shared memory here)")


if __name__ == "__main__":
    main()
