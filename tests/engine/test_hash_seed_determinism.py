"""One query, one database, one plan — whatever ``PYTHONHASHSEED`` is.

The decomposer breaks its ties by sorted order; the plan cache's
*transport* used not to: ``fingerprint._edge_matchings`` paired free
variables in set-iteration order, so on a shape with automorphisms
(``book_2``: X ↔ Y) a warm request was handed whichever automorph of the
stored decomposition the interpreter's string hashing produced — another
plan digest, other exact counts.  Child interpreters under hash seeds
0-5 plan and run the e2e benchmark's cyclic shapes, cycles and books —
each as stored (an identity hit) and renamed (a transported hit) — and
must print the same warm digests and the same ``total_tuples_produced``.
Those shapes' greedy width meets the lower bound; ``grid_3`` (exact
search) and ``rand_14_12_109`` (won by the local search's shuffled
intervals) pin the planner's open-bracket path the same way.  One
``auto`` plan at the layout crossover pins the time model: its two
predicted milliseconds, bit for bit, and the layout they pick.
"""

import os
import subprocess
import sys
from pathlib import Path

_DUMP = """
from repro.core.parser import parse_query
from repro.engine import Engine
from repro.generators.families import (
    book_query, cycle_query, grid_query, random_query,
)
from repro.generators.workloads import random_database, renamed_variant

shapes = [
    parse_query(
        "ans(A,C) :- c4a(A,B), c4b(B,C), c4c(C,D), c4d(D,A).", name="cycle4"
    ),
    parse_query(
        "ans() :- c5a(A,B), c5b(B,C), c5c(C,D), c5d(D,E), c5e(E,A).",
        name="cycle5",
    ),
]
shapes += [book_query(pages) for pages in (2, 3, 4)]
shapes += [cycle_query(n) for n in (6, 7, 8)]
shapes += [grid_query(3), random_query(14, 12, seed=109)]
total = 0
with Engine(layout="auto") as engine:
    for i, base in enumerate(shapes):
        for query in (base, renamed_variant(base, seed=100 + i)):
            db = random_database(query, 40, 80, seed=i)
            first = engine.execute(query, db)
            # The renamed variant is served by transporting its base.
            assert first.cache_hit == (query is not base)
            warm = engine.execute(query, db)
            assert warm.cache_hit
            total += warm.stats.total_tuples_produced
            print(
                base.name, engine.plan(query, db).digest(),
                warm.stats.total_tuples_produced, len(warm.answer),
            )
    # An auto plan at the layout crossover (the two predictions within a
    # few per cent): both, to the last bit, and the layout they pick.
    near = cycle_query(4)
    plan = engine.plan(near, random_database(near, 30, 60, seed=5))
    print(
        "crossover", plan.resolved_layout,
        plan.predicted_row_ms.hex(), plan.predicted_columnar_ms.hex(),
    )
print("total_tuples_produced", total)
"""


def test_warm_plans_and_exact_counts_do_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[2] / "src"

    def dump(hash_seed):
        env = {
            **os.environ,
            "PYTHONHASHSEED": str(hash_seed),
            "PYTHONPATH": str(src),
        }
        return subprocess.run(
            [sys.executable, "-c", _DUMP],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    first = dump(0)
    assert "total_tuples_produced" in first
    for name in ("book_2", "grid_3", "rand_14_12_109", "crossover"):
        assert name in first
    for hash_seed in range(1, 6):
        assert dump(hash_seed) == first, hash_seed
