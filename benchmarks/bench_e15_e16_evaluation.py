"""E15/E16 — the tractability headline (Thms. 4.7/4.8, Cor. 5.19/5.20).

Benchmarks the three Boolean strategies on the 6-cycle at two database
sizes (decomposition wins and its advantage widens — the paper's shape)
and Yannakakis on acyclic queries including the output-polynomial
enumeration path.  The decomposition and Yannakakis cases are warm
requests to one :class:`~repro.engine.Engine` (decomposition cached,
plan compiled for the database before timing starts); the naive-join and
backtracking baselines are the direct calls of :mod:`repro.db.naive`.
"""

import pytest

from repro.core.atoms import Variable
from repro.db.naive import (
    backtracking_eval,
    naive_boolean_eval,
    naive_join_eval,
)
from repro.db.stats import EvalStats
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.paper_queries import q2
from repro.generators.workloads import random_database

_CYCLE = cycle_query(6)
_ENGINE = Engine()


def _warm(query, db):
    """One untimed request, so every timed one replays its plan."""
    _ENGINE.execute(query, db)
    return lambda stats=None: _ENGINE.execute(query, db, stats=stats)


def _cycle_db(tuples: int):
    return random_database(
        _CYCLE,
        domain_size=max(4, tuples // 8),
        tuples_per_relation=tuples,
        seed=3,
        plant_answer=True,
    )


@pytest.mark.parametrize("tuples", [40, 120])
@pytest.mark.parametrize("method", ["decomposition", "naive", "backtracking"])
def test_e15_boolean_cycle(benchmark, method, tuples):
    db = _cycle_db(tuples)
    stats = EvalStats()
    if method == "decomposition":
        request = _warm(_CYCLE, db)
        result = benchmark(lambda: request(stats).boolean)
    else:
        decide = naive_boolean_eval if method == "naive" else backtracking_eval
        result = benchmark(decide, _CYCLE, db, stats)
    assert result is True
    benchmark.extra_info["method"] = method
    benchmark.extra_info["tuples"] = tuples
    benchmark.extra_info["max_intermediate"] = stats.max_intermediate


@pytest.mark.parametrize("tuples", [100, 400])
def test_e16_yannakakis_boolean(benchmark, tuples):
    q = q2()
    db = random_database(
        q, domain_size=tuples // 5, tuples_per_relation=tuples, seed=2,
        plant_answer=True,
    )
    request = _warm(q, db)
    assert benchmark(lambda: request().boolean)


@pytest.mark.parametrize("n", [3, 6])
def test_e16_output_polynomial_enumeration(benchmark, n):
    q = path_query(n).with_head((Variable("X1"), Variable(f"X{n+1}")))
    db = random_database(q, domain_size=12, tuples_per_relation=60, seed=4)
    request = _warm(q, db)
    answers = benchmark(lambda: request().answer)
    assert answers.rows == naive_join_eval(q, db).rows
    benchmark.extra_info["answers"] = len(answers)


def test_e16_unsat_backtracking_vs_decomposition(benchmark):
    """On a 'no' instance backtracking cannot shortcut; decomposition
    stays polynomial (the regime where the paper's result bites)."""
    db = random_database(
        _CYCLE, domain_size=40, tuples_per_relation=120, seed=9,
        plant_answer=False,
    )
    request = _warm(_CYCLE, db)
    result = benchmark(lambda: request().boolean)
    assert result == backtracking_eval(_CYCLE, db)
    benchmark.extra_info["answer"] = result
