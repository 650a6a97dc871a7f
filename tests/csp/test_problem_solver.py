"""Tests for the CSP substrate and both solvers (§6 equivalence)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import BudgetExceeded, EvaluationError
from repro.csp.problem import CSPInstance, Constraint, from_query, graph_coloring
from repro.csp.solver import (
    count_solutions_backtracking,
    solve_backtracking,
    solve_via_decomposition,
)
from repro.engine import Engine
from repro.generators.families import random_query
from repro.generators.paper_queries import q1
from repro.generators.workloads import random_database


@pytest.fixture
def triangle():
    return graph_coloring([("a", "b"), ("b", "c"), ("c", "a")], 3)


class TestProblem:
    def test_constraint_scope_validation(self):
        with pytest.raises(EvaluationError):
            Constraint(("x", "x"), frozenset())

    def test_constraint_arity_validation(self):
        with pytest.raises(EvaluationError):
            Constraint(("x", "y"), frozenset({(1,)}))

    def test_check_solution(self, triangle):
        assert triangle.check({"a": 0, "b": 1, "c": 2})
        assert not triangle.check({"a": 0, "b": 0, "c": 1})
        assert not triangle.check({"a": 0, "b": 1, "c": 9})  # out of domain

    def test_to_query_shape(self, triangle):
        q = triangle.to_query()
        assert len(q.atoms) == 3
        assert q.is_boolean

    def test_hypergraph_matches_scopes(self, triangle):
        h = triangle.hypergraph()
        assert len(h) == 3
        assert h.vertices == {"a", "b", "c"}

    def test_from_query_roundtrip(self):
        query = q1()
        db = random_database(query, 3, 8, seed=1, plant_answer=True)
        csp = from_query(query, db)
        solution = solve_backtracking(csp)
        assert solution is not None
        assert csp.check(solution)


class TestSolvers:
    def test_triangle_3_colorable(self, triangle):
        for solver in (solve_backtracking, solve_via_decomposition):
            solution = solver(triangle)
            assert solution is not None and triangle.check(solution)

    def test_triangle_not_2_colorable(self):
        csp = graph_coloring([("a", "b"), ("b", "c"), ("c", "a")], 2)
        assert solve_backtracking(csp) is None
        assert solve_via_decomposition(csp) is None

    def test_even_cycle_2_colorable(self):
        csp = graph_coloring(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 2
        )
        assert solve_via_decomposition(csp) is not None

    def test_empty_constraint_unsat(self):
        csp = CSPInstance.of(
            {"x": (1, 2)},
            [Constraint(("x",), frozenset())],
        )
        assert solve_backtracking(csp) is None
        assert solve_via_decomposition(csp) is None

    def test_unconstrained_variable_assigned(self):
        csp = CSPInstance.of(
            {"x": (1,), "free": (7, 8)},
            [Constraint(("x",), frozenset({(1,)}))],
        )
        for solver in (solve_backtracking, solve_via_decomposition):
            solution = solver(csp)
            assert solution is not None and solution["free"] in (7, 8)

    def test_no_constraints_at_all(self):
        csp = CSPInstance.of({"x": (1, 2)}, [])
        assert solve_via_decomposition(csp) is not None

    def test_count_solutions(self, triangle):
        assert count_solutions_backtracking(triangle) == 6  # 3! proper colourings

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 3_000), dbseed=st.integers(0, 50))
    def test_solvers_agree_on_random_csps(self, seed, dbseed):
        query = random_query(n_atoms=4, n_variables=4, max_arity=3, seed=seed)
        db = random_database(query, 3, 6, seed=dbseed)
        csp = from_query(query, db)
        bt = solve_backtracking(csp)
        dec = solve_via_decomposition(csp)
        assert (bt is None) == (dec is None)
        if dec is not None:
            assert csp.check(dec)


@pytest.mark.parametrize(
    "csp",
    [
        # An empty domain makes the CSP unsatisfiable even when the
        # variable is in no constraint scope.
        CSPInstance.of({"x": [], "y": [1]}, []),
        # An allowed tuple outside its variables' domains is no solution.
        CSPInstance.of(
            {"x": [1], "y": [1]},
            [Constraint(("x", "y"), frozenset({(2, 2)}))],
        ),
        CSPInstance.of(
            {"x": [1, 2], "y": [1]},
            [Constraint(("x", "y"), frozenset({(2, 2), (1, 3)}))],
        ),
    ],
    ids=["empty-domain", "tuple-outside-domains", "every-tuple-outside"],
)
def test_both_solvers_agree(csp):
    bt = solve_backtracking(csp)
    dec = solve_via_decomposition(csp)
    assert (bt is None) == (dec is None)
    if dec is not None:
        assert csp.check(dec)


class TestThroughTheEngine:
    def test_isomorphic_colourings_share_one_decomposition(self):
        engine = Engine()
        square = graph_coloring(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")], 2
        )
        renamed = graph_coloring(
            [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")], 3,
            name="renamed",
        )
        assert square.check(solve_via_decomposition(square, engine))
        assert engine.decompositions == 1
        assert engine.cache.snapshot()["hits"] == 0
        assert renamed.check(solve_via_decomposition(renamed, engine))
        assert engine.cache.snapshot()["hits"] == 1
        assert engine.decompositions == 1

    def test_budget_is_enforced(self, triangle):
        with pytest.raises(BudgetExceeded):
            solve_via_decomposition(triangle, Engine(budget=0))

    def test_budget_is_checked_between_reducer_semijoins(self, monkeypatch):
        # The first semijoin outlasts the budget; the reducer stops
        # before the next one instead of running the pass to the end.
        import time

        from repro.db.yannakakis import REDUCED, Semijoin, sweep_program

        path = graph_coloring([("a", "b"), ("b", "c"), ("c", "d")], 2)
        engine = Engine(budget=1.0)
        ran = []
        run = Semijoin.run

        def slow(op, *args):
            run(op, *args)
            ran.append(op)
            time.sleep(engine.budget)

        monkeypatch.setattr(Semijoin, "run", slow)
        with pytest.raises(BudgetExceeded) as info:
            solve_via_decomposition(path, engine)
        plan = engine.plan(path.to_query(), path.to_database())
        ops = sweep_program(plan.join_tree, REDUCED).ops
        assert len(ran) == 1 and len(ops) > 1
        assert str(info.value).endswith(f"during {ops[1]}")

    def test_budget_cuts_the_decomposition_search(self):
        # The exact search on a 5×5 grid takes seconds; 50 ms cut it,
        # before any decomposition is stored or bag materialised.
        grid = [(f"v{i}_{j}", f"v{i}_{j + 1}") for i in range(5)
                for j in range(4)]
        grid += [(f"v{j}_{i}", f"v{j + 1}_{i}") for i in range(5)
                 for j in range(4)]
        engine = Engine(mode="exact", budget=0.05)
        with pytest.raises(BudgetExceeded):
            solve_via_decomposition(graph_coloring(grid, 3), engine)
        assert engine.decompositions == 0
