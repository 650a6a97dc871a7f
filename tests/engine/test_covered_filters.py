"""Connected bag pipelines: χ-covered atoms joined into a node's bag.

A node whose pipeline joins more than one part is also given every
query atom outside λ(p) that χ(p) covers; the filtered bag is a subset of
the literal Lemma 4.6 bag and a superset of ``π_χ`` of the full join, so
nothing a request can observe changes — under any semiring or layout,
in a one-shot request or a maintained view.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parser import parse_query
from repro.db.annotated import naive_annotated_eval
from repro.db.columnar import LAYOUTS
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.semiring import resolve_semiring
from repro.db.stats import CardinalityEstimator, EvalStats
from repro.db.yannakakis import RunContext, run_program
from repro.engine import Engine
from repro.engine.plan import _bag_pipeline
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    path_query,
)
from repro.generators.workloads import random_database, update_workload
from repro.incremental import MaterializedView
from repro.obs import Tracer, get_registry, tracing
from tests.conftest import assert_bag_contract, small_queries

CYCLE4 = "ans(A,C) :- c4a(A,B), c4b(B,C), c4c(C,D), c4d(D,A)."
TRIANGLE = "ans(A) :- r(A,B), s(B,C), t(C,A)."
CYCLIC = [cycle_query(n) for n in range(4, 9)] + [
    book_query(2), clique_query(4), grid_query(3),
]


def _atoms(text):
    return parse_query(f"ans() :- {text}.").atoms


def _db(relations):
    return Database.from_relations(relations)


def _covered(bag):
    """The atoms *bag* joins as filters."""
    return frozenset(part.atom for part in bag.parts if part.covered)


def _covered_predicates(plan):
    return sorted({a.predicate for bag in plan.bags for a in _covered(bag)})


class TestOrdering:
    """The four preferences of ``_bag_pipeline``, on hand-built bags."""

    def order(self, lam, covered, chi, db=None):
        chi = frozenset(v for a in _atoms(chi) for v in a.variables)
        covered = list(_atoms(covered)) if covered else []
        parts, rows, cost = _bag_pipeline(
            list(_atoms(lam)), covered, chi, CardinalityEstimator(db),
        )
        sizes = [part.est for part in parts]
        assert {part.atom for part in parts if part.covered} == set(covered)
        # The cost sums the running join after every step, so it is at
        # least the first part plus the bag.
        assert cost >= sizes[0] + rows
        return [str(part.atom) for part in parts], sizes

    def test_a_bridge_connects_a_cross_product(self):
        db = _db({
            "a": [(i, i) for i in range(5)],
            "c": [(i, i % 3) for i in range(9)],
            "d": [(i, i) for i in range(7)],
        })
        # π_D c (3 values) is the smallest part; d bridges it to a.
        got, sizes = self.order("a(A,B), c(C,D)", "d(D,A)", "x(A,B,D)", db)
        assert got == ["c(C, D)", "d(D, A)", "a(A, B)"]
        assert sizes == [3.0, 7.0, 5.0]

    def test_a_connected_lambda_atom_beats_a_bridge(self):
        got, _ = self.order("a(A,B), b(B,C)", "t(C,A)", "x(A,B,C)")
        assert got == ["a(A, B)", "b(B, C)", "t(C, A)"]

    def test_a_filter_is_applied_as_soon_as_it_is_covered(self):
        got, _ = self.order(
            "a(A,B), b(B,C), c(C,D)", "t(A,C)", "x(A,B,C,D)"
        )
        assert got == ["a(A, B)", "b(B, C)", "t(A, C)", "c(C, D)"]

    def test_variables_outside_chi_connect_nothing(self):
        # b and c share only Y, which χ drops: c is not "connected", and
        # the bridge through χ wins over it.
        got, _ = self.order("b(X,Y), c(Y,Z)", "t(X,Z)", "x(X,Z)")
        assert got == ["b(X, Y)", "t(X, Z)", "c(Y, Z)"]

    def test_without_covered_atoms_the_order_is_the_plain_greedy_one(self):
        got, _ = self.order("c(C,D), a(A,B), b(B,C)", "", "x(A,B,C,D)")
        assert got == ["a(A, B)", "b(B, C)", "c(C, D)"]


class TestCompiledPlan:
    @pytest.fixture
    def engine(self):
        with Engine(layout="row") as made:
            yield made

    def test_cycle4_joins_its_covered_atom(self, engine):
        query = parse_query(CYCLE4, name="cycle4")
        db = random_database(query, 12, 40, seed=2)
        plan = engine.plan(query, db)
        assert plan.width == 2
        filtered = [bag for bag in plan.bags if _covered(bag)]
        assert filtered, plan.render()
        for bag in plan.bags:
            covered = _covered(bag)
            join_order = [part.atom for part in bag.parts]
            assert covered <= set(join_order)
            lam = [a for a in join_order if a not in covered]
            if len(lam) <= 1:  # a single-part node is left alone
                assert not covered
            for a in covered:
                assert a in query.atoms
                assert {v.name for v in a.variables} <= set(bag.chi)

    def test_acyclic_plans_are_untouched(self, engine):
        query = path_query(4)
        plan = engine.plan(query, random_database(query, 6, 20, seed=1))
        assert plan.width == 1
        assert all(
            not _covered(bag) and len(bag.parts) == 1 for bag in plan.bags
        )

    def test_rendering_and_digest_tell_a_filter_from_a_join(self, engine):
        query = parse_query(CYCLE4, name="cycle4")
        db = random_database(query, 12, 40, seed=2)
        plan = engine.plan(query, db)
        literal = replace(
            plan,
            bags=tuple(
                bag._replace(parts=tuple(
                    part._replace(covered=False) for part in bag.parts
                ))
                for bag in plan.bags
            ),
        )
        assert "⋉" in plan.render() and "⋉" not in literal.render()
        assert plan.digest() != literal.digest()
        assert "⋉" in engine.explain(query, db, analyze=True)

    def test_a_copy_with_other_bags_runs_its_own_program(self, engine):
        """The program memo never travels with a structural copy: a copy
        holding the bags without their covered parts neither renders nor
        runs a ``⋉`` filter, though the original built its program
        first.  Only a restamped copy shares the memo."""
        query = parse_query(CYCLE4, name="cycle4")
        db = random_database(query, 12, 40, seed=2)
        plan = engine.plan(query, db)
        original = plan.program()
        literal = replace(
            plan,
            bags=tuple(
                bag._replace(parts=tuple(
                    part for part in bag.parts if not part.covered
                ))
                for bag in plan.bags
            ),
        )
        assert "⋉" in plan.render() and "⋉" not in literal.render()
        tracer = Tracer()
        with tracing(tracer):
            answer = run_program(
                literal.program(), {}, EvalStats(), RunContext(db)
            )
        filters = [
            s.attrs["filters"] for s in tracer.spans() if s.name == "plan.bag"
        ]
        assert filters == [0] * len(plan.bags)
        assert answer.rows == naive_join_eval(query, db).rows
        assert plan.restamped(reused=True).program() is original

    def test_estimates_price_the_pre_projected_part(self, engine):
        query = parse_query(CYCLE4, name="cycle4")
        db = Database()
        for i in range(60):
            db.add_fact("c4a", i % 20, i)
            db.add_fact("c4b", i, i % 7)
            db.add_fact("c4c", i % 7, i % 3)  # 21 rows, 3 distinct D values
            db.add_fact("c4d", i % 3, i % 20)
        plan = engine.plan(query, db)
        onto_d = [
            part.est
            for bag in plan.bags
            for part in bag.parts
            if part.atom.predicate == "c4c"
            and {v.name for v in part.atom.variables} & set(bag.chi) == {"D"}
        ]
        assert onto_d and set(onto_d) == {3.0}, plan.render()

    def test_a_covered_atom_with_a_constant_and_a_repeated_variable(
        self, engine
    ):
        query = parse_query(
            "ans(A,B) :- r(A,B), s(B,C), t(C,A,1), u(A,A).", name="q"
        )
        db = random_database(query, 3, 14, seed=4, plant_answer=True)
        plan = engine.plan(query, db)
        assert {"t", "u"} & set(_covered_predicates(plan)), plan.render()
        result = engine.execute(query, db)
        assert result.answer.rows == naive_join_eval(query, db).rows
        assert result.answer.rows

    def test_spans_and_the_registry_count_the_filters(self, engine):
        query = parse_query(CYCLE4, name="cycle4")
        db = random_database(query, 12, 40, seed=2)
        plan = engine.plan(query, db)
        expected = sum(len(_covered(bag)) for bag in plan.bags)
        counter = get_registry().counter("plan.bag_filters")
        before = counter.value
        tracer = Tracer()
        with tracing(tracer):
            engine.execute(query, db)
        assert counter.value - before == expected > 0
        bags = [s for s in tracer.spans() if s.name == "plan.bag"]
        assert sum(s.attrs["filters"] for s in bags) == expected


@pytest.fixture(scope="module")
def engines():
    """One engine per layout, so the property below pays each shape's
    decomposition once."""
    made = {layout: Engine(layout=layout) for layout in LAYOUTS}
    yield made
    for engine in made.values():
        engine.close()


@settings(max_examples=60, deadline=None)
@given(
    query=st.sampled_from(CYCLIC) | small_queries(),
    seed=st.integers(0, 10_000),
    with_head=st.booleans(),
    semiring=st.sampled_from([None, "count", "mincost"]),
    layout=st.sampled_from(LAYOUTS),
)
def test_execute_agrees_with_naive_evaluation(
    engines, query, seed, with_head, semiring, layout
):
    if with_head:
        query = query.with_head(
            tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        )
    db = random_database(
        query, 8, 10, seed=seed, plant_answer=True,
        weights="cost" if semiring == "mincost" else None,
    )
    engine = engines[layout]
    result = engine.execute(query, db, semiring=semiring)
    if semiring is None:
        assert result.answer.rows == naive_join_eval(query, db).rows
    else:
        expected = naive_annotated_eval(query, db, resolve_semiring(semiring))
        assert set(result.answer.rows) == set(expected.rows)
        for row, value in result.annotations.items():
            if semiring == "mincost":  # (cost, one cheapest witness)
                assert value[0] == pytest.approx(expected.annotation(row)[0])
            else:
                assert value == expected.annotation(row)
    hd = engine.cache.lookup(query, semiring or "set").decomposition
    assert_bag_contract(query, db, hd)


def test_every_cyclic_shape_places_a_filter():
    """The property above is only about covered atoms if the planner
    actually places some on these shapes."""
    with Engine() as engine:
        for query in CYCLIC:
            db = random_database(query, 8, 10, seed=1, plant_answer=True)
            engine.execute(query, db)
            hd = engine.cache.lookup(query).decomposition
            assert assert_bag_contract(query, db, hd) > 0, query.name


_PLAN_DUMP = """
from repro.engine import Engine
from repro.generators.families import (
    book_query, clique_query, cycle_query, grid_query, random_query,
)
from repro.generators.workloads import random_database

shapes = [cycle_query(n) for n in range(4, 9)] + [
    book_query(2), clique_query(4), grid_query(3),
    random_query(6, 6, seed=3), random_query(8, 7, seed=5),
]
with Engine(layout="auto") as engine:
    for query in shapes:
        db = random_database(query, 6, 20, seed=1)
        print(engine.plan(query, db).render())
"""


def test_the_compiled_plan_does_not_depend_on_the_hash_seed():
    src = Path(__file__).resolve().parents[2] / "src"

    def dump(hash_seed):
        env = {
            **os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src),
        }
        return subprocess.run(
            [sys.executable, "-c", _PLAN_DUMP],
            env=env, capture_output=True, text=True, check=True,
        ).stdout

    first, second = dump("1"), dump("2")
    assert "⋉" in first
    assert first == second


@settings(max_examples=25, deadline=None)
@given(
    text=st.sampled_from([TRIANGLE, CYCLE4]),
    seed=st.integers(0, 10_000),
    delete_ratio=st.floats(0.1, 0.7),
    batch_size=st.integers(1, 12),
)
def test_a_view_stays_fresh_when_only_the_covered_relation_changes(
    text, seed, delete_ratio, batch_size
):
    query = parse_query(text, name="view")
    db = random_database(query, 5, 12, seed=seed)
    with Engine() as engine:
        plan = engine.plan(query, db)
        covered = _covered_predicates(plan)
        assert covered, plan.render()
        view = MaterializedView(query, db, plan)
        assert view.answers().rows == naive_join_eval(query, db).rows
        # The stream is generated against the covered relations alone, so
        # every change reaches a bag through a filter input (and, lower
        # in the tree, through the atom's own node).
        only_covered = Database.from_relations(
            {p: db.rows(p) for p in covered}
        )
        stream = update_workload(
            only_covered, n_batches=6, batch_size=batch_size,
            delete_ratio=delete_ratio, reinsert_ratio=0.5, seed=seed + 1,
        )
        for delta in stream:
            assert set(delta.changes) <= set(covered)
            db.apply(delta)
            view.apply(delta)
            assert view.answers().rows == naive_join_eval(query, db).rows
            assert view.answers().rows == engine.execute(query, db).answer.rows
