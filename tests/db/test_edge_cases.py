"""Edge cases and failure-injection for the evaluation pipeline (the
engine's plans, the baselines and the literal Lemma 4.6 plan).

Covers the corners the main integration tests skip: constants inside the
decomposition pipeline, ground atoms, empty relations, self-join queries,
repeated predicates, and error reporting.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import EvaluationError
from repro.core.detkdecomp import hypertree_width
from repro.core.parser import parse_query
from repro.db.database import Database
from repro.db.naive import (
    backtracking_eval,
    naive_boolean_eval,
    naive_join_eval,
)
from repro.db.yannakakis import RunContext, bag_program, run_program
from repro.engine import Engine, execute_plan
from repro.engine.plan import literal_plan
from repro.generators.workloads import random_database

ENGINE = Engine()


def engine_boolean(query, db):
    return ENGINE.execute(query, db).boolean


class TestConstantsInDecompositionPipeline:
    def test_constant_selection_respected(self):
        q = parse_query("r(X, 1), s(X, Y)")
        db = Database.from_relations(
            {"r": [(7, 1), (8, 2)], "s": [(7, 10), (8, 11)]}
        )
        assert engine_boolean(q, db)
        q_miss = parse_query("r(X, 3), s(X, Y)")
        assert not engine_boolean(q_miss, db)

    def test_ground_atom_in_query(self):
        q = parse_query("flag(1), r(X, Y)")
        db = Database.from_relations({"flag": [(1,)], "r": [(0, 0)]})
        assert engine_boolean(q, db)
        db2 = Database.from_relations({"flag": [(2,)], "r": [(0, 0)]})
        assert not engine_boolean(q, db2)

    def test_repeated_variable_in_atom(self):
        q = parse_query("r(X, X, Y)")
        db = Database.from_relations({"r": [(1, 1, 2), (1, 2, 3)]})
        for decide in (naive_boolean_eval, backtracking_eval, engine_boolean):
            assert decide(q, db)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_constants_agree_across_methods(self, seed):
        q = parse_query("r(X, 1), s(1, Y), t(X, Y)")
        db = random_database(q, domain_size=3, tuples_per_relation=6, seed=seed)
        reference = naive_boolean_eval(q, db)
        assert engine_boolean(q, db) == reference
        assert backtracking_eval(q, db) == reference


class TestRepeatedPredicates:
    def test_self_join(self):
        q = parse_query("e(X, Y), e(Y, Z)")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})
        assert engine_boolean(q, db)

    def test_same_predicate_cyclic(self):
        q = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})  # no triangle
        assert not engine_boolean(q, db)
        db.add_fact("e", 3, 1)
        assert engine_boolean(q, db)

    def test_non_boolean_self_join_answers(self):
        q = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 4)]})
        got = ENGINE.execute(q, db).answer
        assert got.rows == {(1, 3), (2, 4)}


class TestEmptyAndMissing:
    def test_empty_relation_makes_false(self):
        q = parse_query("r(X), s(X)")
        db = Database.from_relations({"r": [(1,)], "s": []})
        db.declare("s", 1)
        assert not engine_boolean(q, db)

    def test_missing_relation_raises(self):
        q = parse_query("nothere(X)")
        db = Database.from_relations({"r": [(1,)]})
        with pytest.raises(EvaluationError):
            naive_boolean_eval(q, db)
        with pytest.raises(EvaluationError):
            engine_boolean(q, db)

    def test_lemma46_with_empty_node_relation(self, query_q1):
        db = Database.from_relations(
            {"enrolled": [], "teaches": [], "parent": []}
        )
        for name, arity in (("enrolled", 3), ("teaches", 3), ("parent", 2)):
            db.declare(name, arity)
        _, hd = hypertree_width(query_q1)
        plan = literal_plan(query_q1, hd)
        bags = run_program(bag_program(plan.bags), {}, context=RunContext(db))
        assert all(not rel for rel in bags.values())
        assert not execute_plan(plan, db)


class TestAnswerRelationShape:
    def test_duplicate_head_variable(self):
        q = parse_query("ans(X, X) :- r(X).")
        db = Database.from_relations({"r": [(1,), (2,)]})
        got = naive_join_eval(q, db)
        # schema has one column per head *variable occurrence* collapsed by
        # name — the relational engine works over named attributes.
        assert got.rows == {(1,), (2,)} or got.rows == {(1, 1), (2, 2)}

    def test_boolean_answer_relation(self):
        q = parse_query("r(X)")
        db = Database.from_relations({"r": [(1,)]})
        got = ENGINE.execute(q, db).answer
        assert got.arity == 0 and got.rows == {()}
