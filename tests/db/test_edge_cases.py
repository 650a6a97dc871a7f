"""Edge cases and failure-injection for the evaluation pipeline.

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
from repro.db.evaluate import evaluate, evaluate_boolean, lemma46_transform
from repro.generators.workloads import random_database


class TestConstantsInDecompositionPipeline:
    def test_constant_selection_respected(self):
        q = parse_query("r(X, 1), s(X, Y)")
        db = Database.from_relations(
            {"r": [(7, 1), (8, 2)], "s": [(7, 10), (8, 11)]}
        )
        assert evaluate_boolean(q, db, method="decomposition")
        q_miss = parse_query("r(X, 3), s(X, Y)")
        assert not evaluate_boolean(q_miss, db, method="decomposition")

    def test_ground_atom_in_query(self):
        q = parse_query("flag(1), r(X, Y)")
        db = Database.from_relations({"flag": [(1,)], "r": [(0, 0)]})
        assert evaluate_boolean(q, db, method="decomposition")
        db2 = Database.from_relations({"flag": [(2,)], "r": [(0, 0)]})
        assert not evaluate_boolean(q, db2, method="decomposition")

    def test_repeated_variable_in_atom(self):
        q = parse_query("r(X, X, Y)")
        db = Database.from_relations({"r": [(1, 1, 2), (1, 2, 3)]})
        for m in ("naive", "backtracking", "decomposition"):
            assert evaluate_boolean(q, db, method=m)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_constants_agree_across_methods(self, seed):
        q = parse_query("r(X, 1), s(1, Y), t(X, Y)")
        db = random_database(q, domain_size=3, tuples_per_relation=6, seed=seed)
        reference = evaluate_boolean(q, db, method="naive")
        assert evaluate_boolean(q, db, method="decomposition") == reference
        assert evaluate_boolean(q, db, method="backtracking") == reference


class TestRepeatedPredicates:
    def test_self_join(self):
        q = parse_query("e(X, Y), e(Y, Z)")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})
        assert evaluate_boolean(q, db, method="decomposition")

    def test_same_predicate_cyclic(self):
        q = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})  # no triangle
        assert not evaluate_boolean(q, db, method="decomposition")
        db.add_fact("e", 3, 1)
        assert evaluate_boolean(q, db, method="decomposition")

    def test_non_boolean_self_join_answers(self):
        q = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 4)]})
        got = evaluate(q, db, method="decomposition")
        assert got.rows == {(1, 3), (2, 4)}


class TestEmptyAndMissing:
    def test_empty_relation_makes_false(self):
        q = parse_query("r(X), s(X)")
        db = Database.from_relations({"r": [(1,)], "s": []})
        db.declare("s", 1)
        assert not evaluate_boolean(q, db, method="decomposition")

    def test_missing_relation_raises(self):
        q = parse_query("nothere(X)")
        db = Database.from_relations({"r": [(1,)]})
        with pytest.raises(EvaluationError):
            evaluate_boolean(q, db, method="naive")
        with pytest.raises(EvaluationError):
            evaluate_boolean(q, db, method="decomposition")

    def test_lemma46_with_empty_node_relation(self, query_q1):
        db = Database.from_relations(
            {"enrolled": [], "teaches": [], "parent": []}
        )
        for name, arity in (("enrolled", 3), ("teaches", 3), ("parent", 2)):
            db.declare(name, arity)
        _, hd = hypertree_width(query_q1)
        out = lemma46_transform(query_q1, db, hd)
        assert all(not rel for rel in out.relations.values())
        from repro.db.yannakakis import boolean_eval

        assert not boolean_eval(out.jt, out.relations)


class TestAnswerRelationShape:
    def test_duplicate_head_variable(self):
        q = parse_query("ans(X, X) :- r(X).")
        db = Database.from_relations({"r": [(1,), (2,)]})
        got = evaluate(q, db, method="naive")
        # schema has one column per head *variable occurrence* collapsed by
        # name — the relational engine works over named attributes.
        assert got.rows == {(1,), (2,)} or got.rows == {(1, 1), (2, 2)}

    def test_boolean_answer_relation(self):
        q = parse_query("r(X)")
        db = Database.from_relations({"r": [(1,)]})
        got = evaluate(q, db, method="decomposition")
        assert got.arity == 0 and got.rows == {()}
