"""Tests for Yannakakis' algorithm (§1.1, §2.1; [44])."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.atoms import Variable
from repro.core.parser import parse_query
from repro.db.binding import BoundQuery
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.stats import EvalStats
from repro.db.yannakakis import boolean_eval, enumerate_answers, full_reduce
from repro.generators.workloads import random_database


def _setup(query_text, facts):
    q = parse_query(query_text)
    db = Database.from_relations(facts)
    jt = join_tree(q.as_boolean())
    assert jt is not None
    bound = BoundQuery.bind(q.as_boolean(), db)
    return q, db, jt, bound


class TestBooleanEval:
    def test_true_instance(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)",
            {"r": [(1, 2)], "s": [(2, 3)]},
        )
        assert boolean_eval(jt, bound.relations)

    def test_false_when_no_join_partner(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)",
            {"r": [(1, 2)], "s": [(9, 3)]},
        )
        assert not boolean_eval(jt, bound.relations)

    def test_false_when_some_relation_empty(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)",
            {"r": [(1, 2)], "s": [(2, 3)]},
        )
        empty = {
            a: r._no_rows(r.attributes, r.name)
            for a, r in bound.relations.items()
        }
        assert not boolean_eval(jt, empty)

    def test_semijoins_never_grow(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z), t(Z, W)",
            {
                "r": [(i, i + 1) for i in range(10)],
                "s": [(i, i + 2) for i in range(10)],
                "t": [(i, i) for i in range(10)],
            },
        )
        stats = EvalStats()
        boolean_eval(jt, bound.relations, stats)
        biggest_input = max(len(r) for r in bound.relations.values())
        assert stats.max_intermediate <= biggest_input


class TestFullReduce:
    def test_every_tuple_joins(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)",
            {"r": [(1, 2), (5, 9)], "s": [(2, 3), (7, 7)]},
        )
        reduced = full_reduce(jt, bound.relations)
        # dangling tuples removed in both directions
        assert reduced[q.atoms[0]].rows == {(1, 2)}
        assert reduced[q.atoms[1]].rows == {(2, 3)}

    def test_reduction_preserves_answers(self):
        q = parse_query("ans(X, Z) :- r(X, Y), s(Y, Z).")
        db = random_database(q, domain_size=5, tuples_per_relation=20, seed=0)
        jt = join_tree(q.as_boolean())
        bound = BoundQuery.bind(q.as_boolean(), db)
        reduced = full_reduce(jt, bound.relations)
        before = naive_join_eval(q, db)
        after_rel = None
        for atom, rel in reduced.items():
            pass
        answers = enumerate_answers(jt, bound.relations, ("X", "Z"))
        assert answers.rows == before.rows


class TestEnumerate:
    def test_matches_naive_on_path(self):
        q = parse_query("ans(X1, X3) :- r(X1, X2), s(X2, X3).")
        db = random_database(q, domain_size=6, tuples_per_relation=25, seed=3)
        jt = join_tree(q.as_boolean())
        bound = BoundQuery.bind(q.as_boolean(), db)
        got = enumerate_answers(jt, bound.relations, ("X1", "X3"))
        assert got.rows == naive_join_eval(q, db).rows

    def test_boolean_output(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)", {"r": [(1, 2)], "s": [(2, 3)]}
        )
        out = enumerate_answers(jt, bound.relations, ())
        assert out.rows == {()}

    def test_unknown_output_attribute_rejected(self):
        q, db, jt, bound = _setup(
            "r(X, Y), s(Y, Z)", {"r": [(1, 2)], "s": [(2, 3)]}
        )
        stats = EvalStats()
        with pytest.raises(ValueError):
            enumerate_answers(jt, bound.relations, ("NOPE",), stats)
        # rejected before any operator ran, not after the full reducer
        assert stats.semijoins == 0 and stats.total_tuples_produced == 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2_000), tuples=st.integers(1, 25))
    def test_randomised_star_query(self, seed, tuples):
        q = parse_query(
            "ans(H, A) :- hub(H, A), spoke1(H, B), spoke2(H, C)."
        )
        db = random_database(q, domain_size=4, tuples_per_relation=tuples, seed=seed)
        jt = join_tree(q.as_boolean())
        bound = BoundQuery.bind(q.as_boolean(), db)
        got = enumerate_answers(jt, bound.relations, ("H", "A"))
        assert got.rows == naive_join_eval(q, db).rows
