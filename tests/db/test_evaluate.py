"""Integration tests: Lemma 4.6, the engine and the baselines agree.

The core property (Theorems 4.7/4.8): for any query and database, the
decomposition-guided pipeline — the literal Lemma 4.6 transformation
(:func:`~repro.engine.plan.literal_plan`: the plan compiled without a
database, covered filters dropped), and the
:class:`~repro.engine.Engine` plans built on the same bag operator —
computes the same answers as the naive join and the backtracking search
— checked on the paper corpus and on random query/database pairs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import is_acyclic
from repro.core.detkdecomp import hypertree_width
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.db.naive import (
    backtracking_answers,
    backtracking_eval,
    naive_boolean_eval,
    naive_join_eval,
)
from repro.db.stats import EvalStats
from repro.db.yannakakis import RunContext, bag_program, run_program
from repro.engine import Engine, execute_plan
from repro.engine.plan import literal_plan, literal_size
from repro.generators.families import cycle_query, random_query
from repro.generators.paper_queries import all_named_queries, q1, q2, q5
from repro.generators.workloads import random_database, university_database
from repro.heuristics.portfolio import decompose
from tests.conftest import literal_bags, small_queries

ENGINE = Engine()


def engine_boolean(query, db, stats=None):
    return ENGINE.execute(query.as_boolean(), db, stats=stats).boolean


def engine_answers(query, db):
    return ENGINE.execute(query, db).answer


DECIDERS = {
    "naive": naive_boolean_eval,
    "backtracking": backtracking_eval,
    "decomposition": engine_boolean,
}
ANSWERERS = {
    "naive": naive_join_eval,
    "backtracking": backtracking_answers,
    "decomposition": engine_answers,
}


def qprime(plan):
    """``Q′``: the literal plan's bag atoms."""
    return ConjunctiveQuery(tuple(bag.node for bag in plan.bags))


def run_bags(plan, db):
    """``DB′``: the literal plan's bags, run alone."""
    return run_program(bag_program(plan.bags), {}, context=RunContext(db))


class TestLemma46:
    def test_jt_is_valid_join_tree(self, paper_corpus):
        for q in paper_corpus.values():
            _, hd = hypertree_width(q)
            plan = literal_plan(q, hd)
            assert plan.join_tree.validate(qprime(plan)) == [], q.name

    def test_qprime_is_acyclic(self, paper_corpus):
        for q in paper_corpus.values():
            _, hd = hypertree_width(q)
            assert is_acyclic(qprime(literal_plan(q, hd))), q.name

    def test_node_relations_bounded_by_r_to_k(self, query_q5):
        db = random_database(query_q5, 5, 30, seed=1)
        width, hd = hypertree_width(query_q5)
        r = db.max_relation_size()
        for rel in run_bags(literal_plan(query_q5, hd), db).values():
            assert len(rel) <= r**width

    def test_size_accounting_positive(self, query_q1):
        db = random_database(query_q1, 4, 8, seed=2)
        _, hd = hypertree_width(query_q1)
        plan = literal_plan(query_q1, hd)
        bags = run_bags(plan, db)
        assert literal_size(plan, bags) > sum(len(r) for r in bags.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_equivalence_on_corpus(self, seed):
        for name, q in all_named_queries().items():
            db = random_database(
                q, domain_size=4, tuples_per_relation=12, seed=seed,
                plant_answer=seed % 2 == 0,
            )
            _, hd = hypertree_width(q)
            plan = literal_plan(q, hd)
            assert bool(execute_plan(plan, db)) == naive_boolean_eval(q, db)

    @settings(max_examples=40, deadline=None)
    @given(
        query=small_queries(),
        mode=st.sampled_from(["exact", "heuristic"]),
        seed=st.integers(0, 100),
    )
    def test_literal_plan_is_the_lemma46_triple(self, query, mode, seed):
        """What E08 rests on: the literal plan keeps the completed
        decomposition's χ labels, and its bags are the reference node
        relations of that decomposition."""
        hd = decompose(query, mode=mode).decomposition
        complete = hd.complete()
        plan = literal_plan(query, hd)
        assert [n.chi for n in plan.decomposition.nodes] == [
            n.chi for n in complete.nodes
        ]
        assert not any(part.covered for bag in plan.bags for part in bag.parts)
        db = random_database(query, 3, 6, seed=seed)
        assert run_bags(plan, db) == literal_bags(db, complete)


class TestEvaluateBoolean:
    def test_university_q1_true(self):
        db = university_database(parent_teacher_pairs=1)
        assert engine_boolean(q1(), db)

    def test_university_q1_false_without_planted_pairs(self):
        db = university_database(parent_teacher_pairs=0, seed=11)
        expected = naive_boolean_eval(q1(), db)
        assert engine_boolean(q1(), db) == expected

    def test_empty_query_true(self):
        from repro.core.query import ConjunctiveQuery

        db = random_database(q2(), 2, 2)
        assert engine_boolean(ConjunctiveQuery((), ()), db)

    def test_boolean_backtracking_stops_at_first_witness(self):
        q = cycle_query(4)
        db = random_database(q, 3, 10, seed=4, plant_answer=True)
        first, answers = EvalStats(), EvalStats()
        assert backtracking_eval(q, db, first)
        assert backtracking_answers(q, db, answers).rows == {()}
        assert answers.total_tuples_produced == first.total_tuples_produced

    @pytest.mark.parametrize("method", ["naive", "backtracking", "decomposition"])
    def test_methods_on_cycle(self, method):
        q = cycle_query(4)
        db = random_database(q, 3, 10, seed=4, plant_answer=True)
        assert DECIDERS[method](q, db)


class TestEvaluateAnswers:
    def test_non_boolean_corpus_equivalence(self):
        q = parse_query(
            "ans(S, C) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S).",
            name="Q1h",
        )
        db = university_database()
        answers = {m: answer(q, db).rows for m, answer in ANSWERERS.items()}
        assert answers["naive"] == answers["backtracking"] == answers["decomposition"]

    def test_acyclic_answers_with_yannakakis(self):
        """The engine's plan of an acyclic query is width-1 Yannakakis."""
        q = parse_query("ans(P, S) :- teaches(P, C, A), parent(P, S).")
        db = university_database()
        got = engine_answers(q, db)
        assert got.rows == naive_join_eval(q, db).rows

    def test_stats_recorded(self, query_q5):
        db = random_database(query_q5, 4, 10, seed=5)
        stats = EvalStats()
        engine_boolean(query_q5, db, stats=stats)
        assert stats.joins > 0 and stats.semijoins > 0


class TestRandomisedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 5_000),
        dbseed=st.integers(0, 100),
        plant=st.booleans(),
    )
    def test_boolean_methods_agree(self, seed, dbseed, plant):
        query = random_query(n_atoms=4, n_variables=5, max_arity=3, seed=seed)
        db = random_database(
            query, domain_size=3, tuples_per_relation=8, seed=dbseed,
            plant_answer=plant,
        )
        naive = naive_boolean_eval(query, db)
        assert backtracking_eval(query, db) == naive
        assert engine_boolean(query, db) == naive

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5_000), dbseed=st.integers(0, 100))
    def test_answer_methods_agree(self, seed, dbseed):
        query = random_query(n_atoms=3, n_variables=4, max_arity=3, seed=seed)
        head = tuple(sorted(query.variables, key=lambda v: v.name))[:2]
        query = query.with_head(head)
        db = random_database(query, domain_size=3, tuples_per_relation=8, seed=dbseed)
        naive = naive_join_eval(query, db).rows
        assert engine_answers(query, db).rows == naive
        assert backtracking_answers(query, db).rows == naive
