"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import strategies as st

from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db.naive import naive_join_eval
from repro.db.stats import EvalStats
from repro.db.yannakakis import (
    Bag,
    Part,
    RunContext,
    bag_program,
    contributing,
    run_program,
)
from repro.engine.plan import compile_plan
from repro.generators.families import random_query
from repro.generators.paper_queries import all_named_queries, q1, q2, q3, q4, q5
from repro.heuristics.validate import check_decomposition


@pytest.fixture
def paper_corpus():
    return all_named_queries()


@pytest.fixture
def query_q1():
    return q1()


@pytest.fixture
def query_q2():
    return q2()


@pytest.fixture
def query_q3():
    return q3()


@pytest.fixture
def query_q4():
    return q4()


@pytest.fixture
def query_q5():
    return q5()


def small_queries():
    """Hypothesis strategy: small random conjunctive queries.

    Parametrised by (atoms, variables, arity, seed, connected); queries
    stay small enough for the exponential exact searches.
    """
    return st.builds(
        random_query,
        n_atoms=st.integers(min_value=1, max_value=6),
        n_variables=st.integers(min_value=2, max_value=7),
        max_arity=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        connected=st.booleans(),
    )


def tiny_queries():
    """Even smaller queries for the doubly-exponential searches (qw)."""
    return st.builds(
        random_query,
        n_atoms=st.integers(min_value=1, max_value=4),
        n_variables=st.integers(min_value=2, max_value=5),
        max_arity=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        connected=st.just(True),
    )


def literal_bags(db, hd) -> dict:
    """The reference Lemma 4.6 node relations of *hd*, completed
    (Lemma 4.4): per node ``nᵢ`` (preorder), ``π_χ`` of the join of the
    λ atoms that contribute to it, λ in rendering order, each atom a
    :meth:`Part.of` χ — no covered atoms, χ as *hd* has it.  Keyed by
    the bag atom ``nᵢ(sorted χ)``."""
    complete = hd if hd.is_complete else hd.complete()
    bags = []
    for i, p in enumerate(complete.nodes):
        chi = tuple(sorted(v.name for v in p.chi))
        bags.append(Bag(
            Atom(f"n{i}", tuple(map(Variable, chi))), chi,
            tuple(
                Part.of(a, p.chi)
                for a in contributing(sorted(p.lam, key=str), p.chi)
            ),
        ))
    return run_program(bag_program(bags), {}, EvalStats(), RunContext(db))


def assert_bag_contract(query, db, hd) -> int:
    """The contract between a compiled plan's bags and Lemma 4.6.

    The plan's decomposition — *hd* with the χ labels the compile chose
    — is a valid decomposition of *hd*'s width.  Per node: the plan's
    bag is a subset of the literal bag ``π_χ(⋈ λ)`` (:func:`literal_bags`
    over that decomposition), a superset of ``π_χ`` of the query's full
    join (so ``⋈ bags`` is unchanged), and equal to the literal bag when
    no covered atom was joined in.  Returns how many covered filters the
    plan placed."""
    plan = compile_plan(query, db, hd)
    assert check_decomposition(plan.decomposition) == []
    assert plan.decomposition.width == hd.width
    literal = literal_bags(db, plan.decomposition)
    everything = naive_join_eval(
        query.with_head(tuple(sorted(query.variables, key=lambda v: v.name))),
        db,
    )
    bags = run_program(
        bag_program(plan.program().bags), {}, EvalStats(), RunContext(db)
    )
    filters = 0
    for op in plan.bags:
        bag = bags[op.node]
        reference = literal[op.node]
        assert bag.attributes == reference.attributes
        assert set(bag.rows) <= set(reference.rows)
        assert set(bag.rows) >= set(everything.project(bag.attributes).rows)
        covered = [part for part in op.parts if part.covered]
        if not covered:
            assert bag == reference
        filters += len(covered)
    return filters


def star_query(n: int) -> ConjunctiveQuery:
    """``e(C, X1), ..., e(C, Xn)`` — one hub, n rays (acyclic)."""
    body = tuple(
        Atom("e", (Variable("C"), Variable(f"X{i}"))) for i in range(1, n + 1)
    )
    return ConjunctiveQuery(body, (), f"star_{n}")


def spy_on(monkeypatch, module, name):
    """Record what ``module.<name>`` returns, call by call."""
    real = getattr(module, name)
    calls = []

    def spy(*args):
        out = real(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


@contextmanager
def ran_operators():
    """Every operator :func:`repro.db.yannakakis.run_program` runs while
    the block is open, in run order."""
    from repro.db.yannakakis import Bag, Join, Project, Semijoin

    ran = []
    with ExitStack() as stack:
        for kind in (Bag, Semijoin, Join, Project):
            def spy(op, *args, _real=kind.run):
                ran.append(op)
                return _real(op, *args)

            stack.enter_context(mock.patch.object(kind, "run", spy))
        yield ran


def naive_reduced(query, db, rels):
    """What the full reducer must leave at each node: the projection of
    the full join onto the node's attributes."""
    everything = tuple(sorted(query.variables, key=lambda v: v.name))
    full = naive_join_eval(query.with_head(everything), db)
    return {
        node: full.project(list(rel.attributes)).rows
        for node, rel in rels.items()
    }
