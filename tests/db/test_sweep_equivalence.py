"""Property suite: the Yannakakis passes on every carrier ≡ naive
evaluation.

:mod:`repro.db.yannakakis` is one sweep driver that runs directly on
whatever relations its nodes hold.  Comparing one carrier's run with
another's would compare the driver with itself, so every property here
checks the run against the naive full join
(:func:`repro.db.naive_join_eval`), which shares no code with the
sweep.  For every carrier assignment — all row, all columnar, nodes
alternating row / columnar (partners of another kind at every step),
annotated over counting and over min-cost, and weight columns — and
every workload (random paths and stars, a skewed key, an empty
relation):

* ``boolean_eval`` agrees with ``naive_boolean_eval``,
* ``full_reduce`` leaves, node for node, the projection of the full
  join onto the node's attributes, each surviving row keeping its
  annotation, and is idempotent,
* ``enumerate_answers`` agrees with ``naive_join_eval`` — and, on the
  annotated carriers, with ``naive_annotated_eval``,
* and no pass changes the relations it was given.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.db import (
    Database,
    bind_atom,
    boolean_eval,
    enumerate_answers,
    full_reduce,
    naive_boolean_eval,
    naive_join_eval,
    to_columnar,
)
from repro.db.annotated import bind_atom_annotated, naive_annotated_eval
from repro.db.columnar import ColumnarRelation, rides_buffers
from repro.db.semiring import COUNTING, MINCOST
from repro.generators.families import path_query
from repro.generators.workloads import random_database
from tests.conftest import naive_reduced, star_query

#: The semiring each annotated assignment binds its atoms over.
ANNOTATED = {"count": COUNTING, "mincost": MINCOST, "weighted": COUNTING}
CARRIERS = [
    pytest.param(
        carrier,
        marks=[
            pytest.mark.skipif(
                not rides_buffers(COUNTING),
                reason="weight columns need numpy",
            )
        ] if carrier == "weighted" else [],
    )
    for carrier in ("row", "columnar", "mixed", "count", "mincost", "weighted")
]


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def bound(carrier, query, db):
    """Every atom of *query* bound to a relation on *carrier*."""
    rels = {}
    for i, atom in enumerate(query.atoms):
        if carrier in ANNOTATED:
            rel = bind_atom_annotated(
                atom, db, ANNOTATED[carrier], columnar=carrier == "weighted"
            )
            assert isinstance(rel, ColumnarRelation) == (carrier == "weighted")
        else:
            rel = bind_atom(atom, db)
            if carrier == "columnar" or (carrier == "mixed" and i % 2):
                rel = to_columnar(rel)
        rels[atom] = rel
    return rels


def same_answers(carrier, got, query, db):
    """*got* is the naive answer — and, annotated, the naive fold."""
    assert got.rows == naive_join_eval(query, db).rows
    if carrier not in ANNOTATED:
        assert getattr(got, "annotations", None) is None
        return
    expected = naive_annotated_eval(query, db, ANNOTATED[carrier]).annotations
    if carrier == "mincost":
        # Ties may pick different witnesses; the costs are the fold.
        assert set(got.annotations) == set(expected)
        for row, (cost, _) in got.annotations.items():
            assert cost == pytest.approx(expected[row][0])
    else:
        assert got.annotations == expected


def all_passes(carrier, query, db):
    """Run the three passes on *carrier* and check each against the
    naive evaluator; returns the fully reduced relations."""
    tree = join_tree(query)
    rels = bound(carrier, query, db)
    output = tuple(v.name for v in query.head_terms)

    assert boolean_eval(tree, dict(rels)) == naive_boolean_eval(query, db)
    reduced = full_reduce(tree, dict(rels))
    oracle = naive_reduced(query, db, rels)
    for node in tree.nodes:
        assert reduced[node].rows == oracle[node]
        if carrier in ANNOTATED:
            kept = reduced[node].annotations
            assert kept == {row: rels[node].annotation(row) for row in kept}
    same_answers(
        carrier, enumerate_answers(tree, dict(rels), output), query, db
    )
    return tree, rels, reduced


@pytest.mark.parametrize("carrier", CARRIERS)
class TestSweepOnEveryCarrier:
    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 12),
        tuples=st.integers(1, 40),
    )
    def test_path_all_passes(self, carrier, n, seed, domain, tuples):
        query = _with_head(path_query(n))
        db = random_database(query, domain, tuples, seed=seed, weights="cost")
        all_passes(carrier, query, db)

    @settings(max_examples=8, deadline=None)
    @given(
        rays=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_star_all_passes(self, carrier, rays, seed, domain, tuples):
        """Every ray reads the one relation ``e``: the nodes share a
        binding."""
        query = _with_head(star_query(rays))
        db = random_database(query, domain, tuples, seed=seed, weights="cost")
        all_passes(carrier, query, db)

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_full_reduce_idempotent(self, carrier, n, seed, domain, tuples):
        query = path_query(n)
        db = random_database(query, domain, tuples, seed=seed, weights="cost")
        tree, _, once = all_passes(carrier, query, db)
        twice = full_reduce(tree, dict(once))
        for node in tree.nodes:
            assert twice[node].rows == once[node].rows
            assert twice[node] is once[node]  # nothing left to filter

    def test_skewed_database_all_passes(self, carrier):
        """90% of edge tuples share one join-key value."""
        query = _with_head(path_query(3))
        rows = [(1, j % 9) for j in range(450)]
        rows += [(2 + j % 37, j % 11) for j in range(50)]
        db = Database.from_relations(
            {p: rows for p in sorted(query.arities)}
        )
        all_passes(carrier, query, db)

    def test_an_empty_relation_empties_every_pass(self, carrier):
        """The middle of a 3-path over three relations has no rows."""
        query = parse_query("ans(A,D) :- p(A,B), q(B,C), r(C,D).")
        db = Database.from_relations(
            {"p": [(i, i % 4) for i in range(12)],
             "r": [(i % 4, i) for i in range(12)]}
        )
        db.declare("q", 2)
        tree, rels, reduced = all_passes(carrier, query, db)
        assert not naive_boolean_eval(query, db)
        for node in tree.nodes:
            assert not reduced[node]
            assert type(reduced[node]) is type(rels[node])

    def test_inputs_are_left_as_they_were(self, carrier):
        query = _with_head(star_query(3))
        db = random_database(
            query, 5, 25, seed=4, plant_answer=True, weights="cost"
        )
        rels = bound(carrier, query, db)
        before = {
            node: (set(rel.rows), getattr(rel, "annotations", None))
            for node, rel in rels.items()
        }
        tree = join_tree(query)
        output = tuple(v.name for v in query.head_terms)
        given_rels = dict(rels)
        boolean_eval(tree, given_rels)
        full_reduce(tree, given_rels)
        assert enumerate_answers(tree, given_rels, output)
        assert given_rels == rels
        for node, rel in rels.items():
            assert given_rels[node] is rel
            assert (set(rel.rows), getattr(rel, "annotations", None)) == (
                before[node]
            )
