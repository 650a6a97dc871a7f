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
  annotated carriers, with ``naive_annotated_eval`` — whatever the head
  (empty, held by one atom, spread over several) and wherever the tree
  is rooted, and no intermediate it records outgrows the Yannakakis
  bound ``max node rows × max(1, |answer|)`` although a self-contained
  subtree skips the passes that used to guarantee it,
* and no pass changes the relations it was given.

The sum-product pass — each child folded onto what its parent keeps
before the join — is checked against brute force over random acyclic
queries (:class:`TestSumProductSweep`): every satisfying substitution
enumerated, counted, collected as a why-provenance witness and costed,
with no semiring code in the oracle.  And the interpreter runs exactly
the operators of the program it is given, which ``EvalStats`` counts
(:class:`TestTheProgramIsWhatRuns`).
"""

from collections import Counter
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
from repro.core.jointree import join_tree_from_edges
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
from repro.db.semiring import COUNTING, INT_RING, MINCOST, PROVENANCE
from repro.db.stats import EvalStats
from repro.db.yannakakis import (
    ANSWER,
    NONEMPTY,
    REDUCED,
    Join,
    Project,
    Semijoin,
    sweep_program,
)
from repro.obs import Tracer, tracing
from repro.generators.families import path_query
from repro.generators.workloads import random_database
from tests.conftest import naive_reduced, ran_operators, star_query

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


def rerooted(query: ConjunctiveQuery, pick: int):
    """A join tree of *query* rooted at its *pick*-th node (cyclically)."""
    tree = join_tree(query)
    nodes = list(tree.nodes)
    return join_tree_from_edges(
        nodes, list(tree.edges()), root=nodes[pick % len(nodes)]
    )


@pytest.mark.parametrize("carrier", CARRIERS)
class TestOutputAwareSweep:
    """The head decides which operators run: a subtree whose head
    variables all sit in its root hands up its reduced relation, and a
    root that holds the whole head answers with one projection (set
    semantics) or joins without semijoins (values to fold)."""

    @settings(max_examples=15, deadline=None)
    @given(
        star=st.booleans(),
        size=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
        one_atom=st.booleans(),
        pick=st.integers(0, 4),
        data=st.data(),
    )
    def test_any_head_any_root(
        self, carrier, star, size, seed, domain, tuples, one_atom, pick, data
    ):
        base = star_query(size) if star else path_query(size)
        pool = (
            data.draw(st.sampled_from(base.atoms)).variables
            if one_atom
            else base.variables
        )
        head = tuple(
            data.draw(
                st.lists(
                    st.sampled_from(sorted(v.name for v in pool)),
                    unique=True,
                )
            )
        )
        query = base.with_head(tuple(Variable(name) for name in head))
        db = random_database(query, domain, tuples, seed=seed, weights="cost")
        rels = bound(carrier, query, db)
        stats = EvalStats()
        got = enumerate_answers(rerooted(query, pick), dict(rels), head, stats)
        same_answers(carrier, got, query, db)
        largest = max(len(rel) for rel in rels.values())
        assert stats.max_intermediate <= largest * max(1, len(got))


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


@st.composite
def acyclic_queries(draw):
    """A random acyclic query with a head: atoms grown as a tree, each
    new atom taking one or two variables of an earlier one plus up to two
    fresh ones (so the growth order is a join tree), every predicate its
    own.  The head is drawn from one atom's variables (a bag covers it)
    or from all of them."""
    fresh = (f"V{i}" for i in count())
    names = [[next(fresh) for _ in range(draw(st.integers(1, 3)))]]
    for i in range(1, draw(st.integers(2, 5))):
        parent = names[draw(st.integers(0, i - 1))]
        shared = draw(
            st.lists(
                st.sampled_from(parent), min_size=1,
                max_size=min(2, len(parent)), unique=True,
            )
        )
        own = [next(fresh) for _ in range(draw(st.integers(0, 2)))]
        names.append(shared + own)
    if draw(st.booleans()):
        pool = draw(st.sampled_from(names))
    else:
        pool = sorted({v for atom in names for v in atom})
    head = draw(st.lists(st.sampled_from(pool), unique=True))
    body = tuple(
        Atom(f"r{i}", tuple(map(Variable, atom)))
        for i, atom in enumerate(names)
    )
    return ConjunctiveQuery(body, tuple(map(Variable, head)), "acyclic")


def derivations(query, db):
    """Every satisfying substitution, as (head row, the fact each atom
    uses) — brute force, no semiring code."""
    names = sorted(v.name for v in query.variables)
    full = naive_join_eval(
        query.with_head(tuple(map(Variable, names))), db
    )
    head = [names.index(v.name) for v in query.head_terms]
    atoms = [
        (atom.predicate, [names.index(v.name) for v in atom.terms])
        for atom in query.atoms
    ]
    for row in full.rows:
        yield tuple(row[i] for i in head), tuple(
            (p, tuple(row[i] for i in pos)) for p, pos in atoms
        )


#: Semiring tag -> semiring, for the sum-product property.
SUM_PRODUCT = {
    "count": COUNTING, "int": INT_RING,
    "provenance": PROVENANCE, "mincost": MINCOST,
}


class TestSumProductSweep:
    """Children hand their parents ⊕-marginals: the answers of every
    distributive semiring stay the brute-force ones, on row carriers and
    on weight columns, whatever the head and the root."""

    @settings(max_examples=60, deadline=None)
    @given(
        query=acyclic_queries(),
        tag=st.sampled_from(sorted(SUM_PRODUCT)),
        columnar=st.booleans(),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 6),
        tuples=st.integers(1, 20),
        pick=st.integers(0, 4),
    )
    def test_answers_are_brute_force(
        self, query, tag, columnar, seed, domain, tuples, pick
    ):
        semiring = SUM_PRODUCT[tag]
        db = random_database(
            query, domain, tuples, seed=seed, plant_answer=True,
            weights="cost",
        )
        tree = rerooted(query, pick)
        rels = {
            atom: bind_atom_annotated(atom, db, semiring, columnar=columnar)
            for atom in query.atoms
        }
        if columnar and rides_buffers(semiring):
            assert all(isinstance(r, ColumnarRelation) for r in rels.values())
        head = tuple(v.name for v in query.head_terms)
        stats = EvalStats()
        with tracing(Tracer()) as tracer:
            got = enumerate_answers(tree, dict(rels), head, stats)
        found = list(derivations(query, db))
        assert got.rows == {row for row, _ in found}
        if tag in ("count", "int"):
            assert got.annotations == dict(Counter(row for row, _ in found))
        elif tag == "provenance":
            expected = {}
            for row, facts in found:
                expected.setdefault(row, set()).add(frozenset(facts))
            assert got.annotations == {
                row: frozenset(sets) for row, sets in expected.items()
            }
        else:
            costs = {}
            for row, facts in found:
                cost = sum(db.weight(p, fact) for p, fact in facts)
                costs.setdefault(row, {})[frozenset(facts)] = cost
            for row, (cost, witness) in got.annotations.items():
                assert cost == pytest.approx(min(costs[row].values()))
                # The witness is one derivation of the row, at that cost.
                assert costs[row][frozenset(witness)] == pytest.approx(cost)

        # A node whose subtree brings no head variable it lacks joins
        # marginals that are all key: no join there outgrows its bag.
        # Those are the self-contained nodes, the ones the set-semantics
        # program of the same tree and head joins nothing into.
        attributes = {node: rels[node].attributes for node in tree.nodes}
        program = sweep_program(tree, ANSWER, attributes, head)
        joined = {op.node for op in program.ops if type(op) is Join}
        closed = {node.predicate for node in tree.nodes if node not in joined}
        size = {node.predicate: len(rels[node]) for node in tree.nodes}
        for span in tracer.spans():
            node = span.attrs.get("node")
            if span.name == "sweep.join" and node in closed:
                assert span.attrs["rows"] <= size[node]


class TestTheProgramIsWhatRuns:
    """The interpreter runs a program's operators, in order, and
    ``EvalStats`` counts exactly those: one semijoin per
    :class:`Semijoin`, one join per :class:`Join`, one projection per
    :class:`Project` and per marginal a join takes."""

    @settings(max_examples=60, deadline=None)
    @given(
        query=acyclic_queries(),
        terminal=st.sampled_from([ANSWER, NONEMPTY, REDUCED]),
        annotated=st.booleans(),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 6),
        tuples=st.integers(1, 12),
        pick=st.integers(0, 4),
    )
    def test_operators_run_by_kind_are_the_counts(
        self, query, terminal, annotated, seed, domain, tuples, pick
    ):
        db = random_database(query, domain, tuples, seed=seed)
        tree = rerooted(query, pick)
        rels = {
            atom: bind_atom_annotated(atom, db, COUNTING)
            if annotated else bind_atom(atom, db)
            for atom in query.atoms
        }
        head = tuple(v.name for v in query.head_terms)
        run = {
            ANSWER: lambda s: enumerate_answers(tree, dict(rels), head, s),
            NONEMPTY: lambda s: boolean_eval(tree, dict(rels), s),
            REDUCED: lambda s: full_reduce(tree, dict(rels), s),
        }[terminal]
        stats = EvalStats()
        with ran_operators() as ran:
            run(stats)
        program = sweep_program(
            tree, terminal, {a: rels[a].attributes for a in tree.nodes},
            head, weighted=annotated,
        )
        assert tuple(ran) == program.ops

        def kind(t):
            return sum(type(op) is t for op in ran)

        marginals = sum(
            type(op) is Join and op.marginal is not None for op in ran
        )
        assert kind(Semijoin) == stats.semijoins
        assert kind(Join) == stats.joins
        assert kind(Project) + marginals == stats.projections
