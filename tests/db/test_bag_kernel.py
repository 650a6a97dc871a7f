"""One Lemma 4.6 bag operator.

``Bag`` is the single pipeline behind every plan, the literal Lemma 4.6
one (``literal_plan``) included, run by ``run_program``.  The oracle is
the pipeline as the lemma states it, written with plain operators and no
shortcuts: start from the unit relation, join every bound
(pre-projected) atom, project onto χ.  A literal bag joins the node's
contributing λ atoms; a planned one may add the query atoms χ covers, so
the two are related by inclusion, not equality.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Constant, Variable
from repro.core.detkdecomp import hypertree_width
from repro.db import COUNTING, MINCOST, Database, EvalStats, Relation, bind_atom
from repro.db import columnar as columnar_mod
from repro.db.annotated import AnnotatedRelation, bind_atom_annotated
from repro.db.columnar import ColumnarRelation, rides_buffers
from repro.db.yannakakis import Bag, Part, RunContext, bag_program, run_program
from repro.generators.workloads import random_database
from tests.conftest import assert_bag_contract, small_queries

_ARITY = {"p": 2, "q": 3, "u": 1, "z": 0}
_VARS = [Variable(n) for n in "ABCDE"]
_TERM = st.one_of(
    st.sampled_from(_VARS), st.sampled_from([Constant(0), Constant(1)])
)


@st.composite
def _atoms(draw):
    predicate = draw(st.sampled_from(sorted(_ARITY)))
    terms = draw(
        st.lists(
            _TERM, min_size=_ARITY[predicate], max_size=_ARITY[predicate]
        )
    )
    return Atom(predicate, tuple(terms))


def _database(seed: int, weights: bool) -> Database:
    rng = random.Random(seed)
    db = Database()
    for predicate, arity in _ARITY.items():
        db.declare(predicate, arity)
        for _ in range(rng.randrange(0, 12) if arity else rng.randrange(2)):
            row = tuple(rng.randrange(3) for _ in range(arity))
            db.add_fact(
                predicate, *row,
                weight=rng.choice([0.5, 1.0, 2.0]) if weights else None,
            )
    return db


def _bag(
    atoms, chi, db, stats=None, semiring=None, carriers=(), columnar=False
):
    """The relation of one ``Bag`` operator over *atoms*, named ``bag``
    and run through the interpreter."""
    node = Atom("bag", tuple(sorted(chi, key=lambda v: v.name)))
    names = tuple(v.name for v in node.terms)
    op = Bag(node, names, tuple(Part.of(a, chi, a in carriers) for a in atoms))
    context = RunContext(db, columnar, semiring)
    return run_program(bag_program([op]), {}, stats, context)[node]


def _contributing(atoms, chi):
    """The caller-side Lemma 4.6 case split: an atom with variables but
    none in χ contributes nothing."""
    return [a for a in atoms if (a.variables & chi) or not a.variables]


def _by_the_lemma(atoms, chi, db, semiring=None, carriers=()):
    if semiring is not None:
        rel = AnnotatedRelation.unit(semiring, "bag")
    else:
        rel = Relation((), frozenset({()}), "bag")
    for a in atoms:
        if a in carriers:
            part = bind_atom_annotated(a, db, semiring)
        else:
            part = bind_atom(a, db)
        part = part.project(sorted(v.name for v in a.variables & chi))
        rel = rel.join(part)
    return rel.project(sorted(v.name for v in chi), name="bag")


class TestKernelAgainstTheLemma:
    @settings(max_examples=200, deadline=None)
    @given(
        atoms=st.lists(_atoms(), min_size=0, max_size=4),
        chi=st.sets(st.sampled_from(_VARS), max_size=4),
        seed=st.integers(0, 1000),
        columnar=st.booleans(),
    )
    def test_set_semantics_row_and_columnar(self, atoms, chi, seed, columnar):
        chi = frozenset(chi)
        atoms = _contributing(atoms, chi)
        covered = set().union(*(a.variables for a in atoms)) if atoms else set()
        chi &= covered  # χ ⊆ var(λ): condition 3 of a decomposition
        db = _database(seed, weights=False)
        stats = EvalStats()
        got = _bag(atoms, chi, db, stats, columnar=columnar)
        expected = _by_the_lemma(atoms, chi, db)
        assert got == expected
        assert isinstance(got, ColumnarRelation) == (columnar and bool(chi))
        # Operator counts follow the lemma's pipeline, not the shortcuts.
        assert stats.joins == len(atoms)
        assert stats.projections == 1 + sum(
            1 for a in atoms if not a.variables <= chi
        )

    @settings(max_examples=200, deadline=None)
    @given(
        atoms=st.lists(_atoms(), min_size=0, max_size=4),
        chi=st.sets(st.sampled_from(_VARS), max_size=4),
        seed=st.integers(0, 1000),
        pick=st.randoms(use_true_random=False),
        semiring=st.sampled_from([COUNTING, MINCOST]),
        columnar=st.booleans(),
    )
    def test_annotated(self, atoms, chi, seed, pick, semiring, columnar):
        chi = frozenset(chi)
        atoms = _contributing(atoms, chi)
        covered = set().union(*(a.variables for a in atoms)) if atoms else set()
        chi &= covered
        # Any subset of the χ-covered atoms may carry annotations here.
        carriers = {
            a for a in atoms if a.variables <= chi and pick.random() < 0.6
        }
        db = _database(seed, weights=True)
        got = _bag(
            atoms, chi, db, EvalStats(), semiring, carriers,
            columnar=columnar,
        )
        expected = _by_the_lemma(atoms, chi, db, semiring, carriers)
        # Counts ride a weight column; mincost's (cost, witness) pairs
        # cannot, and stay on the row carrier whatever the layout.
        assert isinstance(got, ColumnarRelation) == (
            columnar and bool(chi) and semiring is COUNTING
            and rides_buffers(semiring)
        )
        assert got.semiring is semiring
        assert got == expected
        assert got.annotations == expected.annotations


class TestOneKernelTwoCallers:
    @settings(max_examples=40, deadline=None)
    @given(query=small_queries(), seed=st.integers(0, 100))
    def test_plan_bags_sit_between_the_full_join_and_the_literal_bags(
        self, query, seed
    ):
        db = random_database(query, 3, 6, seed=seed)
        _, hd = hypertree_width(query.as_boolean())
        assert_bag_contract(query, db, hd)


def _view_db(values) -> Database:
    """Three binary relations over *values*, each fact weighted."""
    rng = random.Random(4)
    db = Database()
    for predicate in ("r", "s", "t"):
        for _ in range(40):
            db.add_fact(
                predicate, rng.choice(values), rng.choice(values),
                weight=rng.choice([1.0, 2.0, 3.0]),
            )
    return db


_A, _B, _C, _D = _VARS[:4]
_R, _S, _T = Atom("r", (_A, _B)), Atom("s", (_B, _C)), Atom("t", (_C, _D))


class TestJoinedInTheBuffers:
    """Under a columnar layout every part that can be a view is one, and
    what they join into is never encoded."""

    @pytest.mark.parametrize(
        "values", [list(range(8)), list("abcdefgh")], ids=["int", "str"]
    )
    @pytest.mark.parametrize("semiring", [None, COUNTING], ids=["set", "count"])
    @pytest.mark.parametrize(
        "atoms, chi",
        [
            ([_R, _S], {_A, _B, _C}),
            ([_R, _S], {_A, _C}),  # both parts pre-projected: a product
            ([_R, _S, _T], {_A, _B, _C, _D}),
            ([_R, _T, _S], {_A, _B, _D}),  # s is projected onto B
        ],
    )
    def test_no_joined_result_is_encoded(
        self, monkeypatch, values, semiring, atoms, chi
    ):
        if semiring is not None and not rides_buffers(semiring):
            pytest.skip("weights ride buffers only with numpy")
        chi = frozenset(chi)
        db = _view_db(values)
        carriers = [a for a in atoms if a.variables <= chi] if semiring else ()
        expected = _by_the_lemma(atoms, chi, db, semiring, carriers)
        for a in atoms:  # the snapshots' buffers exist; nothing else may
            db.snapshot(a.predicate).columnar
        monkeypatch.setattr(
            columnar_mod, "encode_column",
            lambda values: pytest.fail("a bag part or result was encoded"),
        )
        got = _bag(
            atoms, chi, db, EvalStats(), semiring, carriers,
            columnar=True,
        )
        assert isinstance(got, ColumnarRelation)
        assert got == expected
        if semiring is not None:
            assert got.weights is not None
            assert got.annotations == expected.annotations

    @pytest.mark.skipif(
        not rides_buffers(COUNTING), reason="weight columns need numpy"
    )
    @pytest.mark.parametrize("atoms", [[_R], [_R, _S]])
    def test_a_weighted_bag_without_carriers_counts_one_per_row(self, atoms):
        chi = frozenset().union(*(a.variables for a in atoms))
        empty = Database()
        empty.declare("r", 2)
        empty.declare("s", 2)
        for db in (_view_db(list(range(8))), empty):
            got = _bag(
                atoms, chi, db, EvalStats(), COUNTING, (),
                columnar=True,
            )
            assert isinstance(got, ColumnarRelation)
            assert got.semiring is COUNTING and got.weights is not None
            assert got.annotations == dict.fromkeys(got.rows, 1)

    @pytest.mark.parametrize(
        "guarded",
        [
            Atom("s", (_B, Constant(3))),  # a constant: filtered rows
            Atom("s", (_B, _B)),  # a repeated variable
            Atom("z", ()),  # 0-ary: nothing to pack
        ],
        ids=["constant", "repeated", "zero-ary"],
    )
    @pytest.mark.parametrize("semiring", [None, COUNTING, MINCOST])
    def test_what_cannot_be_a_view_still_lands_in_the_bag(
        self, guarded, semiring
    ):
        db = _view_db(list(range(8)))
        db.add_fact("z")
        db.add_fact("s", 3, 3, weight=2.0)
        atoms, chi = [_R, guarded], frozenset({_A, _B})
        carriers = atoms if semiring is not None else ()
        expected = _by_the_lemma(atoms, chi, db, semiring, carriers)
        assert expected  # the guard path has rows to get right
        got = _bag(
            atoms, chi, db, EvalStats(), semiring, carriers,
            columnar=True,
        )
        # Encoded after the join — except mincost's (cost, witness)
        # pairs, which no column can hold.
        assert isinstance(got, ColumnarRelation) == (
            semiring is None or rides_buffers(semiring)
        )
        assert got == expected
        if semiring is not None:
            assert got.semiring is semiring
            assert got.annotations == expected.annotations
