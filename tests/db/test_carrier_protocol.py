"""The carrier protocol, run on every carrier.

``repro.db.relation``'s module docstring is the whole contract of a
relation carrier.  This suite runs every operator in it on every
carrier — row, annotated, columnar (plain and with a weight column),
each also cut into 1 and 3 shards — against two oracles that share no
code with them: the row carrier's own answer for the rows, and a
brute-force ``plus`` / ``times`` fold over ``{row: value}`` dicts for
the annotations.  Sharded carriers are cut on the backend
``$REPRO_BACKEND`` names, so the process-backend CI leg sends every
flavour through a worker (and back) on its own ``__reduce__``.

The last class pins the surface: a carrier has no public method the
docstring does not list, so a second, unused operator set cannot grow
back unnoticed.
"""

import inspect
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import relation as relation_module
from repro.db.annotated import AnnotatedRelation
from repro.db.backend import default_backend_kind, make_backend
from repro.db.columnar import (
    ColumnarRelation,
    lift_columnar,
    rides_buffers,
    to_columnar,
)
from repro.db.relation import Relation
from repro.db.semiring import COUNTING, INT_RING
from repro.db.sharded import ShardedRelation

FLAVOURS = ("row", "annotated", "columnar", "weighted")
SHARDS = (None, 1, 3)
ANNOTATED = ("annotated", "weighted")

needs_weight_columns = pytest.mark.skipif(
    not rides_buffers(COUNTING), reason="weight columns need numpy"
)
CARRIERS = [
    pytest.param(
        flavour, shards,
        id=flavour + (f"-sharded{shards}" if shards else ""),
        marks=[needs_weight_columns] if flavour == "weighted" else [],
    )
    for flavour in FLAVOURS
    for shards in SHARDS
]
PIECES = [c for c in CARRIERS if c.values[1] is None]


@pytest.fixture(scope="module")
def ctx():
    backend = make_backend(default_backend_kind(), workers=2)
    yield backend
    backend.close()


def build(flavour, shards, attrs, weights, name, semiring, ctx, key=None):
    """The relation ``{row: weight}`` over *attrs* as one carrier (cut
    on *key*, by default the first attribute); the set-semantics
    flavours drop the weights."""
    rel = Relation.from_rows(attrs, weights, name)
    if flavour in ANNOTATED:
        rel = AnnotatedRelation.lift(rel, semiring, weights)
    if flavour == "columnar":
        rel = to_columnar(rel)
    elif flavour == "weighted":
        rel = lift_columnar(rel, semiring)
        assert isinstance(rel, ColumnarRelation) and rel.weights is not None
    if shards:
        rel = ShardedRelation.shard(rel, key or attrs[0], shards, ctx)
    return rel


def model(flavour, weights, semiring):
    """What :func:`build` holds, as the brute-force fold sees it."""
    if flavour in ANNOTATED:
        return dict(weights)
    return dict.fromkeys(weights, semiring.one)


def resident(rel):
    """Whether *rel*'s operators leave their results in process-backend
    workers (and so hand back fresh handles every time)."""
    return isinstance(rel, ShardedRelation) and rel.context.kind == "process"


def pick(attrs, row, onto):
    return tuple(row[attrs.index(a)] for a in onto)


def brute_semijoin(l_attrs, left, r_attrs, right):
    shared = [a for a in l_attrs if a in r_attrs]
    partners = {pick(r_attrs, row, shared) for row in right}
    return {
        row: value
        for row, value in left.items()
        if pick(l_attrs, row, shared) in partners
    }


def brute_join(l_attrs, left, r_attrs, right, times):
    shared = [a for a in l_attrs if a in r_attrs]
    extra = [a for a in r_attrs if a not in l_attrs]
    out = {}
    for l_row, l_value in left.items():
        for r_row, r_value in right.items():
            if pick(l_attrs, l_row, shared) == pick(r_attrs, r_row, shared):
                out[l_row + pick(r_attrs, r_row, extra)] = times(
                    l_value, r_value
                )
    return l_attrs + tuple(extra), out


def brute_project(attrs, rel, onto, plus):
    out = {}
    for row, value in rel.items():
        key = pick(attrs, row, onto)
        out[key] = plus(out[key], value) if key in out else value
    return out


def check(out, attrs, expected, annotated, name=None):
    """*out* holds exactly *expected* — rows, and values when
    *annotated* — over *attrs*."""
    rel = out.to_relation()
    assert out.attributes == rel.attributes == tuple(attrs)
    assert len(out) == len(expected) and bool(out) == bool(expected)
    assert set(rel.rows) == set(expected)
    if name is not None:
        assert out.name == name
    if annotated:
        assert dict(rel.annotations) == expected
        assert all(rel.annotation(row) == v for row, v in expected.items())
    else:
        assert getattr(rel, "annotations", None) is None


values = st.integers(0, 4)
semirings = st.sampled_from([COUNTING, INT_RING])


def weighted_rows(arity, semiring):
    low = -3 if semiring is INT_RING else 1
    return st.dictionaries(
        st.tuples(*[values] * arity), st.integers(low, 5), max_size=14
    )


@st.composite
def operands(draw):
    semiring = draw(semirings)
    return (
        semiring,
        draw(weighted_rows(2, semiring)),
        draw(weighted_rows(2, semiring)),
    )


@pytest.mark.parametrize("flavour, shards", CARRIERS)
class TestOperands:
    """The operand half: what the Yannakakis sweeps call."""

    @settings(max_examples=15, deadline=None)
    @given(data=operands())
    def test_semijoin_and_join_with_every_partner(
        self, ctx, flavour, shards, data
    ):
        semiring, l_weights, r_weights = data
        l_attrs = ("a", "b")
        # Cut on the shared attribute, like the partners: 3 shards meet
        # a 3-shard partner pairwise and everything else by broadcast.
        left = build(
            flavour, shards, l_attrs, l_weights, "l", semiring, ctx, key="b"
        )
        l_model = model(flavour, l_weights, semiring)
        row_left = Relation.from_rows(l_attrs, l_weights, "l")
        for (r_flavour, r_shards), r_attrs in itertools.product(
            (*((f, None) for f in FLAVOURS), ("row", 3), ("annotated", 3)),
            (("b", "c"), ("b", "a")),  # one shared attribute, and two
        ):
            if r_flavour == "weighted" and not rides_buffers(semiring):
                continue
            row_right = Relation.from_rows(r_attrs, r_weights, "r")
            right = build(
                r_flavour, r_shards, r_attrs, r_weights, "r", semiring, ctx
            )
            r_model = model(r_flavour, r_weights, semiring)

            semi = left.semijoin(right)
            expected = brute_semijoin(l_attrs, l_model, r_attrs, r_model)
            check(semi, l_attrs, expected, flavour in ANNOTATED, "l")
            assert set(semi.to_relation().rows) == row_left.semijoin(row_right).rows
            if expected == l_model and not resident(left):
                assert semi is left  # nothing filtered: the receiver itself

            joined = left.join(right, name="j")
            out_attrs, expected = brute_join(
                l_attrs, l_model, r_attrs, r_model, semiring.times
            )
            check(
                joined, out_attrs, expected,
                flavour in ANNOTATED or r_flavour in ANNOTATED, "j",
            )
            assert set(joined.to_relation().rows) == row_left.join(row_right).rows

    @settings(max_examples=15, deadline=None)
    @given(semiring=semirings, data=st.data())
    def test_project(self, ctx, flavour, shards, semiring, data):
        attrs = ("a", "b", "c")
        weights = data.draw(weighted_rows(3, semiring))
        rel = build(flavour, shards, attrs, weights, "r", semiring, ctx)
        held = model(flavour, weights, semiring)
        row = Relation.from_rows(attrs, weights, "r")
        for onto in (["a"], ["b"], ["a", "c"], ["c", "b", "a"], ["a", "b", "c"], []):
            out = rel.project(onto, name="p")
            expected = brute_project(attrs, held, onto, semiring.plus)
            check(out, onto, expected, flavour in ANNOTATED, "p")
            assert set(out.to_relation().rows) == row.project(onto).rows

    @settings(max_examples=15, deadline=None)
    @given(semiring=semirings, data=st.data())
    def test_key_set_and_to_relation(self, ctx, flavour, shards, semiring, data):
        attrs = ("a", "b")
        weights = data.draw(weighted_rows(2, semiring))
        rel = build(flavour, shards, attrs, weights, "r", semiring, ctx)
        assert rel.key_set(("a",)) == {row[0] for row in weights}
        assert rel.key_set(("b", "a")) == {(b, a) for a, b in weights}
        assert rel.key_set(("a",)) is rel.key_set(("a",))  # memoised
        assert rel.n_shards == (shards or 1)
        whole = rel.to_relation()
        assert isinstance(whole, Relation) and whole.n_shards == 1
        assert whole.to_relation() is whole
        if not shards:
            assert whole is rel
        check(rel, attrs, model(flavour, weights, semiring), flavour in ANNOTATED, "r")

    def test_an_empty_partner_empties_into_the_receivers_flavour(
        self, ctx, flavour, shards
    ):
        weights = {(i, i % 3): i + 1 for i in range(9)}
        rel = build(flavour, shards, ("a", "b"), weights, "r", COUNTING, ctx)
        kind = type(
            build(flavour, None, ("a", "b"), weights, "r", COUNTING, ctx)
        )
        nothing = Relation.empty(("b", "c"), "none")
        for partner in (
            nothing,
            to_columnar(nothing),
            ShardedRelation.shard(nothing, "b", 3, ctx),
        ):
            out = rel.semijoin(partner)
            check(out, ("a", "b"), {}, flavour in ANNOTATED, "r")
            assert type(out) is type(rel)
            assert type(out.to_relation()) is kind
            if shards and not resident(out):
                assert all(type(piece) is kind for piece in out.shards)
            check(rel.join(partner), ("a", "b", "c"), {}, flavour in ANNOTATED)

    def test_a_zero_ary_operand_on_either_side(self, ctx, flavour, shards):
        """What no carrier but the row ones can hold (there is nothing
        to pack or to cut) still joins and semijoins with every one:
        ``{()}`` is the unit of ⋈, the empty 0-ary relation its zero."""
        weights = {(i, i % 3): i + 1 for i in range(9)}
        attrs = ("a", "b")
        rel = build(flavour, shards, attrs, weights, "r", COUNTING, ctx)
        held = model(flavour, weights, COUNTING)
        for zero, value in (
            (Relation.from_rows((), [()], "z"), 1),
            (AnnotatedRelation.lift(
                Relation.from_rows((), [()], "z"), COUNTING, {(): 3}
            ), 3),
            (Relation.empty((), "z"), None),
        ):
            annotated = flavour in ANNOTATED or value == 3
            expected = (
                {} if value is None
                else {row: v * value for row, v in held.items()}
            )
            check(rel.join(zero, name="j"), attrs, expected, annotated, "j")
            check(zero.join(rel, name="j"), attrs, expected, annotated, "j")
            kept = rel.semijoin(zero)
            if value is None:
                check(kept, attrs, {}, flavour in ANNOTATED, "r")
            elif not resident(rel):
                assert kept is rel
            assert zero.semijoin(rel) is zero

    def test_signatures_are_the_row_carriers(self, flavour, shards):
        carrier = ShardedRelation if shards else {
            "row": Relation, "annotated": AnnotatedRelation,
        }.get(flavour, ColumnarRelation)
        for op in ("semijoin", "join", "project", "key_set", "to_relation"):
            assert list(
                inspect.signature(getattr(carrier, op)).parameters
            ) == list(inspect.signature(getattr(Relation, op)).parameters)


@pytest.mark.parametrize("flavour, shards", PIECES)
class TestPieces:
    """What the single-piece carriers add for the sharded kernel and for
    atom binding."""

    @settings(max_examples=15, deadline=None)
    @given(data=operands())
    def test_semijoin_with_keys(self, ctx, flavour, shards, data):
        semiring, l_weights, r_weights = data
        left = build(flavour, None, ("a", "b"), l_weights, "l", semiring, ctx)
        held = model(flavour, l_weights, semiring)
        for shared, r_attrs in ((("b",), ("b", "c")), (("a", "b"), ("a", "b"))):
            partner = Relation.from_rows(r_attrs, r_weights, "r")
            out = left.semijoin_with_keys(shared, partner.key_set(shared))
            expected = brute_semijoin(("a", "b"), held, r_attrs, r_weights)
            check(out, ("a", "b"), expected, flavour in ANNOTATED, "l")
            if expected == held:
                assert out is left  # nothing filtered: the receiver itself

    def test_relabel_shares_storage(self, ctx, flavour, shards):
        weights = {(1, 2): 5, (1, 3): 6, (2, 3): 7}
        rel = build(flavour, None, ("a", "b"), weights, "r", COUNTING, ctx)
        out = rel.relabel(("x", "y"), "view")
        assert type(out) is type(rel)
        check(
            out, ("x", "y"), model(flavour, weights, COUNTING),
            flavour in ANNOTATED, "view",
        )
        if isinstance(rel, ColumnarRelation):
            assert all(a is b for a, b in zip(out.columns, rel.columns))
            assert out.weights is rel.weights
        else:
            assert out.rows is rel.rows

    def test_no_rows_keeps_the_flavour(self, ctx, flavour, shards):
        rel = build(
            flavour, None, ("a", "b"), {(1, 2): 5}, "r", COUNTING, ctx
        )
        out = rel._no_rows(("x", "y", "z"), "none")
        assert type(out) is type(rel)
        check(out, ("x", "y", "z"), {}, flavour in ANNOTATED, "none")
        assert getattr(out, "semiring", None) is getattr(rel, "semiring", None)
        if flavour in ANNOTATED:
            assert out.total() == 0 and out.strip().attributes == out.attributes
        # ... and is a working operand of its kind
        assert not out.join(rel) and not rel.semijoin(out)


class TestSurface:
    """No carrier has a public method outside the documented protocol."""

    DOCUMENTED = set(re.findall(r"``(\w+)", relation_module.__doc__))
    REMOVED = (
        "select", "select_eq", "rename", "union", "intersect",
        "difference", "reorder",
    )
    CLASSES = (Relation, AnnotatedRelation, ColumnarRelation, ShardedRelation)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_public_callables_are_documented(self, cls):
        public = {
            name
            for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))
        }
        assert public <= self.DOCUMENTED, sorted(public - self.DOCUMENTED)
        assert not public & set(self.REMOVED)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_every_carrier_answers_the_operand_protocol(self, cls):
        for name in (
            "semijoin", "join", "project", "key_set", "to_relation", "n_shards",
        ):
            assert name in self.DOCUMENTED and hasattr(cls, name), name
