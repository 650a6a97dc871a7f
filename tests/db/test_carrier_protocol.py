"""The carrier protocol, run on every carrier.

``repro.db.relation``'s module docstring is the whole contract of a
relation carrier.  This suite runs every operator in it on every
carrier — row, annotated, columnar (plain and with a weight column) —
and every kind of column a columnar carrier packs (machine ints, floats,
dictionary-encoded strings and mixes, and an int column meeting a
dictionary one) — against two oracles that share no code with them: the
row carrier's own answer for the rows, and a brute-force ``plus`` /
``times`` fold over ``{row: value}`` dicts for the annotations.  Every
carrier also round-trips through ``pickle`` on its own ``__reduce__``.

The last class pins the surface: a carrier has no public method the
docstring does not list, so a second, unused operator set cannot grow
back unnoticed — and the three carriers stay the only ones.
"""

import importlib.util
import inspect
import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.db
from repro.db import relation as relation_module
from repro.db.annotated import AnnotatedRelation
from repro.db.columnar import (
    ColumnarRelation,
    lift_columnar,
    rides_buffers,
    to_columnar,
    weighted_view,
)
from repro.db.database import Snapshot
from repro.db.relation import Relation
from repro.db.semiring import COUNTING, INT_RING, MINCOST

FLAVOURS = ("row", "annotated", "columnar", "weighted")
ANNOTATED = ("annotated", "weighted")

needs_weight_columns = pytest.mark.skipif(
    not rides_buffers(COUNTING), reason="weight columns need numpy"
)
CARRIERS = [
    pytest.param(
        flavour,
        id=flavour,
        marks=[needs_weight_columns] if flavour == "weighted" else [],
    )
    for flavour in FLAVOURS
]


def build(flavour, attrs, weights, name, semiring):
    """The relation ``{row: weight}`` over *attrs* as one carrier; the
    set-semantics flavours drop the weights."""
    rel = Relation.from_rows(attrs, weights, name)
    if flavour in ANNOTATED:
        rel = AnnotatedRelation.lift(rel, semiring, weights)
    if flavour == "columnar":
        rel = to_columnar(rel)
    elif flavour == "weighted":
        rel = lift_columnar(rel, semiring)
        assert isinstance(rel, ColumnarRelation) and rel.weights is not None
    return rel


def model(flavour, weights, semiring):
    """What :func:`build` holds, as the brute-force fold sees it."""
    if flavour in ANNOTATED:
        return dict(weights)
    return dict.fromkeys(weights, semiring.one)


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
    assert out.attributes == tuple(attrs)
    assert len(out) == len(expected) and bool(out) == bool(expected)
    assert set(out.rows) == set(expected)
    if name is not None:
        assert out.name == name
    if annotated:
        assert dict(out.annotations) == expected
        assert all(out.annotation(row) == v for row, v in expected.items())
    else:
        assert getattr(out, "annotations", None) is None


#: Ten distinct values of each kind of column ``repro.db.columnar``
#: packs: machine ints (int64's ends included), floats, strings, and a
#: mix — ints beyond int64, ``None``, a string and a float beside small
#: ints — that only a dictionary column holds.  The operand tests draw
#: from the first five, so keys collide.
DOMAINS = {
    "int": (0, 1, -1, 2**63 - 1, -(2**63), 7, 42, -42, 2**31, 3),
    "float": (0.5, -1.5, 2.25, 1e300, -1e-300, 3.5, 7.75, -8.5, 1e-9, 100.5),
    "str": ("a", "", "b", "é", "a b", "c", "d", "e", "f", "g"),
    "mixed": (2**64, 0, None, -(2**65), "x", 3, 2**70, "y", -1, 1.5),
}
#: The binary operators also meet a partner of another kind: an int
#: receiver against a dictionary column that shares some of its values.
CROSSED = (0, "x", -1, 2**70, -(2**63), None, 42, "z", 2**31, 2.5)
#: (receiver domain, partner domain) per encoding.
PAIRS = {
    **{kind: (domain, domain) for kind, domain in DOMAINS.items()},
    "crossed": (DOMAINS["int"], CROSSED),
}
encoded = pytest.mark.parametrize("encoding", list(DOMAINS))
paired = pytest.mark.parametrize("encoding", list(PAIRS))

semirings = st.sampled_from([COUNTING, INT_RING])


def encode(domain, weights):
    """*weights* with every value ``i`` in its rows replaced by
    ``domain[i]``."""
    return {tuple(domain[i] for i in row): v for row, v in weights.items()}


def weighted_rows(arity, semiring, domain):
    low = -3 if semiring is INT_RING else 1
    values = st.integers(0, 4).map(domain.__getitem__)
    return st.dictionaries(
        st.tuples(*[values] * arity), st.integers(low, 5), max_size=14
    )


@st.composite
def operands(draw, encoding):
    semiring = draw(semirings)
    mine, theirs = PAIRS[encoding]
    return (
        semiring,
        draw(weighted_rows(2, semiring, mine)),
        draw(weighted_rows(2, semiring, theirs)),
    )


@pytest.mark.parametrize("flavour", CARRIERS)
class TestOperands:
    """The operand half: what the Yannakakis sweeps call."""

    @paired
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_semijoin_and_join_with_every_partner(
        self, flavour, encoding, data
    ):
        semiring, l_weights, r_weights = data.draw(operands(encoding))
        l_attrs = ("a", "b")
        left = build(flavour, l_attrs, l_weights, "l", semiring)
        l_model = model(flavour, l_weights, semiring)
        row_left = Relation.from_rows(l_attrs, l_weights, "l")
        for r_flavour, r_attrs in itertools.product(
            FLAVOURS,
            (("b", "c"), ("b", "a")),  # one shared attribute, and two
        ):
            if r_flavour == "weighted" and not rides_buffers(semiring):
                continue
            row_right = Relation.from_rows(r_attrs, r_weights, "r")
            right = build(r_flavour, r_attrs, r_weights, "r", semiring)
            r_model = model(r_flavour, r_weights, semiring)

            semi = left.semijoin(right)
            expected = brute_semijoin(l_attrs, l_model, r_attrs, r_model)
            check(semi, l_attrs, expected, flavour in ANNOTATED, "l")
            assert set(semi.rows) == row_left.semijoin(row_right).rows
            if expected == l_model:
                assert semi is left  # nothing filtered: the receiver itself

            joined = left.join(right, name="j")
            out_attrs, expected = brute_join(
                l_attrs, l_model, r_attrs, r_model, semiring.times
            )
            check(
                joined, out_attrs, expected,
                flavour in ANNOTATED or r_flavour in ANNOTATED, "j",
            )
            assert set(joined.rows) == row_left.join(row_right).rows

    @encoded
    @settings(max_examples=15, deadline=None)
    @given(semiring=semirings, data=st.data())
    def test_project(self, flavour, encoding, semiring, data):
        attrs = ("a", "b", "c")
        weights = data.draw(weighted_rows(3, semiring, DOMAINS[encoding]))
        rel = build(flavour, attrs, weights, "r", semiring)
        held = model(flavour, weights, semiring)
        row = Relation.from_rows(attrs, weights, "r")
        for onto in (["a"], ["b"], ["a", "c"], ["c", "b", "a"], ["a", "b", "c"], []):
            out = rel.project(onto, name="p")
            expected = brute_project(attrs, held, onto, semiring.plus)
            check(out, onto, expected, flavour in ANNOTATED, "p")
            assert set(out.rows) == row.project(onto).rows

    @encoded
    @settings(max_examples=15, deadline=None)
    @given(semiring=semirings, data=st.data())
    def test_key_set(self, flavour, encoding, semiring, data):
        attrs = ("a", "b")
        weights = data.draw(weighted_rows(2, semiring, DOMAINS[encoding]))
        rel = build(flavour, attrs, weights, "r", semiring)
        assert rel.key_set(("a",)) == {row[0] for row in weights}
        assert rel.key_set(("b", "a")) == {(b, a) for a, b in weights}
        assert rel.key_set(("a",)) is rel.key_set(("a",))  # memoised
        check(rel, attrs, model(flavour, weights, semiring), flavour in ANNOTATED, "r")

    @encoded
    def test_an_empty_partner_empties_into_the_receivers_flavour(
        self, flavour, encoding
    ):
        weights = encode(
            DOMAINS[encoding], {(i, i % 3): i + 1 for i in range(9)}
        )
        rel = build(flavour, ("a", "b"), weights, "r", COUNTING)
        nothing = Relation.empty(("b", "c"), "none")
        for partner in (nothing, to_columnar(nothing)):
            out = rel.semijoin(partner)
            check(out, ("a", "b"), {}, flavour in ANNOTATED, "r")
            assert type(out) is type(rel)
            check(rel.join(partner), ("a", "b", "c"), {}, flavour in ANNOTATED)

    @encoded
    def test_a_zero_ary_operand_on_either_side(self, flavour, encoding):
        """What no carrier but the row ones can hold (there is nothing
        to pack) still joins and semijoins with every one: ``{()}`` is
        the unit of ⋈, the empty 0-ary relation its zero."""
        weights = encode(
            DOMAINS[encoding], {(i, i % 3): i + 1 for i in range(9)}
        )
        attrs = ("a", "b")
        rel = build(flavour, attrs, weights, "r", COUNTING)
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
            else:
                assert kept is rel
            assert zero.semijoin(rel) is zero

    def test_signatures_are_the_row_carriers(self, flavour):
        carrier = {
            "row": Relation, "annotated": AnnotatedRelation,
        }.get(flavour, ColumnarRelation)
        for op in ("semijoin", "join", "project", "key_set"):
            assert list(
                inspect.signature(getattr(carrier, op)).parameters
            ) == list(inspect.signature(getattr(Relation, op)).parameters)


@pytest.mark.parametrize("flavour", CARRIERS)
class TestKernels:
    """What the carriers build their operators from, and what atom
    binding uses."""

    @paired
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_semijoin_with_keys(self, flavour, encoding, data):
        semiring, l_weights, r_weights = data.draw(operands(encoding))
        left = build(flavour, ("a", "b"), l_weights, "l", semiring)
        held = model(flavour, l_weights, semiring)
        for shared, r_attrs in ((("b",), ("b", "c")), (("a", "b"), ("a", "b"))):
            partner = Relation.from_rows(r_attrs, r_weights, "r")
            out = left.semijoin_with_keys(shared, partner.key_set(shared))
            expected = brute_semijoin(("a", "b"), held, r_attrs, r_weights)
            check(out, ("a", "b"), expected, flavour in ANNOTATED, "l")
            if expected == held:
                assert out is left  # nothing filtered: the receiver itself

    @encoded
    def test_relabel_shares_storage(self, flavour, encoding):
        weights = encode(DOMAINS[encoding], {(1, 2): 5, (1, 3): 6, (2, 3): 7})
        rel = build(flavour, ("a", "b"), weights, "r", COUNTING)
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

    def test_no_rows_keeps_the_flavour(self, flavour):
        rel = build(flavour, ("a", "b"), {(1, 2): 5}, "r", COUNTING)
        out = rel._no_rows(("x", "y", "z"), "none")
        assert type(out) is type(rel)
        check(out, ("x", "y", "z"), {}, flavour in ANNOTATED, "none")
        assert getattr(out, "semiring", None) is getattr(rel, "semiring", None)
        if flavour in ANNOTATED:
            assert out.total() == 0 and out.strip().attributes == out.attributes
        # ... and is a working operand of its kind
        assert not out.join(rel) and not rel.semijoin(out)


_NAN = float("nan")
#: Ints (a pure-int column packs as int64), and what forces a dictionary
#: column: NaN, an int beyond int64, strings, None, mixed types.
_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from([_NAN, 2**70, -(2**65), "x", None, 1.5])
)


@st.composite
def any_carrier(draw):
    """One relation of any flavour (a database snapshot too): 0-3
    attributes, 0-10 rows, values of every column kind."""
    arity = draw(st.integers(0, 3))
    rows = draw(st.sets(st.tuples(*[_VALUES] * arity), max_size=10))
    attrs = tuple("abc"[:arity])
    flavour = draw(st.sampled_from((*FLAVOURS, "snapshot")))
    if flavour == "snapshot":
        return Snapshot.build("e", arity, rows, version=3)
    rel = Relation.from_rows(attrs, rows, "r")
    if flavour == "columnar":
        return to_columnar(rel)
    if flavour in ANNOTATED:
        semiring = draw(st.sampled_from([COUNTING, INT_RING, MINCOST]))
        if semiring is MINCOST:
            values = {
                row: (float(i), (("e", row),)) for i, row in enumerate(rows)
            }
        else:
            values = {row: draw(st.integers(1, 2**40)) for row in rows}
        rel = AnnotatedRelation.lift(rel, semiring, values)
        if flavour == "weighted":
            # A weight column where the semiring and the build have one
            # (count / ℤ with numpy), the row carrier otherwise.
            rel = lift_columnar(rel, semiring)
    return rel


def _same(back, rel):
    """*back* is *rel* after a trip through pickle: same class (a
    snapshot arrives as a plain relation), same fields.  Rows and
    annotations compare by ``repr``: an unpickled NaN is another object,
    so no longer ``==`` the original."""
    expected = Relation if isinstance(rel, Snapshot) else type(rel)
    assert type(back) is expected
    assert (back.attributes, back.name) == (rel.attributes, rel.name)
    assert len(back) == len(rel)
    assert sorted(map(repr, back.rows)) == sorted(map(repr, rel.rows))
    assert getattr(back, "bound", None) == getattr(rel, "bound", None)
    assert getattr(back, "semiring", None) is getattr(rel, "semiring", None)
    mine, theirs = (getattr(x, "annotations", None) for x in (back, rel))
    assert (mine is None) == (theirs is None)
    if mine is not None:
        assert sorted(map(repr, mine.items())) == sorted(
            map(repr, theirs.items())
        )


class TestPickling:
    """Every carrier pickles through its own ``__reduce__``: its fields
    and nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(rel=any_carrier())
    def test_every_carrier_round_trips(self, rel):
        back = pickle.loads(pickle.dumps(rel))
        _same(back, rel)
        if not any("nan" in repr(row) for row in rel.rows):
            assert back == rel and back.rows == rel.rows
        # ... and is a working operand on arrival
        assert len(back.semijoin(back)) == len(back)
        assert len(back.project(back.attributes[:1])) <= len(back)

    @needs_weight_columns
    def test_a_weight_column_keeps_its_bound(self):
        rows = [(i, f"s{i % 3}") for i in range(20)]
        rel = weighted_view(
            to_columnar(Relation.from_rows(("a", "b"), rows, "w")),
            COUNTING, {row: 7 * (row[0] + 1) for row in rows},
        )
        back = pickle.loads(pickle.dumps(rel))
        assert back.weights is not None and back.bound == rel.bound == 140
        assert back == rel and back.annotations == rel.annotations
        assert back.total() == rel.total()

    @settings(max_examples=60, deadline=None)
    @given(rel=any_carrier())
    def test_memos_do_not_travel(self, rel):
        """The pickled size is the same before and after every memoised
        structure is built."""
        cold = len(pickle.dumps(rel))
        attrs = rel.attributes
        for key in {attrs[:1], attrs}:
            rel.key_set(key)
            rel.key_index(key)
        assert () in rel.rows or len(rel.rows) == len(rel)  # builds the set
        getattr(rel, "annotations", None)
        if isinstance(rel, Snapshot):
            rel.columnar
        assert len(pickle.dumps(rel)) == cold


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestSurface:
    """No carrier has a public method outside the documented protocol."""

    DOCUMENTED = set(re.findall(r"``(\w+)", relation_module.__doc__))
    REMOVED = (
        "select", "select_eq", "rename", "union", "intersect",
        "difference", "reorder",
    )
    #: What only the sharded carrier needed; it must not grow back.
    SHARD_SURFACE = ("n_shards", "to_relation", "shard")
    CLASSES = (Relation, AnnotatedRelation, ColumnarRelation)

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
        for name in ("semijoin", "join", "project", "key_set"):
            assert name in self.DOCUMENTED and hasattr(cls, name), name

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
    def test_no_shard_surface(self, cls):
        for name in self.SHARD_SURFACE:
            assert not hasattr(cls, name), name
            assert name not in self.DOCUMENTED, name

    def test_three_carriers(self):
        """The row, annotated and columnar carriers are the only ones: a
        database snapshot is a row relation by another constructor, and
        no sharded carrier (or module for one) exists."""
        carriers = {c for c in _subclasses(Relation) if c is not Snapshot}
        assert carriers == {AnnotatedRelation, ColumnarRelation}
        for module in (repro, repro.db):
            assert not hasattr(module, "ShardedRelation")
        for name in ("repro.db.sharded", "repro.db.backend", "repro.db.shm"):
            assert importlib.util.find_spec(name) is None, name
