"""Unit tests for the columnar storage layer.

The row engine is the oracle throughout: a ColumnarRelation is an
indistinguishable drop-in for the Relation it was converted from —
same rows, same equality, same operator results — while storing each
column as one contiguous buffer.
"""

import math
import pickle

import pytest

from repro.db import Database, Relation
from repro.db import columnar as columnar_mod
from repro.db.annotated import AnnotatedRelation
from repro.db.columnar import (
    LAYOUTS,
    OPERATOR_COSTS,
    Column,
    ColumnarRelation,
    RowsView,
    default_layout,
    encode_column,
    from_columns,
    lift_columnar,
    to_columnar,
)
from repro.db.semiring import COUNTING
from repro._errors import SchemaError
from tests.conftest import spy_on


def rel(attrs, rows, name="r"):
    return Relation.from_rows(attrs, rows, name)


class TestEncodeColumn:
    def test_pure_int_packs_as_i(self):
        col = encode_column((3, -7, 3, 0))
        assert col.kind == "i"
        assert list(col.values()) == [3, -7, 3, 0]

    def test_pure_float_packs_as_f(self):
        col = encode_column((1.5, -2.25))
        assert col.kind == "f"
        assert list(col.values()) == [1.5, -2.25]

    def test_strings_dictionary_encode(self):
        col = encode_column(("a", "b", "a"))
        assert col.kind == "o"
        assert list(col.values()) == ["a", "b", "a"]
        assert set(col.pool) == {"a", "b"}

    def test_mixed_types_dictionary_encode(self):
        col = encode_column((1, "x", 2.0))
        assert col.kind == "o"
        assert list(col.values()) == [1, "x", 2.0]

    def test_bool_is_not_int(self):
        # bool ⊂ int numerically, but identity-sensitive consumers must
        # get the original objects back, so bools dictionary-encode.
        col = encode_column((True, False, True))
        assert col.kind == "o"
        assert list(col.values()) == [True, False, True]

    def test_nan_floats_dictionary_encode(self):
        # NaN != NaN under float64 compare, but row-set membership is
        # identity-based; the dict pool preserves that.
        nan = float("nan")
        col = encode_column((nan, 1.0))
        assert col.kind == "o"
        decoded = list(col.values())
        assert decoded[0] is nan
        assert decoded[1] == 1.0

    def test_beyond_int64_dictionary_encodes(self):
        big = 2**80
        col = encode_column((big, 1))
        assert col.kind == "o"
        assert list(col.values()) == [big, 1]

    def test_int64_extremes_stay_packed(self):
        lo, hi = -(2**63), 2**63 - 1
        col = encode_column((lo, hi, -1))
        assert col.kind == "i"
        assert list(col.values()) == [lo, hi, -1]

    def test_pickle_round_trip(self):
        col = encode_column(("a", 1, "a"))
        back = pickle.loads(pickle.dumps(col))
        assert list(back.values()) == ["a", 1, "a"]
        assert back.kind == col.kind


class TestColumn:
    def test_take_and_compress(self):
        col = encode_column((10, 20, 30, 40))
        assert list(col.take([3, 0]).values()) == [40, 10]
        assert list(col.compress(bytes([1, 0, 0, 1])).values()) == [10, 40]

    def test_distinct(self):
        assert encode_column(("a", "b", "a")).distinct() == {"a", "b"}
        assert encode_column((1, 1, 2)).distinct() == {1, 2}


class TestRowsView:
    """``ColumnarRelation.rows``: a frozenset to every consumer, but one
    that is only built when a hash table is actually needed."""

    ROWS = [(i, f"s{i % 3}") for i in range(12)]

    def pair(self):
        r = rel(("a", "b"), self.ROWS)
        return r, to_columnar(r)

    def test_len_and_iteration_build_no_table(self):
        r, c = self.pair()
        view = c.rows
        assert isinstance(view, RowsView) and c.rows is view
        assert len(view) == len(r.rows) and bool(view)
        assert sorted(view) == sorted(r.rows)
        assert sum(1 for _ in view) == 12  # iterable more than once
        assert view._frozen is None

    def test_set_questions_build_it_once(self):
        r, c = self.pair()
        view = c.rows
        assert (3, "s0") in view and (3, "s1") not in view
        assert view.frozen() is view.frozen()
        assert sorted(view) == sorted(r.rows)  # iterates the kept set

    def test_equality_and_hash_both_ways(self):
        r, c = self.pair()
        other = to_columnar(rel(("a", "b"), self.ROWS[1:]))
        assert c.rows == r.rows and r.rows == c.rows
        assert c.rows == set(r.rows) and c.rows == to_columnar(r).rows
        assert c.rows != other.rows and r.rows != other.rows
        assert hash(c.rows) == hash(r.rows)
        assert {c.rows: 1}[r.rows] == 1

    def test_set_algebra_yields_frozensets(self):
        r, c = self.pair()
        extra = frozenset({(99, "x")})
        for out in (c.rows | extra, extra | c.rows, c.rows.union(extra)):
            assert type(out) is frozenset and out == r.rows | extra
        assert c.rows - r.rows == frozenset() == r.rows - c.rows
        assert c.rows & extra == frozenset() and c.rows.isdisjoint(extra)
        assert c.rows <= r.rows <= c.rows and c.rows.issubset(r.rows)
        assert extra < (c.rows | extra) and not c.rows < r.rows
        merged = set(extra)
        merged.update(c.rows)
        assert merged == r.rows | extra

    def test_pickles_and_converts_to_a_plain_frozenset(self):
        r, c = self.pair()
        back = pickle.loads(pickle.dumps(c.rows))
        assert type(back) is frozenset and back == r.rows
        assert type(c.row_relation().rows) is frozenset
        assert type(to_columnar(rel(("a",), [])).rows) is frozenset


class TestConversion:
    def test_round_trip_preserves_rows(self):
        r = rel(("a", "b"), [(1, "x"), (2, "y"), (1, "y")])
        c = to_columnar(r)
        assert isinstance(c, ColumnarRelation)
        assert c.rows == r.rows
        assert c.attributes == r.attributes
        assert len(c) == len(r)
        assert c.row_relation().rows == r.rows

    def test_equality_and_hash_cross_representation(self):
        r = rel(("a", "b"), [(1, 2), (3, 4)])
        c = to_columnar(r)
        assert c == r
        assert r == c
        assert hash(c) == hash(r)

    def test_already_columnar_is_identity(self):
        c = to_columnar(rel(("a",), [(1,)]))
        assert to_columnar(c) is c

    def test_annotated_passes_through(self):
        ann = AnnotatedRelation.make(
            ("a",), frozenset({(1,)}), "r", COUNTING, {(1,): 2}
        )
        assert to_columnar(ann) is ann

    def test_zero_ary_stays_row(self):
        unit = Relation.trusted((), frozenset({()}), "unit")
        assert to_columnar(unit) is unit

    def test_empty_relation(self):
        r = rel(("a", "b"), [])
        c = to_columnar(r)
        assert isinstance(c, ColumnarRelation)
        assert len(c) == 0
        assert c.rows == frozenset()

    def test_from_columns(self):
        c = from_columns(("a", "b"), [(1, 2, 1), ("x", "y", "x")])
        assert c.rows == {(1, "x"), (2, "y")}

    def test_from_columns_validates(self):
        with pytest.raises(SchemaError):
            from_columns(("a", "a"), [(1,), (2,)])
        with pytest.raises(SchemaError):
            from_columns(("a", "b"), [(1, 2), (3,)])


class TestOperators:
    """Each operator against the row oracle on targeted shapes."""

    def test_semijoin_int_keys(self):
        left = rel(("a", "b"), [(i, i * 2) for i in range(50)])
        right = rel(("b", "c"), [(i * 2, i) for i in range(0, 50, 3)])
        expect = left.semijoin(right)
        got = to_columnar(left).semijoin(to_columnar(right))
        assert got.rows == expect.rows
        # ... and against a row-side partner too.
        assert to_columnar(left).semijoin(right).rows == expect.rows

    def test_semijoin_dict_keys(self):
        left = rel(("a", "b"), [(f"k{i}", i) for i in range(40)])
        right = rel(("a",), [(f"k{i}",) for i in range(0, 40, 4)])
        expect = left.semijoin(right)
        assert to_columnar(left).semijoin(to_columnar(right)).rows == expect.rows

    def test_semijoin_heterogeneous_keys(self):
        left = rel(("a",), [(1,), (2.0,), ("3",), (4,)])
        right = rel(("a",), [(1,), ("3",)])
        expect = left.semijoin(right)
        assert to_columnar(left).semijoin(to_columnar(right)).rows == expect.rows

    def test_semijoin_all_and_none_survive(self):
        left = to_columnar(rel(("a",), [(1,), (2,)]))
        everything = to_columnar(rel(("a",), [(1,), (2,), (3,)]))
        nothing = to_columnar(rel(("a",), [(9,)]))
        assert left.semijoin(everything) is left
        assert left.semijoin(nothing).rows == frozenset()

    def test_semijoin_extreme_ints(self):
        lo, hi = -(2**63), 2**63 - 1
        left = rel(("a",), [(lo,), (hi,), (-1,), (0,)])
        right = rel(("a",), [(lo,), (-1,)])
        expect = left.semijoin(right)
        assert to_columnar(left).semijoin(to_columnar(right)).rows == expect.rows

    def test_semijoin_multi_column_key(self):
        left = rel(("a", "b", "c"), [(i % 5, i % 3, i) for i in range(60)])
        right = rel(("a", "b"), [(i % 5, i % 4) for i in range(20)])
        expect = left.semijoin(right)
        assert to_columnar(left).semijoin(to_columnar(right)).rows == expect.rows

    def test_join_unique_and_duplicate_build_keys(self):
        left = rel(("a", "b"), [(i, i % 7) for i in range(40)])
        right = rel(("b", "c"), [(i % 7, i) for i in range(25)])
        expect = left.join(right)
        got = to_columnar(left).join(to_columnar(right))
        assert got.rows == expect.rows
        assert got.attributes == expect.attributes

    def test_join_dict_by_dict(self):
        left = rel(("a", "b"), [(f"u{i%6}", f"v{i}") for i in range(30)])
        right = rel(("a", "c"), [(f"u{i%9}", i) for i in range(20)])
        expect = left.join(right)
        assert (
            to_columnar(left).join(to_columnar(right)).rows == expect.rows
        )

    def test_join_mixed_kind_shared_column(self):
        # int column joined against a dict-encoded column of ints.
        left = rel(("a", "b"), [(i, i) for i in range(20)])
        right = rel(("a", "c"), [(i if i % 2 else f"s{i}", i) for i in range(20)])
        expect = left.join(right)
        assert (
            to_columnar(left).join(to_columnar(right)).rows == expect.rows
        )

    def test_cross_product(self):
        left = rel(("a",), [(i,) for i in range(5)])
        right = rel(("b",), [(i,) for i in range(4)])
        expect = left.join(right)
        got = to_columnar(left).join(to_columnar(right))
        assert got.rows == expect.rows
        assert len(got) == 20

    def test_join_annotated_partner_stays_annotated(self):
        left = to_columnar(rel(("a", "b"), [(1, 2), (3, 4)]))
        ann = AnnotatedRelation.make(
            ("b", "c"), frozenset({(2, 9), (4, 8)}), "s", COUNTING,
            {(2, 9): 2, (4, 8): 3},
        )
        out = left.join(ann)
        assert isinstance(out, AnnotatedRelation)
        assert out.rows == {(1, 2, 9), (3, 4, 8)}

    def test_project_single_column(self):
        r = rel(("a", "b"), [(i % 7, i) for i in range(50)])
        c = to_columnar(r)
        assert c.project(["a"]).rows == r.project(["a"]).rows
        assert c.project(["b"]).rows == r.project(["b"]).rows

    def test_project_identity_and_permutation(self):
        r = rel(("a", "b"), [(1, 2), (3, 4)])
        c = to_columnar(r)
        assert c.project(["a", "b"]).rows == r.rows
        assert c.project(["b", "a"]).rows == r.project(["b", "a"]).rows

    @pytest.mark.parametrize(
        "value",
        [
            lambda i: i,  # packed ints
            lambda i: i - 2**63 if i % 2 else 2**63 - 1 - i,  # int64 extremes
            lambda i: f"s{i}",  # dictionary codes
            lambda i: i / 2,  # packed floats
        ],
    )
    @pytest.mark.parametrize("collapses", [False, True])
    def test_project_multi_column(self, value, collapses):
        """Two of three columns: dedup is over raw values whichever path
        the column kinds select, and whether or not any row collapses."""
        rows = [(value(i % 5), value(i % 4), i) for i in range(20)]
        if collapses:
            rows += [(value(0), value(0), 99)]
        r = rel(("a", "b", "c"), rows)
        c = to_columnar(r)
        for attrs in (("a", "b"), ("b", "a"), ("c", "a")):
            out = c.project(attrs)
            assert out.rows == r.project(attrs).rows
            assert len(out) == len(out.rows)

    def test_project_to_empty_schema(self):
        c = to_columnar(rel(("a",), [(1,)]))
        out = c.project([])
        assert out.rows == {()}
        empty = to_columnar(rel(("a",), []))
        assert empty.project([]).rows == frozenset()

    def test_project_rejects_duplicates(self):
        c = to_columnar(rel(("a", "b"), [(1, 2)]))
        with pytest.raises(SchemaError):
            c.project(["a", "a"])

    def test_key_set_matches_row(self):
        r = rel(("a", "b"), [(i % 9, f"s{i % 4}") for i in range(40)])
        c = to_columnar(r)
        for attrs in (("a",), ("b",), ("a", "b")):
            assert c.key_set(attrs) == r.key_set(attrs)

    def test_nan_column_operations(self):
        nan = float("nan")
        r = rel(("a", "b"), [(nan, 1), (2.0, 2)])
        c = to_columnar(r)
        assert c.rows == r.rows
        filt = rel(("a",), [(nan,)])
        assert c.semijoin(to_columnar(filt)).rows == r.semijoin(filt).rows


class TestLayoutPolicy:
    def test_layout_constants(self):
        assert LAYOUTS == ("row", "columnar", "auto")
        assert default_layout() in LAYOUTS

    def test_cost_table_prices_every_operator_on_both_layouts(self):
        operators = {
            "bag", "bag2", "semijoin", "semijoin2", "join", "join2", "project"
        }
        assert set(OPERATOR_COSTS) == {"numpy", "python"}
        for tables in OPERATOR_COSTS.values():
            assert set(tables) == {"row", "columnar"}
            for table in tables.values():
                assert set(table) == operators
                assert all(
                    fixed >= 0 and per_row >= 0 and fixed + per_row > 0
                    for fixed, per_row in table.values()
                )

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAYOUT", "columnar")
        assert default_layout() == "columnar"
        monkeypatch.setenv("REPRO_LAYOUT", "bogus")
        assert default_layout() == "auto"
        monkeypatch.delenv("REPRO_LAYOUT")
        assert default_layout() == "auto"


def _weighted(attrs, rows, weighted: bool):
    """*rows* as a columnar relation, weighted 1, 2, 3, … in row order
    when *weighted* (the row carrier where no weight column can ride)."""
    plain = rel(attrs, rows)
    if not weighted:
        return to_columnar(plain)
    weights = {row: 1 + i for i, row in enumerate(rows)}
    return lift_columnar(
        AnnotatedRelation.lift(plain, COUNTING, weights), COUNTING
    )


def _weight(side, row):
    """*row*'s weight in *side*, a plain side counting one."""
    return 1 if side.semiring is None else side.annotation(row)


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run a test with the vectorised kernels and with numpy hidden (the
    pure-Python kernels: ``bytes`` masks and ``dict`` probes)."""
    if request.param == "numpy" and columnar_mod._np is None:
        pytest.skip("vectorised kernels need numpy")
    if request.param == "python":
        monkeypatch.setattr(columnar_mod, "_np", None)
    return request.param


class TestProbeJoin:
    """A single-key join of columnar relations runs the vectorised probe
    join (:func:`repro.db.columnar._np_probe_join`) — or, with numpy
    hidden, the pure-Python one — and answers what the row join answers:
    rows, weights and the flavour of the higher-ranked side."""

    #: (left rows over (a, b), right rows over (b, c)).  The smaller
    #: side builds.
    CASES = {
        "unique, build left": (
            [(i, i % 5) for i in range(5)],
            [(i % 7, i) for i in range(30)],
        ),
        "unique, build right": (
            [(i, i % 7) for i in range(30)],
            [(i, -i) for i in range(5)],
        ),
        "duplicates, build left": (
            [(i, i % 3) for i in range(6)],
            [(i % 4, i) for i in range(20)],
        ),
        "duplicates, build right": (
            [(i, i % 4) for i in range(20)],
            [(i % 3, i) for i in range(6)],
        ),
        "no match": (
            [(i, i) for i in range(5)],
            [(100 + i, i) for i in range(10)],
        ),
        "sparse keys": (
            [(0, 0), (1, 2**62)],
            [(2**62, 1), (0, 2), (5, 3)],
        ),
        "far probe": (
            [(i, i) for i in range(4)],
            [(2**50, 1), (2, 2), (-(2**62), 3), (3, 4), (3, 5)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("weighted", ["none", "left", "right", "both"])
    def test_equals_the_row_join(self, case, weighted, kernels, monkeypatch):
        l_rows, r_rows = self.CASES[case]
        left = _weighted(("a", "b"), l_rows, weighted in ("left", "both"))
        right = _weighted(("b", "c"), r_rows, weighted in ("right", "both"))
        expected = rel(("a", "b"), l_rows).join(rel(("b", "c"), r_rows))
        calls = spy_on(monkeypatch, columnar_mod, "_np_probe_join")
        got = left.join(right)
        assert got.attributes == ("a", "b", "c")
        assert got.rows == expected.rows
        if weighted == "none":
            assert got.semiring is None
        else:
            # A weighted side outranks a plain one, whichever side it is.
            assert got.semiring is COUNTING
            assert dict(got.annotations) == {
                row: _weight(left, row[:2]) * _weight(right, row[1:])
                for row in expected.rows
            }
        if kernels == "numpy":
            assert isinstance(got, ColumnarRelation)
            assert [out is not None for out in calls] == [True]
        else:
            assert not calls


class TestSelectRows:
    """A semijoin's survivors: every column and the weight column gather
    by one index vector (numpy) or compress by one ``bytes`` mask (numpy
    hidden), and stay aligned."""

    def test_weights_stay_aligned_and_the_bound_stays(self, kernels):
        rows = [(i, f"v{i % 3}") for i in range(12)]
        weights = [(7 * i) % 11 - 5 for i in range(12)]
        full = ColumnarRelation.make(
            ("a", "b"),
            (encode_column([r[0] for r in rows]),
             encode_column([r[1] for r in rows])),
            "r", len(rows), encode_column(weights), COUNTING, 9,
        )
        keep = [i % 3 != 1 for i in range(12)]
        masks = [bytes(keep)]
        if kernels == "numpy":
            masks.append(columnar_mod._np.array(keep))
        for mask in masks:
            got = full._select_rows(mask, sum(keep))
            assert list(got) == [r for r, k in zip(rows, keep) if k]
            assert list(got.weights.data) == [
                w for w, k in zip(weights, keep) if k
            ]
            assert len(got) == sum(keep) and got.bound == 9
            assert got.semiring is COUNTING
