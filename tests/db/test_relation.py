"""Unit tests for the relational algebra engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import SchemaError, UnknownAttributeError
from repro.db.relation import Relation


class _CountingRows(frozenset):
    """A frozenset that counts how many times it is iterated — used to
    assert that empty-input short-circuits really skip the row scan."""

    def __new__(cls, iterable=()):
        obj = super().__new__(cls, iterable)
        obj.iterations = 0
        return obj

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.fixture
def r():
    return Relation.from_rows(("a", "b"), [(1, 2), (1, 3), (2, 3)], "r")


@pytest.fixture
def s():
    return Relation.from_rows(("b", "c"), [(2, 10), (3, 11), (4, 12)], "s")


class TestConstruction:
    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Relation(("a", "a"), frozenset())

    def test_row_width_checked(self):
        with pytest.raises(SchemaError):
            Relation(("a",), frozenset({(1, 2)}))

    def test_rows_deduplicated(self):
        rel = Relation.from_rows(("a",), [(1,), (1,)])
        assert len(rel) == 1

    def test_empty(self):
        rel = Relation.empty(("a", "b"))
        assert not rel and rel.arity == 2


class TestProject:
    def test_basic(self, r):
        p = r.project(["a"])
        assert p.rows == {(1,), (2,)}

    def test_reorder_columns(self, r):
        p = r.project(["b", "a"])
        assert (2, 1) in p.rows

    def test_duplicate_removal(self, r):
        assert len(r.project(["a"])) == 2

    def test_empty_projection_keeps_existence(self, r):
        p = r.project([])
        assert p.rows == {()}

    def test_unknown_attribute(self, r):
        with pytest.raises(SchemaError):
            r.project(["zzz"])

    def test_unknown_attribute_is_typed(self, r):
        with pytest.raises(UnknownAttributeError, match="zzz"):
            r.project(["zzz"])


class TestJoin:
    def test_natural_join(self, r, s):
        out = r.join(s)
        assert out.attributes == ("a", "b", "c")
        assert out.rows == {(1, 2, 10), (1, 3, 11), (2, 3, 11)}

    def test_join_no_shared_attributes_is_product(self):
        a = Relation.from_rows(("x",), [(1,), (2,)])
        b = Relation.from_rows(("y",), [(5,)])
        assert a.join(b).rows == {(1, 5), (2, 5)}

    def test_join_with_empty_is_empty(self, r):
        assert not r.join(Relation.empty(("b",)))

    def test_join_empty_inputs_skip_the_hash_build(self, r):
        """Regression: ⋈ with an empty input used to build the hash
        table / scan the probe side anyway."""
        rows = _CountingRows([(i, i + 1) for i in range(50)])
        big = Relation.trusted(("a", "b"), rows, "big")
        empty = Relation.empty(("b", "c"), name="none")
        out = big.join(empty)
        assert not out and out.attributes == ("a", "b", "c")
        assert rows.iterations == 0
        out = empty.join(big)
        assert not out and out.attributes == ("b", "c", "a")
        assert rows.iterations == 0

    def test_join_commutative_up_to_columns(self, r, s):
        left = r.join(s)
        right = s.join(r)
        assert left.rows == {
            tuple(dict(zip(right.attributes, row))[a] for a in left.attributes)
            for row in right.rows
        }

    def test_self_join_identity(self, r):
        assert r.join(r).rows == r.rows


class TestSemijoin:
    def test_filters_left(self, r, s):
        out = r.semijoin(s)
        assert out.rows == r.rows  # every b value matches

    def test_removes_unmatched(self, r):
        small = Relation.from_rows(("b",), [(2,)])
        assert r.semijoin(small).rows == {(1, 2)}

    def test_never_grows(self, r, s):
        assert len(r.semijoin(s)) <= len(r)

    def test_no_shared_attributes_depends_on_emptiness(self, r):
        nonempty = Relation.from_rows(("z",), [(0,)])
        empty = Relation.empty(("z",))
        assert r.semijoin(nonempty).rows == r.rows
        assert not r.semijoin(empty)

    def test_equals_project_of_join(self, r, s):
        assert r.semijoin(s).rows == r.join(s).project(list(r.attributes)).rows

    def test_empty_other_skips_the_row_scan(self):
        """Regression: ⋉ against an empty relation sharing attributes
        used to scan every row of self against an empty key set."""
        rows = _CountingRows([(i, i + 1) for i in range(50)])
        big = Relation.trusted(("a", "b"), rows, "big")
        out = big.semijoin(Relation.empty(("b", "c")))
        assert not out
        assert out.attributes == ("a", "b")
        assert out.name == "big"
        assert rows.iterations == 0

    def test_empty_self_short_circuits(self):
        empty = Relation.empty(("a", "b"), name="left")
        other = Relation.from_rows(("b",), [(1,)])
        out = empty.semijoin(other)
        assert not out and out.attributes == ("a", "b")
        assert out.name == "left"

    def test_no_shared_attributes_fast_path_keeps_identity_and_name(self, r):
        nonempty = Relation.from_rows(("z",), [(0,)])
        out = r.semijoin(nonempty)
        assert out is r  # identity, so memoised indexes survive
        assert out.name == r.name

    def test_unfiltered_semijoin_returns_self(self, r, s):
        assert r.semijoin(s) is r  # every b value matches

    def test_memoised_key_set_reused(self, s):
        first = s.key_set(("b",))
        assert s.key_set(("b",)) is first
        assert first == {2, 3, 4}

    def test_memoised_key_set_multi_attribute(self, s):
        keys = s.key_set(("b", "c"))
        assert keys == {(2, 10), (3, 11), (4, 12)}
        assert s.key_set(("b", "c")) is keys


class TestAlgebraicLaws:
    @settings(max_examples=50, deadline=None)
    @given(
        rows_r=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
        rows_s=st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12),
    )
    def test_semijoin_idempotent_and_monotone(self, rows_r, rows_s):
        r = Relation.from_rows(("a", "b"), rows_r)
        s = Relation.from_rows(("b", "c"), rows_s)
        once = r.semijoin(s)
        assert once.semijoin(s).rows == once.rows
        assert once.rows <= r.rows

    @settings(max_examples=50, deadline=None)
    @given(
        rows_r=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
        rows_s=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
        rows_t=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
    )
    def test_join_associative(self, rows_r, rows_s, rows_t):
        r = Relation.from_rows(("a", "b"), rows_r)
        s = Relation.from_rows(("b", "c"), rows_s)
        t = Relation.from_rows(("c", "d"), rows_t)
        left = r.join(s).join(t)
        right = r.join(s.join(t))
        assert left.rows == right.rows


class TestTrustedConstructor:
    def test_skips_row_validation(self):
        # A validating constructor rejects this; trusted does not look.
        bad = Relation.trusted(("a", "b"), frozenset({(1,)}), "raw")
        assert bad.rows == {(1,)}
        with pytest.raises(SchemaError):
            Relation(("a", "b"), frozenset({(1,)}), "raw")

    def test_equals_validated_twin(self):
        rows = frozenset({(1, 2), (3, 4)})
        assert Relation.trusted(("a", "b"), rows) == Relation(("a", "b"), rows)
        assert hash(Relation.trusted(("a", "b"), rows)) == hash(
            Relation(("a", "b"), rows)
        )

    def test_operations_still_work(self):
        r = Relation.trusted(("a", "b"), frozenset({(1, 2), (3, 4)}))
        assert r.project(["a"]).rows == {(1,), (3,)}
        assert r.semijoin(Relation.from_rows(("a",), [(1,)])).rows == {(1, 2)}
        assert r.column("b") == {2, 4}

    def test_hot_paths_produce_trusted_results(self):
        """Join/semijoin outputs are schema-correct by construction and
        must not pay the per-row width re-check (guarded indirectly: the
        operations accept large inputs without quadratic re-validation)."""
        r = Relation.from_rows(("a", "b"), [(i, i + 1) for i in range(200)])
        s = Relation.from_rows(("b", "c"), [(i, i + 2) for i in range(200)])
        out = r.join(s)
        assert out.arity == 3
        assert len(out) == 199

    def test_project_still_rejects_duplicate_attributes(self):
        r = Relation.from_rows(("a", "b"), [(1, 2)])
        with pytest.raises(SchemaError):
            r.project(["a", "a"])
