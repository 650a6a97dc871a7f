"""The counting machinery: counted row sets and delta joins."""

import gc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.counting import CountedRows, DeltaJoin, key_of


class TestCountedRows:
    def test_zero_crossings_only(self):
        c = CountedRows(("X",))
        assert c.apply({(1,): 2}) == {(1,): 1}
        assert c.apply({(1,): 3}) == {}  # 2 -> 5: no crossing
        assert c.apply({(1,): -4}) == {}  # 5 -> 1: no crossing
        assert c.apply({(1,): -1}) == {(1,): -1}  # 1 -> 0: vanishes
        assert (1,) not in c

    def test_underflow_raises(self):
        c = CountedRows(("X",))
        c.apply({(1,): 1})
        with pytest.raises(RuntimeError):
            c.apply({(1,): -2})

    def test_zero_weight_ignored(self):
        c = CountedRows(("X",))
        assert c.apply({(1,): 0}) == {}
        assert len(c) == 0

    def test_indexes_maintained(self):
        inp = CountedRows(("X", "Y"))
        index = inp.index_on((0,))
        inp.apply({(1, 2): 1, (1, 3): 1, (2, 4): 1})
        assert set(index[(1,)]) == {(1, 2), (1, 3)}
        inp.apply({(1, 2): -1})
        assert set(index[(1,)]) == {(1, 3)}
        inp.apply({(1, 3): -1})
        assert (1,) not in index

    def test_lazy_index_builds_from_existing_rows(self):
        inp = CountedRows(("X",))
        inp.apply({(1,): 1, (2,): 1})
        assert set(inp.index_on((0,))[(2,)]) == {(2,)}

    def test_support_change_without_crossing_keeps_indexes(self):
        inp = CountedRows(("X", "Y"))
        by_x, by_y = inp.index_on((0,)), inp.index_on((1,))
        assert inp.apply({(1, 2): 1}) == {(1, 2): 1}
        assert inp.apply({(1, 2): 1}) == {}  # 1 -> 2
        assert inp.support((1, 2)) == 2
        assert inp.apply({(1, 2): -1}) == {}  # 2 -> 1
        assert inp.support((1, 2)) == 1
        assert {k: set(b) for k, b in by_x.items()} == {(1,): {(1, 2)}}
        assert {k: set(b) for k, b in by_y.items()} == {(2,): {(1, 2)}}

    def test_full_collection_leaves_counts_tracked(self):
        """An untracked support map would be tracked again, as a young
        object, by the next fresh row: young collections would then
        traverse all of it."""
        c = CountedRows(("X",))
        c.apply({(1,): 1})
        gc.collect()
        assert gc.is_tracked(c.counts)
        c.apply({(2,): 1})
        assert gc.is_tracked(c.counts)

    def test_full_collection_untracks_settled_buckets(self):
        """A bucket of atomic rows drops out of later collections: a set
        bucket would stay tracked, and every full collection would walk
        every bucket of every index."""
        inp = CountedRows(("X", "Y"))
        index = inp.index_on((0,))
        inp.apply({(1, 2): 1, (1, 3): 1, (2, 4): 1})
        gc.collect()
        assert not gc.is_tracked(index[(1,)])
        assert not gc.is_tracked(index[(2,)])
        assert gc.is_tracked(inp.counts)
        # A fresh (tracked) row re-tracks its own bucket only.
        inp.apply({tuple([2, 5]): 1})
        assert gc.is_tracked(index[(2,)])
        assert not gc.is_tracked(index[(1,)])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    arity=st.integers(1, 5),
)
def test_key_of_equals_tuple_of_positions(data, arity):
    """The compiled key is the generator-built tuple for 0, 1 and more
    positions, repeated positions included — and for runs of
    consecutive positions up to the whole row, which compile to a
    slice."""
    row = tuple(
        data.draw(st.lists(st.integers(), min_size=arity, max_size=arity))
    )
    start = data.draw(st.integers(0, arity))
    run = tuple(range(start, data.draw(st.integers(start, arity))))
    positions = data.draw(
        st.lists(st.integers(0, arity - 1), max_size=4).map(tuple)
        | st.just(run)
    )
    assert key_of(positions)(row) == tuple(row[p] for p in positions)


def brute_join_counts(inputs, keep):
    """Reference: natural join of the inputs' row sets, projected onto
    *keep* with bag semantics — row -> number of derivations."""
    rows = [{}]
    for join_input in inputs:
        nxt = []
        for partial in rows:
            for row in join_input.counts:
                bound = dict(partial)
                ok = True
                for attr, value in zip(join_input.attributes, row):
                    if attr in bound and bound[attr] != value:
                        ok = False
                        break
                    bound[attr] = value
                if ok:
                    nxt.append(bound)
        rows = nxt
    return dict(Counter(tuple(b[a] for a in keep) for b in rows))


class TestDeltaJoin:
    def _fresh(self):
        a = CountedRows(("X", "Y"))
        b = CountedRows(("Y", "Z"))
        join = DeltaJoin([a, b], ("X", "Z"))
        return a, b, join, CountedRows(("X", "Z"))

    def test_insert_propagates(self):
        a, b, join, result = self._fresh()
        assert join.apply({0: {(1, 2): 1}}) == ({}, 1)
        out, crossed = join.apply({1: {(2, 3): 1}})
        assert (out, crossed) == ({(1, 3): 1}, 1)
        result.apply(out)
        assert result.rows() == {(1, 3)}

    def test_delete_retracts_at_zero_support(self):
        a, b, join, result = self._fresh()
        result.apply(join.apply({0: {(1, 2): 1, (0, 2): 1}, 1: {(2, 3): 1}})[0])
        # (X, Z) result (1, 3) and (0, 3); delete one supporting left row
        out, _ = join.apply({0: {(0, 2): -1}})
        assert result.apply(out) == {(0, 3): -1}
        # (1, 3) still supported
        assert result.rows() == {(1, 3)}
        out, _ = join.apply({1: {(2, 3): -1}})
        assert result.apply(out) == {(1, 3): -1}
        assert result.rows() == set()

    def test_projection_counts_derivations(self):
        a = CountedRows(("X", "Y"))
        join = DeltaJoin([a], ("X",))
        result = CountedRows(("X",))
        out, _ = join.apply({0: {(1, 2): 1, (1, 3): 1}})
        assert out == {(1,): 2}  # signed output: not thresholded
        result.apply(out)
        assert result.rows() == {(1,)}
        # dropping one derivation does not retract the projected row
        assert result.apply(join.apply({0: {(1, 2): -1}})[0]) == {}
        assert result.apply(join.apply({0: {(1, 3): -1}})[0]) == {(1,): -1}

    def test_support_change_without_crossing_probes_nothing(self):
        a, b, join, _ = self._fresh()
        join.apply({0: {(1, 2): 1}, 1: {(2, 3): 1}})
        assert join.apply({0: {(1, 2): 1}}) == ({}, 0)  # 1 -> 2
        assert join.apply({0: {(1, 2): -1}}) == ({}, 0)  # 2 -> 1
        out, crossed = join.apply({0: {(1, 2): -1}})
        assert (out, crossed) == ({(1, 3): -1}, 1)

    def test_mixed_batch_within_one_apply(self):
        a, b, join, _ = self._fresh()
        join.apply({0: {(1, 2): 1}, 1: {(2, 3): 1}})
        out, crossed = join.apply({0: {(1, 2): -1, (5, 2): 1}})
        assert out == {(1, 3): -1, (5, 3): 1}
        assert crossed == 2

    def test_disjoint_inputs_cross_product(self):
        a = CountedRows(("X",))
        b = CountedRows(("Y",))
        join = DeltaJoin([a, b], ("X", "Y"))
        out, _ = join.apply({0: {(1,): 1}, 1: {(7,): 1, (8,): 1}})
        assert out == {(1, 7): 1, (1, 8): 1}

    def test_missing_projection_attr_rejected(self):
        with pytest.raises(ValueError):
            DeltaJoin([CountedRows(("X",))], ("Z",))

    def test_no_inputs_rejected(self):
        with pytest.raises(ValueError):
            DeltaJoin([], ())


_OPS = st.lists(
    st.tuples(
        st.integers(0, 2),  # input index
        st.integers(0, 3),
        st.integers(0, 3),
        st.booleans(),  # insert / delete
    ),
    min_size=1,
    max_size=40,
)


def _effective(state, index, row, insert):
    """Apply one single-row change to the reference *state*; return the
    signed delta it makes (``None`` when it changes nothing)."""
    if insert == (row in state[index]):
        return None
    if insert:
        state[index].add(row)
        return {row: 1}
    state[index].remove(row)
    return {row: -1}


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_delta_join_equals_recompute(ops):
    """Any interleaving of single-row changes keeps the maintained result
    equal to a from-scratch join of the current input sets, and every
    support equal to its brute-force derivation count."""
    inputs = [
        CountedRows(("X", "Y")),
        CountedRows(("Y", "Z")),
        CountedRows(("Z", "W")),
    ]
    join = DeltaJoin(inputs, ("X", "W"))
    result = CountedRows(("X", "W"))
    state = [set(), set(), set()]
    for index, a, b, insert in ops:
        delta = _effective(state, index, (a, b), insert)
        if delta is None:
            continue
        result.apply(join.apply({index: delta})[0])
        for join_input, rows in zip(inputs, state):
            assert join_input.counts == dict.fromkeys(rows, 1)
        assert result.counts == brute_join_counts(inputs, ("X", "W")), state


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_chained_delta_joins_count_derivations(ops):
    """A child's signed output is its parent's input, as in a view: the
    parent's child slot supports each row by its derivation count in the
    child's projected join, and the answer stays equal to recompute."""
    a, b, c = (
        CountedRows(("X", "Y")),
        CountedRows(("Y", "Z")),
        CountedRows(("Z", "W")),
    )
    child = DeltaJoin([a, b], ("X", "Z"))
    slot = CountedRows(("X", "Z"))
    parent = DeltaJoin([c, slot], ("X", "W"))
    answer = CountedRows(("X", "W"))
    state = [set(), set(), set()]
    for index, x, y, insert in ops:
        delta = _effective(state, index, (x, y), insert)
        if delta is None:
            continue
        if index == 2:
            out, _ = parent.apply({0: delta})
        else:
            fed, _ = child.apply({index: delta})
            out, _ = parent.apply({1: fed}) if fed else ({}, 0)
        answer.apply(out)
        assert slot.counts == brute_join_counts([a, b], ("X", "Z"))
        assert answer.counts == brute_join_counts([c, slot], ("X", "W"))
        assert answer.rows() == set(
            brute_join_counts([a, b, c], ("X", "W"))
        ), state
