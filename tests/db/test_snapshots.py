"""Base-relation snapshots: lifecycle, isolation, and binding as views.

``Database.snapshot(p)`` is the one frozen copy of a relation that every
per-request consumer shares; it may only be replaced by an *effective*
mutation of ``p``.  The stateful suite at the bottom drives warm engines
through interleaved writes and reads and checks every answer against
naive evaluation on a freshly loaded copy — a stale snapshot, columnar
form, value set or annotation map would surface there as a wrong answer.
"""

import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro._errors import EvaluationError, UnknownRelationError
from repro.core.atoms import Atom, Constant, Variable
from repro.core.parser import parse_query
from repro.db import COUNTING, MINCOST, Database, Relation, bind_atom
from repro.db.annotated import bind_atom_annotated
from repro.db.columnar import ColumnarRelation, to_columnar
from repro.db.database import Snapshot
from repro.db.naive import naive_join_eval
from repro.db.stats import CardinalityEstimator
from repro.engine import Engine
from repro.incremental.delta import Delta
from repro.obs import get_registry


def _db() -> Database:
    return Database.from_relations(
        {"e": [(1, 2), (2, 3), (3, 1)], "r": [(1, "a"), (2, "b")]}
    )


def _builds() -> float:
    return get_registry().counter("db.snapshot.builds").value


def _derivations() -> float:
    return get_registry().counter("db.snapshot.derivations").value


def _encoded(snap: Snapshot) -> bool:
    """Whether *snap*'s column buffers were built (asking builds none)."""
    return "_encoding" in snap.__dict__


def _assert_buffers_match(snap: Snapshot) -> None:
    """*snap*'s built buffers hold exactly its rows, once each, and each
    column the values of a fresh encode's (as a multiset: a derived
    buffer lists the rows in its own order)."""
    columnar = snap.columnar
    if not isinstance(columnar, ColumnarRelation):
        assert columnar.rows == snap.rows
        return
    decoded = list(columnar)
    assert len(decoded) == len(snap.rows) == len(columnar)
    assert frozenset(decoded) == snap.rows
    fresh = to_columnar(
        Snapshot.build(snap.name, len(snap.attributes), snap.rows, 0)
    )
    for mine, theirs in zip(columnar.columns, fresh.columns):
        assert len(mine) == len(theirs)
        assert Counter(mine.values()) == Counter(theirs.values())


class TestLifecycle:
    def test_same_object_between_mutations(self):
        db = _db()
        snap = db.snapshot("e")
        assert db.snapshot("e") is snap
        assert db.relation("e") is snap
        assert db.rows("e") is snap.rows
        assert snap.attributes == ("$0", "$1") and snap.name == "e"
        assert snap == Relation.from_rows(("$0", "$1"), snap.rows, "e")

    def test_effective_mutation_replaces_only_that_predicate(self):
        db = _db()
        e, r = db.snapshot("e"), db.snapshot("r")
        assert db.add_fact("e", 7, 8)
        assert db.snapshot("e") is not e
        assert db.snapshot("r") is r
        e = db.snapshot("e")
        assert db.remove_fact("r", 1, "a")
        assert db.snapshot("r") is not r
        assert db.snapshot("e") is e

    def test_noop_writes_keep_the_snapshot(self):
        db = _db()
        e = db.snapshot("e")
        version = db.version
        assert not db.add_fact("e", 1, 2)  # already present
        assert not db.remove_fact("e", 9, 9)  # never there
        db.declare("e", 2)  # re-declaring a known predicate
        assert db.snapshot("e") is e
        assert db.version == version

    def test_declaring_a_new_predicate_bumps_the_version(self):
        """A new predicate changes what the estimator reads (an atom over
        it goes from unknown, 1 row, to empty), so plans priced before
        must not be replayed: the version moves once, the snapshots of
        the other predicates stay."""
        db = _db()
        e = db.snapshot("e")
        version = db.version
        db.declare("fresh", 3)
        assert db.version == version + 1
        assert db.snapshot("e") is e
        db.declare("fresh", 3)
        assert db.version == version + 1

    def test_apply_invalidates_effective_changes_only(self):
        db = _db()
        e, r = db.snapshot("e"), db.snapshot("r")
        effective = db.apply(
            Delta({"e": {(1, 2): 1, (9, 9): -1}, "r": {(5, "z"): 1}})
        )
        assert set(effective.changes) == {"r"}
        assert db.snapshot("e") is e
        assert db.snapshot("r") is not r
        assert (5, "z") in db.rows("r")

    def test_captured_snapshot_keeps_the_old_rows(self):
        db = _db()
        before = db.snapshot("e")
        columnar = before.columnar
        db.add_fact("e", 7, 8)
        db.remove_fact("e", 1, 2)
        assert before.rows == {(1, 2), (2, 3), (3, 1)}
        assert columnar.rows == before.rows
        assert db.rows("e") == {(2, 3), (3, 1), (7, 8)}
        assert db.snapshot("e").columnar.rows == db.rows("e")

    def test_unknown_predicate(self):
        db = _db()
        with pytest.raises(UnknownRelationError):
            db.snapshot("nope")
        with pytest.raises(UnknownRelationError):
            db.relation("nope")
        assert db.rows("nope") == frozenset()
        assert db.cardinality("nope") == 0 and db.cardinality("e") == 3

    def test_derived_forms_are_built_once_per_version(self):
        db = _db()
        snap = db.snapshot("e")
        assert snap.columnar is snap.columnar
        assert isinstance(snap.columnar, ColumnarRelation)
        assert snap.distinct(0) == 3
        assert db.annotations("e", COUNTING) is db.annotations("e", COUNTING)
        assert db.universe is db.universe
        before = _builds()
        db.snapshot("e").columnar
        db.annotations("e", COUNTING)
        _ = db.universe
        assert _builds() == before
        db.add_fact("e", 7, 7)
        assert db.snapshot("e").columnar is not snap.columnar
        assert _builds() > before

    def test_universe_follows_mutations(self):
        db = _db()
        assert db.universe == {1, 2, 3, "a", "b"}
        assert db.universe is db.universe
        assert db.domain_size() == 5
        db.add_fact("r", 4, "c")
        assert db.universe == {1, 2, 3, 4, "a", "b", "c"}
        assert db.domain_size() == 7
        db.remove_fact("r", 4, "c")
        assert db.universe == {1, 2, 3, "a", "b"}
        assert db.domain_size() == 5
        # Kept by counting occurrences: a value leaves with its last
        # row, and hash-equal values (1, 1.0, True) are one, as in a set.
        db.add_fact("r", 1.0, True)
        db.remove_fact("e", 1, 2)
        assert db.domain_size() == len(db.universe)

    def test_estimator_reads_the_current_version(self):
        db = _db()
        atom = Atom("e", (Variable("X"), Constant(2)))
        assert CardinalityEstimator(db).atom_rows(atom) == 1.0  # 3 rows / 3
        db.add_fact("e", 5, 2)
        estimator = CardinalityEstimator(db)
        assert estimator.atom_rows(atom) == pytest.approx(4 / 3)
        assert estimator.domain_size == 6

    def test_weight_writes_drop_annotations_not_the_snapshot(self):
        db = _db()
        snap = db.snapshot("e")
        lifted = db.annotations("e", MINCOST)
        assert lifted[(1, 2)][0] == 1.0
        db.set_weight("e", (1, 2), 5.0)
        assert db.snapshot("e") is snap
        assert db.annotations("e", MINCOST)[(1, 2)][0] == 5.0
        assert lifted[(1, 2)][0] == 1.0  # a reader's map is not rewritten
        db.add_fact("e", 1, 2, weight=7.0)  # present row: weight-only write
        assert db.snapshot("e") is snap
        assert db.annotations("e", MINCOST)[(1, 2)][0] == 7.0


class TestDerivedBuffers:
    """A read after a write patches the base's column buffers."""

    def _db(self, rows=40):
        return Database.from_relations(
            {"e": [(i, (i * 7) % rows) for i in range(rows)]}
        )

    def test_one_fresh_encode_then_one_derivation(self):
        db = self._db()
        builds, derivations = _builds(), _derivations()
        first = db.snapshot("e")
        first.columnar
        assert _builds() == builds + 2  # the snapshot, its encode
        assert _derivations() == derivations
        db.apply(Delta({"e": {(0, 0): -1, (100, 1): 1, (101, 2): 1}}))
        second = db.snapshot("e")
        assert _builds() == builds + 3  # the new snapshot only
        second.columnar
        assert _builds() == builds + 3
        assert _derivations() == derivations + 1
        # A warm static read derives and builds nothing.
        db.snapshot("e").columnar
        assert (_builds(), _derivations()) == (builds + 3, derivations + 1)
        _assert_buffers_match(second)
        _assert_buffers_match(first)  # the base's readers see no change

    def test_derivations_chain_one_base_deep(self):
        db = self._db()
        db.snapshot("e").columnar
        for i in range(5):
            db.add_fact("e", 200 + i, i)
            db.remove_fact("e", i, (i * 7) % 40)
            snap = db.snapshot("e")
            before = _derivations()
            _assert_buffers_match(snap)
            assert _derivations() == before + 1
            assert "_base" not in snap.__dict__  # built: no base kept

    def test_an_unread_version_keeps_the_last_built_base(self):
        db = self._db()
        built = db.snapshot("e")
        built.columnar
        db.add_fact("e", 300, 1)
        db.snapshot("e")  # rows only: not a base when replaced
        db.add_fact("e", 301, 2)
        before = _derivations()
        _assert_buffers_match(db.snapshot("e"))
        assert _derivations() == before + 1

    def test_a_database_only_read_by_rows_keeps_no_base(self):
        db = self._db()
        db.snapshot("e")
        db.add_fact("e", 300, 1)
        before = (_builds(), _derivations())
        db.snapshot("e").columnar
        assert (_builds(), _derivations()) == (before[0] + 2, before[1])

    @pytest.mark.parametrize(
        "row",
        [(2**70, 1), (True, 1), (1.5, 1), ("a", 1)],
        ids=["beyond-int64", "bool", "float", "str"],
    )
    def test_a_value_that_breaks_an_int_column_encodes_afresh(self, row):
        db = self._db()
        db.snapshot("e").columnar
        db.add_fact("e", *row)
        before = _derivations()
        snap = db.snapshot("e")
        _assert_buffers_match(snap)
        assert _derivations() == before
        assert snap.columnar.columns[0].kind == "o"

    def test_float_and_dictionary_columns_derive(self):
        db = Database.from_relations(
            {"f": [(i + 0.5, f"v{i % 5}") for i in range(30)]}
        )
        db.snapshot("f").columnar
        db.apply(Delta({"f": {(0.5, "v0"): -1, (99.5, "new"): 1}}))
        before = _derivations()
        snap = db.snapshot("f")
        _assert_buffers_match(snap)
        assert _derivations() == before + 1
        assert [c.kind for c in snap.columnar.columns] == ["f", "o"]
        db.add_fact("f", math.nan, "v1")  # NaN breaks the float column
        _assert_buffers_match(db.snapshot("f"))
        assert _derivations() == before + 1

    def test_a_change_as_large_as_the_relation_encodes_afresh(self):
        db = self._db(10)
        db.snapshot("e").columnar
        db.apply(Delta({"e": {
            **dict.fromkeys(db.rows("e"), -1),
            **{(50 + i, i): 1 for i in range(10)},
        }}))
        before = _derivations()
        _assert_buffers_match(db.snapshot("e"))
        assert _derivations() == before

    def test_a_pool_stays_within_twice_its_rows(self):
        db = Database.from_relations({"p": [(f"s{i}",) for i in range(8)]})
        db.snapshot("p").columnar
        for i in range(8, 40):  # each write swaps one distinct value
            db.apply(Delta({"p": {(f"s{i - 8}",): -1, (f"s{i}",): 1}}))
            snap = db.snapshot("p")
            _assert_buffers_match(snap)
            assert len(snap.columnar.columns[0].pool) <= 2 * len(snap)

    def test_threads_force_one_derived_snapshot(self):
        """More threads than cores force one derived snapshot's buffers
        at once: whichever build each gets holds the rows, and the base
        is untouched."""
        db = self._db(400)
        base = db.snapshot("e")
        base.columnar
        db.apply(Delta({"e": {(0, 0): -1, (1, 7): -1, (500, 3): 1}}))
        snap = db.snapshot("e")
        barrier = threading.Barrier(4)
        results = []

        def force():
            barrier.wait(timeout=10)
            results.append(snap.columnar)

        threads = [threading.Thread(target=force) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4
        for columnar in results:
            assert len(list(columnar)) == len(snap)
            assert frozenset(columnar) == snap.rows
        _assert_buffers_match(snap)
        _assert_buffers_match(base)


def _effective_by_rows(db: Database, delta: Delta) -> Delta:
    """The row-by-row fold ``Database.apply`` replaced, as reference."""
    effective = {}
    for predicate in sorted(delta.changes):
        changed = {}
        for row, sign in delta.changes[predicate].items():
            if sign > 0:
                if db.add_fact(predicate, *row):
                    changed[row] = 1
            elif db.remove_fact(predicate, *row):
                changed[row] = -1
        if changed:
            effective[predicate] = changed
    return Delta(effective)


_MIXED = st.sampled_from([0, 1, 2, True, 1.0, "a", 2**70])


class TestBatchApply:
    @settings(max_examples=150, deadline=None)
    @given(
        loaded=st.lists(
            st.tuples(st.sampled_from(["p", "q"]), _MIXED, _MIXED),
            max_size=12,
        ),
        weighted=st.lists(st.tuples(_MIXED, _MIXED), max_size=4),
        changes=st.lists(
            st.tuples(
                st.sampled_from(["p", "q", "new", "gone"]),
                st.tuples(_MIXED, _MIXED),
                st.sampled_from([1, -1]),
            ),
            max_size=12,
        ),
        counted=st.booleans(),
    )
    def test_apply_equals_the_row_by_row_fold(
        self, loaded, weighted, changes, counted
    ):
        staged: dict = {}
        for predicate, row, sign in changes:
            staged.setdefault(predicate, {})[row] = sign
        delta = Delta(staged)
        batch, fold = Database(), Database()
        for db in (batch, fold):
            for predicate, *row in loaded:
                db.add_fact(predicate, *row)
            for row in weighted:
                db.set_weight("p", row, 2.5)
            if counted:
                db.domain_size()
        effective = batch.apply(delta)
        assert effective == _effective_by_rows(fold, delta)
        assert list(effective.changes) == sorted(effective.changes)
        assert batch.predicates() == fold.predicates()
        for predicate in batch.predicates():
            assert batch.arity(predicate) == fold.arity(predicate)
            assert batch.rows(predicate) == fold.rows(predicate)
            for row in batch.rows(predicate) | {r for _, r, _ in changes}:
                assert batch.weight(predicate, row) == fold.weight(
                    predicate, row
                )
        assert batch.universe == fold.universe
        assert batch.domain_size() == fold.domain_size()
        assert not batch.has_predicate("gone") or any(
            p == "gone" and s > 0 for p, _, s in changes
        )

    def test_one_version_bump_per_changed_predicate(self):
        db = _db()
        version = db.version
        db.apply(
            Delta({
                "e": {(7, 8): 1, (8, 9): 1, (1, 2): -1, (1, 1): -1},
                "r": {(1, "a"): 1},  # present: no change
                "fresh": {(1,): 1, (2,): 1},
            })
        )
        assert db.version == version + 2
        assert db.arity("fresh") == 1


def _scan_bind(atom: Atom, db: Database) -> Relation:
    """The pre-snapshot ``bind_atom``: one pass over the base rows,
    checking every term.  Kept as the reference the views must match."""
    first_position: dict[Variable, int] = {}
    order: list[Variable] = []
    for i, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term not in first_position:
            first_position[term] = i
            order.append(term)
    rows = set()
    for row in db.rows(atom.predicate):
        if all(
            row[i] == term.value
            if isinstance(term, Constant)
            else row[i] == row[first_position[term]]
            for i, term in enumerate(atom.terms)
        ):
            rows.add(tuple(row[first_position[v]] for v in order))
    return Relation.from_rows(
        tuple(v.name for v in order), rows, str(atom)
    )


_TERMS = st.one_of(
    st.sampled_from([Variable(n) for n in "XYZW"]),
    st.sampled_from([Constant(v) for v in (0, 1, "a")]),
)


class TestBindingViews:
    def test_constants_and_repeated_variables(self):
        db = Database.from_relations(
            {
                "r": [
                    (1, "a", 5, 1),
                    (1, "a", 6, 2),
                    (2, "a", 7, 2),
                    (3, "b", 8, 3),
                ]
            }
        )
        x, y = Variable("X"), Variable("Y")
        atom = Atom("r", (x, Constant("a"), y, x))
        bound = bind_atom(atom, db)
        assert bound.attributes == ("X", "Y")
        assert bound.rows == {(1, 5), (2, 7)}
        assert bound == _scan_bind(atom, db)
        annotated = bind_atom_annotated(atom, db, COUNTING)
        assert annotated.rows == bound.rows
        assert set(annotated.annotations.values()) == {1}

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.lists(_TERMS, min_size=0, max_size=4),
        rows=st.lists(
            st.tuples(*[st.sampled_from([0, 1, "a"])] * 4), max_size=25
        ),
        columnar=st.booleans(),
    )
    def test_bind_matches_the_scan(self, terms, rows, columnar):
        arity = len(terms)
        db = Database()
        db.declare("p", arity)
        for row in rows:
            db.add_fact("p", *row[:arity])
        atom = Atom("p", tuple(terms))
        expected = _scan_bind(atom, db)
        bound = bind_atom(atom, db, columnar=columnar)
        assert bound == expected
        annotated = bind_atom_annotated(atom, db, MINCOST)
        assert annotated.strip() == expected
        assert annotated.annotations.keys() == expected.rows
        # The bound → base row map is injective: every annotation is the
        # lift of exactly one base fact.
        witnesses = [w for _, (w,) in annotated.annotations.values()]
        assert len(set(witnesses)) == len(witnesses)
        assert all(db.contains("p", *fact) for _, fact in witnesses)

    def test_distinct_variables_share_the_snapshot(self):
        db = _db()
        atom = Atom("e", (Variable("B"), Variable("A")))
        snap = db.snapshot("e")
        row_view = bind_atom(atom, db)
        assert row_view.attributes == ("B", "A")
        assert row_view.rows is snap.rows
        col_view = bind_atom(atom, db, columnar=True)
        assert isinstance(col_view, ColumnarRelation)
        assert col_view.columns is snap.columnar.columns
        assert col_view.rows == snap.rows
        annotated = bind_atom_annotated(atom, db, COUNTING)
        assert annotated.rows is snap.rows
        assert annotated.annotations is db.annotations("e", COUNTING)

    def test_errors_are_unchanged(self):
        db = _db()
        with pytest.raises(UnknownRelationError):
            bind_atom(Atom("nope", (Variable("X"),)), db)
        with pytest.raises(EvaluationError, match="arity"):
            bind_atom(Atom("e", (Variable("X"),)), db)
        with pytest.raises(UnknownRelationError):
            bind_atom_annotated(Atom("nope", (Variable("X"),)), db, COUNTING)


class TestWarmEngine:
    @pytest.mark.parametrize("layout", ["row", "columnar", "auto"])
    @pytest.mark.parametrize("semiring", [None, "count"])
    def test_second_identical_request_builds_nothing(self, layout, semiring):
        """Static database, warm engine: no snapshot, columnar encoding,
        value set or annotation map is derived again (asserted through
        the counter, not by timing)."""
        db = Database.from_relations(
            {
                "e": [(i, (i * 7) % 50) for i in range(50)],
                "r": [(i, (i * 3) % 50) for i in range(50)],
            }
        )
        query = parse_query("ans(X, Z) :- e(X, Y), r(Y, Z), e(Z, 7).")
        engine = Engine(layout=layout)
        first = engine.execute(query, db, semiring=semiring)
        before = _builds()
        reuses = get_registry().counter("db.snapshot.reuses").value
        second = engine.execute(query, db, semiring=semiring)
        assert _builds() == before
        assert get_registry().counter("db.snapshot.reuses").value > reuses
        assert second.answer.rows == first.answer.rows
        db.add_fact("r", 100, 100)
        engine.execute(query, db, semiring=semiring)
        assert _builds() > before


_QUERIES = [
    parse_query(text)
    for text in (
        "ans(X, Z) :- e(X, Y), r(Y, Z).",
        "e(X, Y), e(Y, Z), e(Z, X)",
        "ans(X) :- t(X, 1, Y), e(Y, X).",
        "ans(X, Y) :- t(X, Y, X), r(X, Y).",
        "ans(Y) :- e(X, Y), s(Y).",
        "ans(A, B) :- r(B, A).",
    )
]
_ARITY = {"e": 2, "r": 2, "t": 3, "s": 1}
#: One NaN object, so a fact holding it can be re-asserted and retracted.
_NAN = math.nan
#: Each predicate's usual values (r holds floats: 1.0 joins 1) and, one
#: draw in six, one that breaks an int or float column's kind.
_ODD = st.sampled_from([2**70, True, 2.5, _NAN, "a"])
_USUAL = {
    p: st.sampled_from([0.0, 1.0, 2.0, 3.0] if p == "r" else [0, 1, 2, 3])
    for p in _ARITY
}
_FACTS = st.sampled_from(sorted(_ARITY)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.tuples(*[st.one_of(*[_USUAL[p]] * 5, _ODD)] * _ARITY[p]),
    )
)


class SnapshotMachine(RuleBasedStateMachine):
    """Writes of every kind interleaved with warm-engine reads under
    every layout and both semantics; naive evaluation on a freshly
    loaded copy is the oracle.  Column buffers forced between writes
    chain derivations, and values of every kind make each fallback to a
    fresh encode run; every built buffer must hold its snapshot's rows
    and a fresh encode's column values."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        for predicate in ("e", "r", "t"):
            self.db.declare(predicate, _ARITY[predicate])
        self.engines = {
            layout: Engine(layout=layout)
            for layout in ("row", "columnar", "auto")
        }

    @initialize(loaded=st.booleans())
    def load(self, loaded):
        # Empty, or with enough rows that a write or two is a small
        # change to derive buffers for.
        for i in range(8 if loaded else 0):
            self.db.add_fact("e", i % 4, i // 2)
            self.db.add_fact("r", float(i // 2), float(i % 4))
            self.db.add_fact("t", i % 4, i // 4, (i + 1) % 4)

    def teardown(self):
        for engine in self.engines.values():
            engine.close()

    @rule(fact=_FACTS, weight=st.none() | st.floats(0.5, 4.0))
    def add_fact(self, fact, weight):
        predicate, row = fact
        self.db.add_fact(predicate, *row, weight=weight)

    @rule(fact=_FACTS)
    def remove_fact(self, fact):
        predicate, row = fact
        self.db.remove_fact(predicate, *row)

    @rule(changes=st.lists(st.tuples(_FACTS, st.sampled_from([1, -1])), max_size=6))
    def apply_delta(self, changes):
        delta: dict = {}
        for (predicate, row), sign in changes:
            delta.setdefault(predicate, {})[row] = sign
        self.db.apply(Delta(delta))

    @rule()
    def declare(self):
        self.db.declare("s", 1)

    @rule()
    def read_columnar(self):
        for predicate in self.db.predicates():
            self.db.snapshot(predicate).columnar

    @rule(fact=_FACTS, weight=st.floats(0.5, 4.0))
    def set_weight(self, fact, weight):
        predicate, row = fact
        self.db.set_weight(predicate, row, weight)

    @rule(
        query=st.sampled_from(_QUERIES),
        layout=st.sampled_from(["row", "columnar", "auto"]),
        semiring=st.sampled_from([None, "count"]),
    )
    def read(self, query, layout, semiring):
        if not all(self.db.has_predicate(a.predicate) for a in query.atoms):
            return
        fresh = Database.from_facts(self.db.facts())
        for predicate in self.db.predicates():
            fresh.declare(predicate, self.db.arity(predicate))
        result = self.engines[layout].execute(
            query, self.db, semiring=semiring
        )
        truth = naive_join_eval(query, fresh)
        assert result.answer.rows == truth.rows, (query, layout, semiring)
        if semiring == "count":
            every = tuple(sorted(query.variables, key=lambda v: v.name))
            full = naive_join_eval(query.with_head(every), fresh)
            positions = [
                full.attributes.index(a) for a in result.answer.attributes
            ]
            derivations = Counter(
                tuple(row[i] for i in positions) for row in full.rows
            )
            assert result.annotations == dict(derivations), (query, layout)

    @invariant()
    def snapshots_match_the_store(self):
        for predicate in self.db.predicates():
            snap = self.db.snapshot(predicate)
            assert snap is self.db.snapshot(predicate)
            assert len(snap) == self.db.cardinality(predicate)
            assert all(self.db.contains(predicate, *row) for row in snap.rows)
        assert self.db.domain_size() == len(self.db.universe)

    @invariant()
    def built_buffers_hold_their_rows(self):
        built = [self.db.built_snapshot(p) for p in self.db.predicates()]
        for snap in [*built, *self.db._bases.values()]:
            if snap is not None and _encoded(snap):
                _assert_buffers_match(snap)


SnapshotMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSnapshotMachine = SnapshotMachine.TestCase
