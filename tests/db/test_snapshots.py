"""Base-relation snapshots: lifecycle, isolation, and binding as views.

``Database.snapshot(p)`` is the one frozen version of a relation that
every per-request consumer shares; it may only be replaced by an
*effective* mutation of ``p``.  The stateful suite at the bottom drives warm engines
through interleaved writes and reads and checks every answer against
naive evaluation on a freshly loaded copy — a stale snapshot, columnar
form, value set or annotation map would surface there as a wrong answer.
"""

import math
import pickle
import random
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
from repro.db import columnar as columnar_mod
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


def _live(db: Database, predicate: str = "e") -> frozenset:
    """The store's current rows of *predicate*: what a version taken now
    holds, read without building (or forcing) any snapshot."""
    return frozenset(db._relations[predicate])


def _assert_buffers_match(snap: Snapshot, rows: frozenset) -> None:
    """*snap*'s built buffers hold exactly *rows* — the store's rows at
    its version — once each, and each column the values of a fresh
    encode's (as a multiset: a derived buffer lists the rows in its own
    order).  The version's own row set, when built, is *rows* too; it
    is not built here (it may come from the very buffers checked)."""
    columnar = snap.columnar
    assert len(snap) == len(rows)
    if "rows" in snap.__dict__:
        assert snap.rows == rows
    if not isinstance(columnar, ColumnarRelation):
        assert columnar.rows == rows
        return
    decoded = list(columnar)
    assert len(decoded) == len(rows) == len(columnar)
    assert frozenset(decoded) == rows
    fresh = to_columnar(
        Snapshot.build(snap.name, len(snap.attributes), rows, 0)
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
        before = _live(db)
        db.apply(Delta({"e": {(0, 0): -1, (100, 1): 1, (101, 2): 1}}))
        second = db.snapshot("e")
        assert _builds() == builds + 3  # the new snapshot only
        second.columnar
        assert _builds() == builds + 3
        assert _derivations() == derivations + 1
        # A warm static read derives and builds nothing.
        db.snapshot("e").columnar
        assert (_builds(), _derivations()) == (builds + 3, derivations + 1)
        _assert_buffers_match(second, _live(db))
        _assert_buffers_match(first, before)  # the base's readers see no change

    def test_derivations_chain_one_base_deep(self):
        db = self._db()
        db.snapshot("e").columnar
        for i in range(5):
            db.add_fact("e", 200 + i, i)
            db.remove_fact("e", i, (i * 7) % 40)
            snap = db.snapshot("e")
            before = _derivations()
            _assert_buffers_match(snap, _live(db))
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
        _assert_buffers_match(db.snapshot("e"), _live(db))
        assert _derivations() == before + 1

    def test_a_stale_unbuilt_version_derives_from_its_own_change(self):
        """A reader holding an unbuilt version forces it after a newer
        version has derived from the same base and replaced it: the stale
        version patches the base by the change it was handed, not by the
        store's later one."""
        db = self._db()
        first = db.snapshot("e")
        first.columnar
        loaded = _live(db)
        db.add_fact("e", 300, 1)
        stale = db.snapshot("e")
        db.remove_fact("e", 0, 0)
        db.add_fact("e", 301, 2)
        newer = db.snapshot("e")
        assert stale.__dict__["_base"][0] is newer.__dict__["_base"][0]
        before = _derivations()
        _assert_buffers_match(newer, _live(db))
        db.add_fact("e", 302, 3)  # the newer version is the base now
        assert db._bases["e"] is newer
        _assert_buffers_match(stale, loaded | {(300, 1)})
        assert _derivations() == before + 2
        assert stale.rows == first.rows | {(300, 1)}
        _assert_buffers_match(first, loaded)

    def test_a_steady_state_derivation_never_reads_the_base_rows(self):
        """Once the base is itself derived, a derivation reads the change
        the writes recorded: it neither iterates nor diffs the base's row
        set (only the first derivation after a fresh encode walks it, to
        build the row → position map)."""

        class Untouchable(frozenset):
            def _touched(self, *args):
                raise AssertionError("the base's row set was read")

            __iter__ = __sub__ = __rsub__ = difference = _touched

        db = self._db()
        db.snapshot("e").columnar
        db.add_fact("e", 300, 1)
        base = db.snapshot("e")
        before = _derivations()
        base.columnar
        assert _derivations() == before + 1  # the base is derived itself
        db.apply(Delta({"e": {(0, 0): -1, (301, 2): 1, (300, 1): -1}}))
        db.add_fact("e", 302, 3)
        db.remove_fact("e", 302, 3)  # inserted and deleted: cancels out
        assert db._bases["e"] is base
        snap = db.snapshot("e")
        rows = base.rows
        object.__setattr__(base, "rows", Untouchable(rows))
        before = _derivations()
        try:
            snap.columnar
        finally:
            object.__setattr__(base, "rows", rows)
        assert _derivations() == before + 1
        assert snap.patched
        _assert_buffers_match(snap, _live(db))

    def test_a_change_that_reaches_the_relation_size_drops_the_base(self):
        """The change kept beside a base stays below the relation's size:
        once it reaches it, base and change go, and the next version
        encodes afresh, as a derivation would have declined to."""
        db = self._db(10)
        db.snapshot("e").columnar
        db.add_fact("e", 300, 1)
        assert db._changes["e"] == {(300, 1)} and "e" in db._bases
        for i in range(5):
            db.remove_fact("e", i, (i * 7) % 10)
        assert "e" not in db._bases and "e" not in db._changes
        before = (_builds(), _derivations())
        snap = db.snapshot("e")
        snap.columnar
        assert (_builds(), _derivations()) == (before[0] + 2, before[1])
        _assert_buffers_match(snap, _live(db))

    def test_a_snapshot_taken_during_a_write_is_one_version(self):
        """A reader on another thread takes a snapshot, and forces its
        buffers, while a write is halfway through: right after the
        version moved, before the change was recorded.  Whatever it got
        is one consistent version (its buffers hold its rows), and the
        writer's version reads right afterwards."""
        db = self._db()
        db.snapshot("e").columnar
        db.add_fact("e", 300, 1)
        db.snapshot("e").columnar  # derived: the base is itself derived
        taken: list[Snapshot] = []

        def read():
            snap = db.snapshot("e")
            snap.columnar
            taken.append(snap)

        readers: list[threading.Thread] = []
        # Version -> the rows it holds: the write flips the rows before
        # it moves the version.
        states = {db._versions["e"]: _live(db)}

        class Versions(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                if key == "e":
                    states[value] = _live(db)
                    reader = threading.Thread(target=read)
                    readers.append(reader)
                    reader.start()
                    # Give the reader the window; a writer that keeps
                    # it out (it waits for the write) goes on alone.
                    reader.join(timeout=0.1)

        db._versions = Versions(db._versions)
        db.apply(Delta({"e": {(0, 0): -1, (301, 2): 1}}))
        db.add_fact("e", 302, 3)
        db.remove_fact("e", 1, 7)
        for reader in readers:
            reader.join()
        assert len(taken) == 3
        for snap in taken:
            _assert_buffers_match(snap, states[snap.version])
        current = db.snapshot("e")
        assert current.rows == frozenset(db._relations["e"])
        _assert_buffers_match(current, _live(db))
        assert (300, 1) in current.rows and (1, 7) not in current.rows

    def test_a_version_built_during_an_unlocked_write_is_never_a_base(self):
        """Loading (``add_fact`` of a predicate with neither snapshot nor
        base) takes no lock, so it can land between a snapshot build's
        copy of the rows and its store (here on one thread, from the
        store itself).  That version carries the older rows and number;
        built and then replaced by a write, it is not kept as the base."""
        db = self._db()
        stale: list[Snapshot] = []

        class Snapshots(dict):
            def __setitem__(self, key, snap):
                if key == "e" and not stale:
                    stale.append(snap)
                    assert db.add_fact("e", 300, 1)  # the unlocked load
                super().__setitem__(key, snap)

        db._snapshots = Snapshots()
        snap = db.snapshot("e")
        assert snap is stale[0] and (300, 1) not in snap.rows
        snap.columnar
        db.add_fact("e", 301, 2)
        assert "e" not in db._bases
        current = db.snapshot("e")
        assert {(300, 1), (301, 2)} <= current.rows
        _assert_buffers_match(current, _live(db))

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
        _assert_buffers_match(snap, _live(db))
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
        _assert_buffers_match(snap, _live(db, "f"))
        assert _derivations() == before + 1
        assert [c.kind for c in snap.columnar.columns] == ["f", "o"]
        db.add_fact("f", math.nan, "v1")  # NaN breaks the float column
        _assert_buffers_match(db.snapshot("f"), _live(db, "f"))
        assert _derivations() == before + 1

    def test_a_change_as_large_as_the_relation_encodes_afresh(self):
        db = self._db(10)
        db.snapshot("e").columnar
        db.apply(Delta({"e": {
            **dict.fromkeys(db.rows("e"), -1),
            **{(50 + i, i): 1 for i in range(10)},
        }}))
        before = _derivations()
        _assert_buffers_match(db.snapshot("e"), _live(db))
        assert _derivations() == before

    def test_a_pool_stays_within_twice_its_rows(self):
        db = Database.from_relations({"p": [(f"s{i}",) for i in range(8)]})
        db.snapshot("p").columnar
        for i in range(8, 40):  # each write swaps one distinct value
            db.apply(Delta({"p": {(f"s{i - 8}",): -1, (f"s{i}",): 1}}))
            snap = db.snapshot("p")
            _assert_buffers_match(snap, _live(db, "p"))
            assert len(snap.columnar.columns[0].pool) <= 2 * len(snap)

    def test_threads_force_one_derived_snapshot(self):
        """More threads than cores force one derived snapshot's buffers
        at once: whichever build each gets holds the rows, and the base
        is untouched."""
        db = self._db(400)
        base = db.snapshot("e")
        base.columnar
        loaded = _live(db)
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
            assert frozenset(columnar) == _live(db)
        _assert_buffers_match(snap, _live(db))
        _assert_buffers_match(base, loaded)


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run a test with numpy's kernels and with the pure-Python ones."""
    if request.param == "python":
        monkeypatch.setattr(columnar_mod, "_np", None)
    elif columnar_mod._np is None:
        pytest.skip("numpy is not installed")
    return request.param


def _copied() -> float:
    return get_registry().counter("db.snapshot.copied_rows").value


class TestLazyRows:
    """A version built from a base copies no rows: it builds its row set
    only for a reader that asks a set question, from its buffers or from
    its base's rows and its change."""

    QUERY = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")

    def _db(self, rows=200):
        return Database.from_relations(
            {"e": [(i, (i * 7) % rows) for i in range(rows)]}
        )

    def test_a_steady_read_after_write_builds_no_row_set(self, kernels):
        db = self._db()
        with Engine(layout="columnar") as engine:
            engine.execute(self.QUERY, db)  # the first version encodes
            for i in range(4):
                db.apply(Delta({"e": {(i, i * 7): -1, (300 + i, i): 1}}))
                before = _copied()
                result = engine.execute(self.QUERY, db)
                snap = db.snapshot("e")
                assert snap.patched
                assert "rows" not in snap.__dict__
                if i:  # past the first derivation: the change split in
                    # two, and the one inserted row encoded
                    assert _copied() - before == 2 + 1
        truth = naive_join_eval(
            self.QUERY, Database.from_relations({"e": _live(db)})
        )
        assert result.answer.rows == truth.rows

    @pytest.mark.parametrize("first", ["rows", "columnar"])
    def test_a_held_version_answers_its_own_rows(self, kernels, first):
        """Forced first through its row set (the base's rows less the
        deleted, plus the inserted) or through its buffers, after later
        writes have moved the base's placement on."""
        db = self._db()
        db.snapshot("e").columnar
        db.apply(Delta({"e": {(0, 0): -1, (1, 7): -1, (400, 1): 1}}))
        held = db.snapshot("e")
        truth = _live(db)
        for i in range(3):
            db.apply(Delta({"e": {(10 + i, 70 + 7 * i): -1, (500 + i, i): 1}}))
            db.snapshot("e").columnar
        assert "rows" not in held.__dict__ and "_base" in held.__dict__
        if first == "columnar":
            _assert_buffers_match(held, truth)
        assert len(held) == len(truth) and bool(held)
        assert (400, 1) in held.rows and (0, 0) not in held.rows
        assert (500, 0) not in held.rows
        assert held == Relation.trusted(held.attributes, truth, "e")
        assert held.key_set(("$0",)) == {row[0] for row in truth}
        copy = pickle.loads(pickle.dumps(held))
        assert copy == held and copy.rows == truth
        _assert_buffers_match(held, truth)

    def test_threads_force_one_lazy_version(self, kernels):
        """Eight threads ask one lazy version for its rows, its length and
        its buffers, each in its own order: all agree with the store."""
        db = self._db(400)
        db.snapshot("e").columnar
        db.apply(Delta({"e": {(0, 0): -1, (1, 7): -1, (500, 3): 1}}))
        snap = db.snapshot("e")
        truth = _live(db)
        barrier = threading.Barrier(8)
        seen: list[tuple] = []

        def force(seed):
            asks = ["rows", "len", "columnar"]
            random.Random(seed).shuffle(asks)
            barrier.wait(timeout=10)
            got = {}
            for ask in asks:
                if ask == "rows":
                    got[ask] = snap.rows
                elif ask == "len":
                    got[ask] = len(snap)
                else:
                    got[ask] = frozenset(snap.columnar)
            seen.append((got["rows"], got["len"], got["columnar"]))

        threads = [
            threading.Thread(target=force, args=(seed,)) for seed in range(8)
        ]
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
        assert seen == [(truth, len(truth), truth)] * 8
        _assert_buffers_match(snap, truth)

    def test_estimator_reads_count_the_buffers_once_built(self, kernels):
        """A distinct-value read of a version whose buffers are built
        counts them, builds no row set, and answers what the row set
        would: mixed kinds, 1 == 1.0 == True included."""
        rows = [(i % 7, f"s{i % 5}", float(i % 3)) for i in range(60)]
        rows += [(1.0, "s1", 1.0), (True, "x", 2.0), (2**70, "s0", 0.5)]
        db = Database.from_relations({"m": rows})
        db.snapshot("m").columnar
        db.apply(Delta({"m": {(0, "s0", 0.0): -1, (9, "new", 9.5): 1}}))
        lazy = db.snapshot("m")
        lazy.columnar
        eager = Snapshot.build("m", 3, _live(db, "m"), 0)
        atom = Atom("m", (Constant(1), Variable("X"), Constant(2.0)))
        wide = Atom("m", (Variable("X"), Variable("Y"), Variable("X")))
        for column in range(3):
            assert lazy.distinct(column) == eager.distinct(column)
            assert eager.distinct(column) == len(
                {row[column] for row in _live(db, "m")}
            )
        for query_atom in (atom, wide):
            assert CardinalityEstimator(db).atom_rows(query_atom) == (
                CardinalityEstimator(
                    Database.from_relations({"m": _live(db, "m")})
                ).atom_rows(query_atom)
            )
        assert "rows" not in lazy.__dict__


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
        # Versions a reader holds unbuilt, to force after later writes.
        self.held: list[Snapshot] = []
        # (predicate, version) -> the rows that version holds: the
        # oracle for a version's lazily built row set and buffers.
        self.truth: dict[tuple[str, int], frozenset] = {}

    def _truth(self, snap: Snapshot) -> frozenset:
        """The rows *snap* holds, as the store held them at its version
        (every step records the current ones before it checks)."""
        for predicate in self.db.predicates():
            version = self.db._versions.get(predicate, 0)
            self.truth[predicate, version] = _live(self.db, predicate)
        return self.truth[snap.name, snap.version]

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

    @rule(
        fact=_FACTS,
        first=st.sampled_from(["fact", "apply"]),
        second=st.sampled_from(["fact", "apply"]),
    )
    def write_and_undo(self, fact, first, second):
        """A row inserted then deleted (or deleted then re-inserted)
        between two reads, by single-row writes or by batches."""
        predicate, row = fact
        sign = -1 if self.db.contains(predicate, *row) else 1
        for how, signed in ((first, sign), (second, -sign)):
            if how == "apply":
                self.db.apply(Delta({predicate: {row: signed}}))
            elif signed > 0:
                self.db.add_fact(predicate, *row)
            else:
                self.db.remove_fact(predicate, *row)

    @rule(predicate=st.sampled_from(sorted(_ARITY)))
    def hold_version(self, predicate):
        if self.db.has_predicate(predicate):
            snap = self.db.snapshot(predicate)
            self._truth(snap)
            self.held.append(snap)

    @rule()
    def force_held(self):
        for snap in self.held:
            _assert_buffers_match(snap, self._truth(snap))
        self.held.clear()

    @rule(data=st.data())
    def read_held_rows(self, data):
        """A reader asks a held version a set question at any point:
        before or after its buffers, before or after later writes."""
        if self.held:
            snap = data.draw(st.sampled_from(self.held))
            rows = self._truth(snap)
            assert snap.rows == rows and len(snap) == len(rows)

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
            # The row set a reader would get, built here without being
            # kept, so later steps still find the version lazy.
            rows = (
                snap.__dict__["rows"] if "rows" in snap.__dict__
                else Snapshot.rows.func(snap)
            )
            assert all(self.db.contains(predicate, *row) for row in rows)
            assert len(rows) == len(snap)
        assert self.db.domain_size() == len(self.db.universe)

    @invariant()
    def recorded_changes_are_the_set_differences(self):
        """What a version derives from is the diff of its rows against
        its base's, and what the store keeps beside a base is the diff
        of the current rows against it, below the relation's size."""
        current = [self.db.built_snapshot(p) for p in self.db.predicates()]
        for snap in [*current, *self.held]:
            recorded = None if snap is None else snap.__dict__.get("_base")
            if recorded is not None:
                base, inserted, deleted = recorded
                rows, base_rows = self._truth(snap), self._truth(base)
                assert len(set(inserted)) == len(inserted)
                assert set(inserted) == rows - base_rows
                assert deleted == base_rows - rows
        assert self.db._changes.keys() == self.db._bases.keys()
        for predicate, change in self.db._changes.items():
            rows = _live(self.db, predicate)
            base = self._truth(self.db._bases[predicate])
            assert change & rows == rows - base
            assert change - rows == base - rows
            assert len(change) < len(rows)

    @invariant()
    def built_buffers_hold_their_rows(self):
        built = [self.db.built_snapshot(p) for p in self.db.predicates()]
        for snap in [*built, *self.db._bases.values()]:
            if snap is not None and _encoded(snap):
                _assert_buffers_match(snap, self._truth(snap))


class PurePythonSnapshotMachine(SnapshotMachine):
    """The same machine with numpy hidden: the pure-Python buffers are
    encoded, derived and read by the interpreted kernels."""

    def __init__(self):
        self.numpy = columnar_mod._np
        columnar_mod._np = None
        super().__init__()

    def teardown(self):
        try:
            super().teardown()
        finally:
            columnar_mod._np = self.numpy


for _machine in (SnapshotMachine, PurePythonSnapshotMachine):
    _machine.TestCase.settings = settings(
        max_examples=40, stateful_step_count=30, deadline=None
    )
TestSnapshotMachine = SnapshotMachine.TestCase
TestPurePythonSnapshotMachine = PurePythonSnapshotMachine.TestCase
