"""Database instances as sets of ground facts (paper §2.1).

The paper identifies a relational database with a logical theory of ground
atoms ``r(a1, ..., ak)``; :class:`Database` keeps both views available: a
fact store (``add_fact`` / ``facts()``) and a relation store
(``relation(name)``).
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from threading import Lock
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping

from .._errors import SchemaError, UnknownRelationError
from ..core.atoms import Atom, Constant
from ..obs import get_registry
from .relation import Relation, Row, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..incremental.delta import Delta  # incremental imports db
    from .semiring import Semiring  # semiring's lift takes a Database


class Snapshot(Relation):
    """One immutable version of a base relation (attributes ``$0..$k``,
    named by its predicate), plus everything that is a pure function of
    its contents, derived lazily at most once and dropped with it.

    :meth:`Database.snapshot` hands out the same object until an
    effective mutation of the predicate replaces it, so per-request
    consumers — atom binding, the cardinality estimator, the columnar
    kernels — share one row set, one set of column buffers and one value
    set per column (the inherited, memoised :meth:`Relation.key_set`)
    instead of re-deriving them per request.  A reader holding a
    snapshot is isolated from later writes.

    A version may be built with a *base*: an earlier version of the same
    predicate whose column buffers were built, and the change since it,
    split into the rows the version holds beyond the base (*inserted*)
    and the base's rows it lacks (*deleted*).  Such a version costs its
    change — DBSP's integration operator, the state as the running sum
    of its deltas (Budiu, McSherry, Ryzhyk, Tannen, VLDB 2023):

    * it copies no rows: it knows its length, and builds its ``rows``
      frozenset only when a reader asks a set question (membership,
      equality, a key set, iteration, a pickle) — from its own buffers
      once they are built, else as ``base.rows − deleted ∪ inserted``.
      The columnar read path asks none; the readers that do are row
      plans, atoms with constants or repeated variables, estimator
      reads before the buffers are built (:meth:`distinct`), annotation
      maps and :meth:`Database.rows`;
    * its column buffers are derived from the base's when the change is
      smaller than the version (``|change| < len``) and every inserted
      value fits its column's kind (:func:`~repro.db.columnar.patch_columns`
      says which do); otherwise :func:`~repro.db.columnar.to_columnar`
      encodes the version afresh;
    * a derivation takes the base's *placement* — which row sits at
      which buffer position: an order list and a row → position map —
      instead of copying it, and patches it with the buffers: a deleted
      row's slot takes an inserted row or the last row, and the
      remaining inserted rows are appended.  The placement thus moves to
      the newest derived version.  A base without one (freshly encoded,
      or a newer version took it) rebuilds it from the rows it encoded
      or from its buffers, which hashes each of its rows once.  The
      buffers themselves are copied (``array[:]``), so a reader of an
      older version keeps its own: that copy is the one O(len) term a
      version still pays (beside it, a dictionary column that gains
      values indexes its pool afresh).

    ``db.snapshot.copied_rows`` counts what a version copies into
    Python containers or encodes: its row set, the change split it is
    handed, a rebuilt placement (order list and map), and the rows
    encoded afresh or inserted by a derivation.

    A derived buffer lists the rows in another order than a fresh encode
    would; only the set they form is the snapshot's.

    Threads.  Every lazy form reads only immutable inputs — the base's
    buffers and rows, the version's own frozen change — plus a placement
    it took for itself, and writes only what it returns, so racing
    threads each get a correct value (one is kept).  Nothing recurses:
    a row set reads the version's buffers or its base's rows, never the
    version's encoding, and a base is built, so its rows never reach
    back to a base of its own.  The encoding is stored before the base
    and change are dropped (:attr:`columnar`; dropping them keeps bases
    from chaining), so a row-set build finds one of the two at every
    moment.  The buffers and their placement are one cached value, and
    the placement sits in a one-slot list a derivation empties with one
    ``pop``: one taker gets it, a racing one rebuilds it, and no build
    pairs one's buffers with another's placement.  The change itself
    was split from one consistent state of the store
    (:meth:`Database.snapshot`), never from a partly recorded write.
    """

    version: int

    @staticmethod
    def build(
        predicate: str,
        arity: int,
        rows: Collection[Row],
        version: int,
        base: "tuple[Snapshot, tuple[Row, ...], frozenset[Row]] | None" = None,
    ) -> "Snapshot":
        """A new version of *predicate* holding *rows*, copied — unless
        *base* is given: ``(base, inserted, deleted)``, an earlier
        version whose buffers were built, the rows this one holds beyond
        it and the rows of it this one lacks.  Then only the number of
        *rows* is taken; the row set is built on demand."""
        snap = object.__new__(Snapshot)
        object.__setattr__(
            snap, "attributes", tuple(f"${i}" for i in range(arity))
        )
        object.__setattr__(snap, "name", predicate)
        object.__setattr__(snap, "version", version)
        snap.__dict__["_length"] = len(rows)
        registry = get_registry()
        if base is None:
            snap.__dict__["rows"] = frozenset(rows)
            copied = len(rows)
        else:
            snap.__dict__["_base"] = base
            copied = len(base[1]) + len(base[2])
        registry.counter("db.snapshot.copied_rows").inc(copied)
        registry.counter("db.snapshot.builds").inc()
        return snap

    @cached_property
    def rows(self) -> frozenset[Row]:
        # Only a version built with a base gets here (build stores the
        # others' rows).  The encoding is read from the instance dict,
        # never through the property, so this never waits on an encode.
        found = self.__dict__
        base = None if "_encoding" in found else found.get("_base")
        if base is not None:
            base, inserted, deleted = base
            rows = base.rows.difference(deleted).union(inserted)
        else:
            # Built, or built meanwhile: columnar stores the encoding
            # before it drops the base.
            rows = frozenset(found["_encoding"][0])
        get_registry().counter("db.snapshot.copied_rows").inc(len(rows))
        return rows

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    @property
    def columnar(self) -> Relation:
        """The columnar encoding of this version (a plain relation for
        arity 0, where there is nothing to pack)."""
        encoding = self._encoding
        # Built, this version needs its base and change no more: dropping
        # them keeps bases from chaining.  Only now, with the encoding
        # stored, so a row-set build always finds one of the two.
        self.__dict__.pop("_base", None)
        return encoding[0]

    @cached_property
    def _encoding(self) -> tuple[Relation, bool, list]:
        # (columnar form, whether derived, placement): the placement is a
        # one-slot list holding (order, row → position) of a derived
        # form, or (the rows a fresh encode walked, None) — its order,
        # the map not yet built — until a derivation takes it.
        base = self.__dict__.get("_base")
        encoding = None if base is None else self._derive(*base)
        if encoding is not None:
            get_registry().counter("db.snapshot.derivations").inc()
            return encoding
        # Imported here: columnar sits above this module (it imports
        # annotated, which imports Database).
        from .columnar import to_columnar

        # The very set the encode walks is the placement's order: a row
        # set built twice by racing readers may iterate differently.
        rows = self.rows
        registry = get_registry()
        registry.counter("db.snapshot.copied_rows").inc(len(rows))
        registry.counter("db.snapshot.builds").inc()
        walked = Relation.trusted(self.attributes, rows, self.name)
        return to_columnar(walked), False, [(rows, None)]

    def _derive(
        self, base: "Snapshot", inserted: tuple[Row, ...],
        deleted: frozenset[Row],
    ) -> tuple[Relation, bool, list] | None:
        """This version's encoding patched from *base*'s by the change
        since it, or ``None`` when a fresh encode is the answer."""
        from .columnar import ColumnarRelation, patch_columns

        source, _, placement = base._encoding
        if not isinstance(source, ColumnarRelation):
            return None
        if len(inserted) + len(deleted) >= self._length:
            return None
        try:
            order, positions = placement.pop()
        except IndexError:
            # A newer version took it: the base's buffers say where its
            # rows sit.
            order, positions = source, None
        copied = get_registry().counter("db.snapshot.copied_rows")
        if positions is None:
            order = list(order)
            positions = dict(zip(order, range(len(order))))
            copied.inc(2 * len(order))
        columns = patch_columns(
            source.columns, order, positions, deleted, inserted
        )
        if columns is None:
            # Refused before it patched anything: the base keeps it.
            placement.append((order, positions))
            return None
        copied.inc(len(inserted))
        derived = ColumnarRelation.make(
            source.attributes, columns, self.name, len(order)
        )
        return derived, True, [(order, positions)]

    @cached_property
    def _lifted(self) -> dict[object, object]:
        # Per semiring tag: the row → lift map, and under (tag, "columnar")
        # the columnar form carrying the same values as a weight column.
        return {}

    def distinct(self, column: int) -> int:
        """Number of distinct values in one column: its memoised value
        set, taken from the column buffers once they are built (a version
        only read columnar never builds its row set)."""
        key = (self.attributes[column],)
        if key not in self._key_sets and "_encoding" in self.__dict__:
            self._key_sets[key] = frozenset(self.columnar.column(key[0]))
        return len(self.key_set(key))

    @property
    def derived(self) -> int:
        """How many lazily derived forms this version holds (its column
        buffers, its per-semiring lifts) — it grows when a reader builds
        one, which is what a reader compares to tell whether it did."""
        return ("_encoding" in self.__dict__) + len(self._lifted)

    @property
    def patched(self) -> bool:
        """Whether this version's column buffers were derived from a
        base's (``False`` while unbuilt, or when encoded afresh)."""
        encoding = self.__dict__.get("_encoding")
        return encoding is not None and encoding[1]


class Database:
    """A mutable database instance over an implicit schema.

    Relation schemas are fixed on first use (first ``add_fact`` or
    ``declare`` for a name determines the arity); attribute names are
    synthesised as ``$0, $1, ...`` since conjunctive-query evaluation binds
    columns positionally through atoms.

    Reads go through one immutable :class:`Snapshot` per predicate,
    built on first touch and replaced only when an *effective* mutation
    changes that predicate's rows (re-asserting a present fact or
    retracting an absent one keeps it).  A version without a base copies
    the mutable store's rows into a frozen set — that copy, plus lazily
    the columnar buffers, is its memory cost.

    A write that replaces a snapshot whose column buffers were built
    keeps it as the predicate's *base*, one per predicate, and the next
    snapshot is built from the base and the change since it instead of
    from a copy of the rows: it derives its buffers from the base's, and
    builds a row set only for a reader that asks for one (see
    :class:`Snapshot`).  Beside the base the database keeps that net
    change: the set of rows whose membership flipped, each effective
    write flipping the rows it changed, so a row inserted and then
    deleted cancels out.  The change is bounded by the relation: once it
    is as large as the relation's rows, the base and its change are
    dropped (that version would encode afresh anyway; a later write that
    cancels back below the bound finds no base, and its version copies
    the rows and encodes afresh too).  A predicate whose buffers no
    reader built keeps no base and records no change: a database that is
    only loaded and read holds nothing more.

    A write changes the rows, the version and the change under one lock
    (loading a predicate nobody has read takes none), and a new
    snapshot reads them under it, so a snapshot taken while another
    thread writes is one consistent version, never a partly recorded
    change.
    """

    def __init__(self) -> None:
        self._relations: dict[str, set[tuple[Value, ...]]] = {}
        self._arities: dict[str, int] = {}
        self._weights: dict[str, dict[tuple[Value, ...], float]] = {}
        self._version = 0
        self._versions: dict[str, int] = {}
        self._snapshots: dict[str, Snapshot] = {}
        # The last replaced snapshot whose column buffers were built, and
        # the net change since it: the rows whose membership flipped.
        self._bases: dict[str, Snapshot] = {}
        self._changes: dict[str, set[Row]] = {}
        # Held by a snapshot build and by a write, except a load (see
        # _toggle).
        self._lock = Lock()
        self._universe: frozenset[Value] | None = None
        # Value -> occurrences in the current rows, from the first
        # universe / domain_size() on (None until then: loading pays
        # nothing).
        self._occurrences: Counter | None = None

    # -- construction -----------------------------------------------------
    @staticmethod
    def from_facts(facts: Iterable[tuple[str, tuple[Value, ...]]]) -> "Database":
        db = Database()
        for predicate, values in facts:
            db.add_fact(predicate, *values)
        return db

    @staticmethod
    def from_relations(relations: Mapping[str, Iterable[tuple]]) -> "Database":
        db = Database()
        for name, rows in relations.items():
            for row in rows:
                db.add_fact(name, *row)
        return db

    def add_fact(
        self, predicate: str, *values: Value, weight: float | None = None
    ) -> bool:
        """Assert the ground atom ``predicate(values...)``.

        Returns ``True`` iff the fact was not already present (set
        semantics: re-asserting is a no-op, though it still records a
        given *weight*).  *weight* is the fact's annotation under the
        weighted semirings — a cost for ``mincost``, a probability for
        ``prob``; unweighted facts default to 1.0.
        """
        arity = self._arities.setdefault(predicate, len(values))
        if arity != len(values):
            raise SchemaError(
                f"fact {predicate}{values!r} does not match arity {arity}"
            )
        rows = self._relations.setdefault(predicate, set())
        row = tuple(values)
        if weight is not None:
            self.set_weight(predicate, row, weight)
        if row in rows:
            return False
        if predicate in self._snapshots or predicate in self._bases:
            self._toggle(predicate, rows, {row})
        else:
            # Loading: no snapshot to replace and no change to record, so
            # no lock (see _toggle) — this is the bulk-load loop.
            rows.add(row)
            self._version += 1
            self._versions[predicate] = self._versions.get(predicate, 0) + 1
            self._universe = None
        if self._occurrences is not None:
            self._occurrences.update(row)
        return True

    def remove_fact(self, predicate: str, *values: Value) -> bool:
        """Retract the ground atom; ``True`` iff it was present."""
        rows = self._relations.get(predicate)
        if rows is None:
            return False
        row = tuple(values)
        if row not in rows:
            return False
        self._toggle(predicate, rows, {row})
        if self._occurrences is not None:
            self._forget((row,))
        weights = self._weights.get(predicate)
        if weights is not None:
            weights.pop(row, None)
        return True

    def _forget(self, rows: Iterable[Row]) -> None:
        """Take removed *rows* out of the value occurrence counts."""
        occurrences = self._occurrences
        occurrences.subtract(chain.from_iterable(rows))
        for value in set(chain.from_iterable(rows)):
            if not occurrences[value]:
                del occurrences[value]

    def _toggle(
        self, predicate: str, rows: set[Row], changed: Collection[Row]
    ) -> None:
        """An effective mutation of *predicate*: flip the membership of
        the *changed* rows (a set or a dict) in its stored *rows*, with
        new versions, and the snapshot (with everything derived from it)
        is dropped — kept as the predicate's base instead when its
        column buffers were built, with an empty change, so the next
        version's buffers derive from them (when the change is smaller
        than that version and fits their kinds) rather than being
        encoded again.  With a base kept, the same rows flip in the
        change since it, and a change that reaches the relation's size
        drops both.  O(|changed|) for the writer.

        It runs under the lock :meth:`snapshot` builds under, so a
        version built on another thread never pairs new rows with a
        partly flipped change.  :meth:`add_fact` of a predicate with no
        snapshot and no base (loading) skips it: there is no change to
        pair, and a version built meanwhile copies rows at least as new
        as its version number, so it is never kept as a base below."""
        with self._lock:
            rows.symmetric_difference_update(changed)
            self._version += 1
            version = self._versions.get(predicate, 0)
            self._versions[predicate] = version + 1
            self._universe = None
            snap = self._snapshots.pop(predicate, None)
            # One built during an unlocked add_fact may hold newer rows
            # than its number says: only one of the current number is a
            # base.
            if (
                snap is not None
                and snap.version == version
                and "_encoding" in snap.__dict__
            ):
                self._bases[predicate] = snap
                self._changes[predicate] = set()
            change = self._changes.get(predicate)
            if change is None:
                return
            change.symmetric_difference_update(changed)
            if len(change) >= len(rows):
                del self._bases[predicate], self._changes[predicate]

    # -- fact weights ------------------------------------------------------
    def set_weight(self, predicate: str, row: Iterable[Value], weight: float) -> None:
        """Attach a weight to one fact (the ``lift`` value of the
        weighted semirings).  The fact need not exist yet — workload
        generators may assign weights before or after loading.

        Weights change what :meth:`annotations` returns but not the
        rows, so only the predicate's memoised annotation maps are
        dropped; its snapshot and versions stay."""
        self._weights.setdefault(predicate, {})[tuple(row)] = float(weight)
        snap = self._snapshots.get(predicate)
        if snap is not None:
            snap._lifted.clear()

    def weight(
        self, predicate: str, row: tuple[Value, ...], default: float = 1.0
    ) -> float:
        """The weight of one fact (*default* when none was assigned)."""
        weights = self._weights.get(predicate)
        if weights is None:
            return default
        return weights.get(tuple(row), default)

    def has_weights(self) -> bool:
        """Whether any fact carries an explicit weight."""
        return any(self._weights.values())

    def declare(self, predicate: str, arity: int) -> None:
        """Fix a relation's schema without asserting any facts.

        Lets update streams reference a relation that starts empty (the
        implicit first-``add_fact`` schema fixing cannot express that).
        Creating a predicate bumps :attr:`version` — an atom over it now
        estimates to no rows instead of an unknown one — and re-declaring
        a known one is a no-op.
        """
        known = self._arities.setdefault(predicate, arity)
        if known != arity:
            raise SchemaError(
                f"predicate {predicate!r} already declared with arity {known}"
            )
        if predicate not in self._relations:
            self._relations[predicate] = set()
            self._version += 1

    def apply(self, delta: "Delta") -> "Delta":
        """Apply a signed :class:`repro.incremental.Delta` in place.

        Inserts add missing rows, deletes drop present ones; everything
        else is a no-op under set semantics.  Returns the *effective*
        delta — exactly the changes that altered the instance — which is
        what :class:`repro.incremental.LiveEngine` fans out to views.
        Inserting into an unknown predicate declares it (first-use arity,
        as with :meth:`add_fact`); deleting from one is a no-op.

        One set operation per predicate: the effective changes are the
        inserts absent from the stored set and the deletes present in
        it, applied as one symmetric difference, with one version bump
        and one snapshot replacement however many rows changed.  The
        same rows flip in the predicate's change since its base, when it
        keeps one (see :meth:`_toggle`).
        """
        # Imported here: the incremental layer sits above db and imports
        # this module at load time.
        from ..incremental.delta import Delta

        delta.check_schema(self)
        effective: dict[str, dict[tuple[Value, ...], int]] = {}
        for predicate in sorted(delta.changes):
            signed = delta.changes[predicate]
            rows = self._relations.get(predicate)
            if rows is None:
                if all(sign < 0 for sign in signed.values()):
                    continue
                self._arities[predicate] = len(next(iter(signed)))
                rows = self._relations[predicate] = set()
            changed = {
                row: sign for row, sign in signed.items()
                if (row in rows) != (sign > 0)
            }
            if not changed:
                continue
            self._toggle(predicate, rows, changed)
            gone = [row for row, sign in changed.items() if sign < 0]
            if self._occurrences is not None:
                self._occurrences.update(chain.from_iterable(
                    row for row, sign in changed.items() if sign > 0
                ))
                self._forget(gone)
            weights = self._weights.get(predicate)
            if weights:
                for row in gone:
                    weights.pop(row, None)
            effective[predicate] = changed
        return Delta.trusted(effective)

    @property
    def version(self) -> int:
        """Monotonic change counter, bumped by every effective write —
        once per changed predicate, whether :meth:`add_fact` /
        :meth:`remove_fact` changed one row or :meth:`apply` a batch —
        and by every new predicate (weights do not move it)."""
        return self._version

    def add_atom(self, atom: Atom) -> None:
        """Assert a ground :class:`Atom` (all terms must be constants)."""
        values = []
        for t in atom.terms:
            if not isinstance(t, Constant):
                raise SchemaError(f"atom {atom} is not ground")
            values.append(t.value)
        self.add_fact(atom.predicate, *values)

    # -- views -------------------------------------------------------------
    def predicates(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def arity(self, predicate: str) -> int:
        if predicate not in self._arities:
            raise UnknownRelationError(f"unknown predicate {predicate!r}")
        return self._arities[predicate]

    def has_predicate(self, predicate: str) -> bool:
        return predicate in self._relations

    def snapshot(self, predicate: str) -> Snapshot:
        """The current immutable version of one relation.

        The same object is returned until an effective mutation of
        *predicate*; concurrent first-touch builds are idempotent (each
        copies the same rows; the dict store is atomic), and a build
        that raced an unlocked load carries a stale version and is
        rebuilt on the next call.  A new version of a predicate with a
        base gets the base and the change since it, split into the rows
        the version holds (inserted) and those it lacks (deleted) —
        O(|change|); no other row is copied.  The split reads the change
        and the rows under the lock every write of a predicate with a
        base holds (see :meth:`_toggle`), so the two always agree."""
        version = self._versions.get(predicate, 0)
        snap = self._snapshots.get(predicate)
        if snap is not None and snap.version == version:
            get_registry().counter("db.snapshot.reuses").inc()
            return snap
        rows = self._relations.get(predicate)
        if rows is None:
            raise UnknownRelationError(f"unknown predicate {predicate!r}")
        with self._lock:
            version = self._versions.get(predicate, 0)
            base = self._bases.get(predicate)
            if base is not None:
                change = self._changes[predicate]
                inserted = change & rows  # walks the change, the smaller
                base = (base, tuple(inserted), frozenset(change - inserted))
            snap = Snapshot.build(
                predicate, self._arities[predicate], rows, version, base
            )
            self._snapshots[predicate] = snap
        return snap

    def built_snapshot(self, predicate: str) -> Snapshot | None:
        """The predicate's current snapshot if one is built, else
        ``None`` — builds nothing and counts no reuse."""
        snap = self._snapshots.get(predicate)
        current = self._versions.get(predicate, 0)
        return snap if snap is not None and snap.version == current else None

    def cardinality(self, predicate: str) -> int:
        """Tuple count of one relation (0 for unknown names), without
        building its snapshot."""
        return len(self._relations.get(predicate, ()))

    def rows(self, predicate: str) -> frozenset[tuple[Value, ...]]:
        """All tuples of the given relation (empty for unknown names)."""
        if predicate not in self._relations:
            return frozenset()
        return self.snapshot(predicate).rows

    def relation(self, predicate: str) -> Relation:
        """The relation instance as a :class:`Relation` with positional
        attribute names ``$0..$k`` — its current :meth:`snapshot`."""
        return self.snapshot(predicate)

    def annotations(
        self, predicate: str, semiring: "Semiring"
    ) -> Mapping[Row, object]:
        """``row -> semiring.lift(row)`` for every row of the relation,
        memoised per semiring tag on the snapshot (treat as frozen: every
        annotated binding of the predicate shares it).  Dropped with the
        snapshot, and by weight writes."""
        snap = self.snapshot(predicate)
        lifted = snap._lifted.get(semiring.tag)
        if lifted is None:
            lift = semiring.lift
            lifted = {row: lift(self, predicate, row) for row in snap.rows}
            snap._lifted[semiring.tag] = lifted
            get_registry().counter("db.snapshot.builds").inc()
        return lifted

    def weighted_columnar(
        self, predicate: str, semiring: "Semiring"
    ) -> Relation | None:
        """The snapshot's columnar form with ``semiring.lift`` of every
        row as its weight column (same buffers, one more), or ``None``
        when the values cannot ride one.  Memoised and dropped exactly
        like :meth:`annotations`."""
        from .columnar import weighted_view  # see Snapshot.columnar

        snap = self.snapshot(predicate)
        key = (semiring.tag, "columnar")
        if key not in snap._lifted:
            snap._lifted[key] = weighted_view(
                snap.columnar, semiring, self.annotations(predicate, semiring)
            )
            get_registry().counter("db.snapshot.builds").inc()
        return snap._lifted[key]

    def contains(self, predicate: str, *values: Value) -> bool:
        """``r(a1..ak) ∈ DB``."""
        return tuple(values) in self._relations.get(predicate, set())

    def facts(self) -> Iterator[tuple[str, tuple[Value, ...]]]:
        for predicate in sorted(self._relations):
            for row in sorted(self._relations[predicate], key=repr):
                yield predicate, row

    @property
    def universe(self) -> frozenset[Value]:
        """The active domain: every value occurring in some tuple
        (memoised until the next effective mutation)."""
        if self._universe is None:
            self._universe = frozenset(self._counted())
        return self._universe

    def domain_size(self) -> int:
        """``len(universe)``, without building it: the plan compiler asks
        on every compile, a read after a write included."""
        return len(self._counted())

    def _counted(self) -> Counter:
        """Value -> occurrences in the current rows: counted once, then
        kept by every effective write, so the active domain is never
        rescanned."""
        if self._occurrences is None:
            self._occurrences = Counter(
                chain.from_iterable(chain.from_iterable(
                    self._relations.values()
                ))
            )
        return self._occurrences

    def size(self) -> int:
        """``‖DB‖`` measured as the total number of value occurrences."""
        return sum(
            len(row) for rows in self._relations.values() for row in rows
        )

    def tuple_count(self) -> int:
        return sum(len(rows) for rows in self._relations.values())

    def max_relation_size(self) -> int:
        """``r`` in Lemma 4.6: the maximum relation cardinality."""
        if not self._relations:
            return 0
        return max(len(rows) for rows in self._relations.values())

    def __len__(self) -> int:
        return self.tuple_count()

    def __str__(self) -> str:
        parts = [
            f"{name}/{self._arities[name]}: {len(rows)} tuples"
            for name, rows in sorted(self._relations.items())
        ]
        return "Database(" + "; ".join(parts) + ")"
