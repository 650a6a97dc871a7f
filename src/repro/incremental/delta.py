"""Signed delta batches over base relations.

A :class:`Delta` is one batch of tuple-level changes to a database
instance: ``+1`` inserts a row, ``-1`` deletes it.  It is the unit of
work for the incremental subsystem — :meth:`repro.db.database.Database.apply`
consumes one and returns the *effective* sub-delta (what actually changed
under set semantics), and :class:`repro.incremental.MaterializedView`
propagates that along the join tree.

Batches are normalised on construction: arbitrary signed counts collapse
to a single sign per row (base relations are sets, so within one batch
multiplicity carries no information) and zero-count rows disappear.
Sequencing two batches is *not* addition — the later change to a row wins
(:meth:`Delta.then`), matching insert/delete upsert semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Mapping

from .._errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..db.database import Database

Row = tuple
Value = Hashable


class Delta:
    """An immutable, normalised batch of signed tuple changes.

    Attributes
    ----------
    changes:
        ``predicate -> {row: sign}`` with sign ``+1`` (insert) or ``-1``
        (delete).  Rows of one predicate must agree on arity.
    """

    __slots__ = ("changes",)

    def __init__(self, changes: Mapping[str, Mapping[Row, int]]):
        normal: dict[str, dict[Row, int]] = {}
        for predicate, rows in changes.items():
            arity: int | None = None
            bucket: dict[Row, int] = {}
            for raw_row, count in rows.items():
                row = tuple(raw_row)
                if arity is None:
                    arity = len(row)
                elif len(row) != arity:
                    raise SchemaError(
                        f"delta rows for {predicate!r} mix arities "
                        f"{arity} and {len(row)}"
                    )
                if count > 0:
                    bucket[row] = 1
                elif count < 0:
                    bucket[row] = -1
            if bucket:
                normal[predicate] = bucket
        self.changes = normal

    # -- constructors -----------------------------------------------------
    @staticmethod
    def trusted(changes: dict[str, dict[Row, int]]) -> "Delta":
        """A delta over *changes* that are already normal (tuple rows of
        one arity per predicate, signs ``±1``, no empty predicate), kept
        as given instead of normalised again."""
        delta = object.__new__(Delta)
        delta.changes = changes
        return delta

    @staticmethod
    def empty() -> "Delta":
        return Delta({})

    @staticmethod
    def inserts(predicate: str, rows: Iterable[Iterable[Value]]) -> "Delta":
        return Delta({predicate: {tuple(r): 1 for r in rows}})

    @staticmethod
    def deletes(predicate: str, rows: Iterable[Iterable[Value]]) -> "Delta":
        return Delta({predicate: {tuple(r): -1 for r in rows}})

    @staticmethod
    def from_changes(
        changes: Iterable[tuple[str, Iterable[Value], int]]
    ) -> "Delta":
        """Build from ``(predicate, row, sign)`` triples.

        Later triples for the same row win (upsert sequencing), so a
        recorded change log replays into the batch it denotes.
        """
        staged: dict[str, dict[Row, int]] = {}
        for predicate, row, sign in changes:
            staged.setdefault(predicate, {})[tuple(row)] = sign
        return Delta(staged)

    # -- views ------------------------------------------------------------
    @property
    def predicates(self) -> frozenset[str]:
        return frozenset(self.changes)

    @property
    def is_empty(self) -> bool:
        return not self.changes

    def __bool__(self) -> bool:
        return bool(self.changes)

    def __len__(self) -> int:
        """Total number of tuple-level changes in the batch."""
        return sum(len(rows) for rows in self.changes.values())

    def __iter__(self) -> Iterator[tuple[str, Row, int]]:
        """Deterministic ``(predicate, row, sign)`` stream."""
        for predicate in sorted(self.changes):
            rows = self.changes[predicate]
            for row in sorted(rows, key=repr):
                yield predicate, row, rows[row]

    def inserted(self, predicate: str) -> frozenset[Row]:
        rows = self.changes.get(predicate, {})
        return frozenset(r for r, s in rows.items() if s > 0)

    def deleted(self, predicate: str) -> frozenset[Row]:
        rows = self.changes.get(predicate, {})
        return frozenset(r for r, s in rows.items() if s < 0)

    # -- combinators ------------------------------------------------------
    def touches(self, predicates: Iterable[str]) -> bool:
        """Does this batch mention any of the given predicates?"""
        wanted = set(predicates)
        return any(p in wanted for p in self.changes)

    def restrict(self, predicates: Iterable[str]) -> "Delta":
        """The sub-batch over the given predicates only."""
        wanted = set(predicates)
        return Delta(
            {p: rows for p, rows in self.changes.items() if p in wanted}
        )

    def then(self, other: "Delta") -> "Delta":
        """Sequential composition: *other* happens after this batch.

        Per row the later change wins — inserting then deleting a row
        composes to deleting it (ensuring absence), not to "no change".
        """
        staged: dict[str, dict[Row, int]] = {
            p: dict(rows) for p, rows in self.changes.items()
        }
        for predicate, rows in other.changes.items():
            staged.setdefault(predicate, {}).update(rows)
        return Delta(staged)

    def inverse(self) -> "Delta":
        """The sign-flipped batch (undoes this one when it was effective)."""
        return Delta(
            {
                p: {row: -sign for row, sign in rows.items()}
                for p, rows in self.changes.items()
            }
        )

    # -- validation -------------------------------------------------------
    def check_schema(self, db: "Database") -> None:
        """Raise :class:`SchemaError` if any change contradicts *db*'s
        schema.  Predicates unknown to the database pass (an insert
        batch defines them on first use)."""
        for predicate, rows in self.changes.items():
            if not db.has_predicate(predicate):
                continue
            arity = db.arity(predicate)
            for row in rows:
                if len(row) != arity:
                    raise SchemaError(
                        f"delta row {predicate}{row!r} does not match "
                        f"arity {arity}"
                    )
                break  # construction already enforced one arity per predicate

    # -- rendering --------------------------------------------------------
    def __repr__(self) -> str:
        plus = sum(1 for _, _, s in self if s > 0)
        minus = len(self) - plus
        preds = ", ".join(sorted(self.changes)) or "∅"
        return f"Delta(+{plus}/-{minus} over {preds})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self.changes == other.changes

    def __hash__(self) -> int:
        return hash(
            tuple(
                (p, frozenset(rows.items()))
                for p, rows in sorted(self.changes.items())
            )
        )
