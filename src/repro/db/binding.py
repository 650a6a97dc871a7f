"""Binding query atoms to variable-attributed relations.

Evaluating an atom ``r(X, 'a', Y, X)`` against a database means: select the
rows of ``r`` whose second column equals ``'a'`` and whose first and fourth
columns agree, then project to one column per *distinct variable*, named by
the variable.  After binding, every relational operation joins purely on
variable names — the convention all evaluation strategies share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .._errors import EvaluationError, UnknownRelationError
from ..core.atoms import Atom, Constant, Variable
from ..core.query import ConjunctiveQuery
from .database import Database, Snapshot
from .relation import Relation, Row


def check_arity(atom: Atom, db: Database) -> None:
    """Raise :class:`EvaluationError` unless *atom* has the arity of the
    relation *db* stores under its predicate."""
    stored = db.arity(atom.predicate)
    if stored != atom.arity:
        raise EvaluationError(
            f"atom {atom} has arity {atom.arity} but relation "
            f"{atom.predicate!r} has arity {stored}"
        )


def term_positions(atom: Atom) -> tuple[dict[Variable, int], tuple, tuple]:
    """Each distinct variable's first position (in order of first
    occurrence), then ``(position, value)`` per constant and ``(position,
    first position)`` per repeated variable: what a row must satisfy."""
    first_position: dict[Variable, int] = {}
    constants: list[tuple[int, object]] = []
    repeats: list[tuple[int, int]] = []
    for i, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constants.append((i, term.value))
        elif term in first_position:
            repeats.append((i, first_position[term]))
        else:
            first_position[term] = i
    return first_position, tuple(constants), tuple(repeats)


def resolve_atom(
    atom: Atom, db: Database
) -> tuple[Snapshot, tuple[str, ...], Iterator[tuple[Row, Row]] | None]:
    """Check *atom* against *db* and describe its binding.

    Returns the predicate's snapshot, the atom's distinct variable names
    in order of first occurrence, and — unless the terms are distinct
    variables, when binding is a pure positional rename of the snapshot
    — an iterator of ``(bound row, base row)`` over the base rows
    consistent with the atom's constants and repeated variables.  An
    unknown predicate raises :class:`UnknownRelationError`, an arity
    mismatch :class:`EvaluationError`.
    """
    if not db.has_predicate(atom.predicate):
        raise UnknownRelationError(
            f"query atom {atom} references unknown relation "
            f"{atom.predicate!r}"
        )
    check_arity(atom, db)
    first_position, constants, repeats = term_positions(atom)
    snap = db.snapshot(atom.predicate)
    names = tuple(v.name for v in first_position)
    if not constants and not repeats:
        return snap, names, None
    keep = tuple(first_position.values())
    return snap, names, _consistent(snap.rows, constants, repeats, keep)


def _consistent(rows, constants, repeats, keep) -> Iterator[tuple[Row, Row]]:
    for row in rows:
        for i, value in constants:
            if row[i] != value:
                break
        else:
            for i, j in repeats:
                if row[i] != row[j]:
                    break
            else:
                yield tuple(row[k] for k in keep), row


def bind_atom(atom: Atom, db: Database, columnar: bool = False) -> Relation:
    """The relation of rows of ``rel(atom.predicate)`` consistent with the
    atom's constants and repeated variables, projected onto its variables.

    The result schema lists the atom's distinct variables in order of first
    occurrence.  An atom whose terms are distinct variables is a *view*:
    an O(arity) rename sharing the snapshot's row set — or, with
    *columnar*, its column buffers; anything else filters the snapshot's
    rows.  An atom over an unknown predicate raises
    :class:`EvaluationError` (the query references a relation the database
    does not define).
    """
    snap, names, selected = resolve_atom(atom, db)
    if selected is None:
        base = snap.columnar if columnar else snap
        return base.relabel(names, str(atom))
    # Rows are projections of arity-checked database tuples, so the
    # trusted constructor skips the per-row width re-validation.
    return Relation.trusted(
        names, frozenset(bound for bound, _ in selected), str(atom)
    )


@dataclass
class BoundQuery:
    """A query with every body atom bound to its variable-relation."""

    query: ConjunctiveQuery
    relations: dict[Atom, Relation]

    @staticmethod
    def bind(query: ConjunctiveQuery, db: Database) -> "BoundQuery":
        return BoundQuery(
            query, {a: bind_atom(a, db) for a in query.atoms}
        )
