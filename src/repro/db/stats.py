"""Instrumentation and cardinality estimates for evaluation strategies.

The paper's tractability results are statements about *intermediate sizes*
(semijoins never grow relations; decomposition node relations are bounded
by ``r^k``), so every evaluation strategy threads an :class:`EvalStats`
object through its operations.  Experiments E15/E16 report these counters
alongside wall-clock time, and the engine's batch executor aggregates them
across requests with :meth:`EvalStats.merge`.

:class:`CardinalityEstimator` supplies the cheap textbook estimates
(relation sizes scaled by independence-assumption selectivities) that
:mod:`repro.engine.plan` uses to pick join orders and the join-tree root.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.atoms import Atom, Constant, Variable
from .binding import check_arity
from .relation import Relation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (database imports relation)
    from .database import Database


@dataclass
class EvalStats:
    """Counters recorded by one evaluation run."""

    joins: int = 0
    semijoins: int = 0
    projections: int = 0
    max_intermediate: int = 0
    total_tuples_produced: int = 0
    wall_time: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)

    def record(self, relation: Relation) -> Relation:
        """Account for a freshly produced relation and pass it through."""
        size = len(relation)
        self.total_tuples_produced += size
        if size > self.max_intermediate:
            self.max_intermediate = size
        return relation

    @contextmanager
    def timed(self) -> Iterator["EvalStats"]:
        """Context manager adding the enclosed wall-clock time to
        :attr:`wall_time` (used by the engine around each request)."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.wall_time += time.perf_counter() - started

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Fold *other*'s counters into this object (and return it).

        Additive counters sum, :attr:`max_intermediate` takes the maximum
        (it is a high-water mark, not a volume), wall times add, and notes
        merge additively.  The batch executor uses this to aggregate
        per-query stats into one workload-level row.
        """
        self.joins += other.joins
        self.semijoins += other.semijoins
        self.projections += other.projections
        self.max_intermediate = max(self.max_intermediate, other.max_intermediate)
        self.total_tuples_produced += other.total_tuples_produced
        self.wall_time += other.wall_time
        for key, value in other.notes.items():
            self.notes[key] = self.notes.get(key, 0.0) + value
        return self

    def as_row(self) -> dict[str, int | float]:
        """Flat dict for bench/CI JSON artifacts.

        Phase breakdowns recorded in :attr:`notes` ride along as
        ``note:<name>`` keys — they used to be dropped here, so the
        per-phase numbers strategies record (e.g. the incremental
        layer's ``touched_rows``) never reached the artifacts.
        """
        row: dict[str, int | float] = {
            "joins": self.joins,
            "semijoins": self.semijoins,
            "projections": self.projections,
            "max_intermediate": self.max_intermediate,
            "tuples_produced": self.total_tuples_produced,
            "wall_time": round(self.wall_time, 6),
        }
        for name in sorted(self.notes):
            row[f"note:{name}"] = self.notes[name]
        return row


class CardinalityEstimator:
    """Cheap per-database cardinality estimates for physical planning.

    Uses the classic System-R independence assumptions: a bound atom's
    cardinality is its relation size scaled by ``1/distinct(column)`` per
    constant selection and per repeated-variable equality.  Sizes are
    O(1) reads; distinct counts and the active domain are memoised per
    relation version on the database's snapshots, so an estimator is
    free to build per request.

    It is the one place a plan compile reads data: :attr:`reads` logs
    every :func:`read` with its value, which the engine re-reads in log
    order before replaying the plan — a predicate's arity is logged
    before anything else about it, so it is confirmed first.
    """

    def __init__(self, db: "Database | None"):
        self.db = db
        self.reads: dict[tuple, int | None] = {}
        self._atom_memo: dict[Atom, float] = {}

    def _read(self, *key) -> int | None:
        if key not in self.reads:
            self.reads[key] = None if self.db is None else read(self.db, key)
        return self.reads[key]

    def check_arity(self, atom: Atom) -> None:
        """Raise ``EvaluationError`` if *atom*'s predicate has another arity."""
        if self._read("arity", atom.predicate) not in (None, atom.arity):
            check_arity(atom, self.db)

    def distinct(self, predicate: str, column: int) -> int:
        """Number of distinct values in one column (≥ 1 for estimates)."""
        if self._read("arity", predicate) is None:
            return 1
        return max(1, self._read("distinct", predicate, column))

    def atom_rows(self, atom: Atom) -> float:
        """Estimated row count of ``bind_atom(atom, db)``, memoised per
        atom (the greedy join-order search evaluates each candidate many
        times).

        Unknown predicates (or no database at all, as in ``explain``
        without facts) estimate to 1.0 so planning still produces a
        deterministic order.
        """
        if atom not in self._atom_memo:
            self._atom_memo[atom] = self._atom_rows_uncached(atom)
        return self._atom_memo[atom]

    def _atom_rows_uncached(self, atom: Atom) -> float:
        if self._read("arity", atom.predicate) != atom.arity:
            return 1.0
        estimate = float(self._read("rows", atom.predicate))
        first_position: dict[Variable, int] = {}
        for i, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                estimate /= self.distinct(atom.predicate, i)
            elif term in first_position:
                estimate /= max(
                    self.distinct(atom.predicate, i),
                    self.distinct(atom.predicate, first_position[term]),
                )
            else:
                first_position[term] = i
        return estimate

    def projected_rows(self, atom: Atom, keep: frozenset[Variable]) -> float:
        """Estimated row count of ``bind_atom(atom, db)`` projected onto
        *keep*, a proper subset of its variables — what a Lemma 4.6 bag
        pipeline joins when the atom reaches outside χ.  A projection
        cannot hold more rows than its columns have value combinations:
        ``min(atom_rows, ∏ distinct(kept column))``."""
        combinations = 1.0
        counted: set[Variable] = set()
        for i, term in enumerate(atom.terms):
            if term in keep and term not in counted:
                counted.add(term)
                combinations *= self.distinct(atom.predicate, i)
        return min(self.atom_rows(atom), combinations)

    def join_rows(self, left_rows: float, left_vars: frozenset[Variable],
                  right_rows: float, right_vars: frozenset[Variable],
                  domain: int) -> float:
        """Estimated size of a natural join given both sides' variable
        sets, assuming each shared variable cuts the cross product by the
        active-domain size."""
        shared = len(left_vars & right_vars)
        estimate = left_rows * right_rows
        for _ in range(shared):
            estimate /= max(1, domain)
        return estimate

    @property
    def domain_size(self) -> int:
        """Active-domain size (1 when no database is attached)."""
        return 1 if self.db is None else max(1, self._read("domain"))


def read(db: "Database", key: tuple) -> int | None:
    """One estimator read: ``("arity", p)`` (``None`` when *p* is
    absent), ``("rows", p)``, ``("distinct", p, column)``, ``("domain",)``."""
    kind = key[0]
    if kind == "arity":
        return db.arity(key[1]) if db.has_predicate(key[1]) else None
    if kind == "rows":
        return db.cardinality(key[1])
    if kind == "distinct":
        return db.snapshot(key[1]).distinct(key[2])
    return db.domain_size()
