"""Counted row sets and the delta join (the counting algorithm).

The classic counting algorithm for view maintenance (Gupta, Mumick &
Subrahmanian) keeps, for every derived tuple, the number of derivations
that *support* it.  An insertion surfaces exactly the tuples whose
support rises from zero; a deletion retracts exactly the tuples whose
support drops to zero; every other change is invisible one level up —
which is why propagation along a join tree touches only the paths a
delta actually affects.

Algebraically this is annotated evaluation over
:class:`repro.db.semiring.IntegerRing` — the ℕ counting semiring of
``Engine.count`` completed with additive inverses so deltas can
retract: a deletion is an insertion annotated ``negate(one)``, and all
weight folds below go through the ring's ``plus``/``times``.  The
machinery here is therefore the incremental face of the same instance
the batch evaluator runs, not a private arithmetic.

This module provides the two machine parts, both join-tree agnostic:

* :class:`CountedRows` — one join operand as a ℤ-set: rows with their
  positive support plus key indexes; folding a signed delta reports
  only the zero crossings (the set-level delta);
* :class:`DeltaJoin` — a compiled ``π_keep(I_0 ⋈ ... ⋈ I_k)`` operator
  over :class:`CountedRows`, maintained under signed per-input deltas
  via the sequential delta rule ``Δ(I⋈J) = ΔI⋈J ∪ I'⋈ΔJ``, generalised
  to k inputs; its output is the projection's *signed* delta.

:class:`repro.incremental.view.MaterializedView` instantiates one
:class:`DeltaJoin` per join-tree node, read off the plan's annotated
sweep program: a child's signed output is the delta of its parent's
child-slot input, so each edge's rows are counted in exactly one place,
and the root's output folds into one :class:`CountedRows` — the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..db.semiring import INT_RING, IntegerRing
from ..db.stats import EvalStats

Row = tuple
#: row -> non-zero signed weight (a sparse delta of a counted relation).
#: Weights are :data:`repro.db.semiring.INT_RING` elements.
SignedRows = dict[Row, int]


class _Counts(dict):
    # A full collection untracks an exact dict of untracked row tuples,
    # and the next fresh row re-tracks it as a young object that every
    # young collection then traverses; a subclass stays in the oldest
    # generation, as a set does.
    __slots__ = ()


class CountedRows:
    """Rows with strictly positive support, plus key indexes.

    :meth:`apply` folds a signed weight update into the counts with the
    ring's ``plus`` and returns the *set-level* delta: ``one`` for rows
    whose support rose from zero (appeared), ``negate(one)`` for rows
    whose support hit zero (vanished).  Support never goes negative — if
    it would, the caller fed a delta that was not effective against the
    maintained state, which is an internal invariant violation, not a
    user error.

    Key indexes are built lazily on first request (at :class:`DeltaJoin`
    compile time) and index the row *set*: only a zero crossing moves
    them, so a delta-rule probe never rescans the input.
    """

    __slots__ = ("attributes", "counts", "ring", "_indexes")

    def __init__(
        self, attributes: tuple[str, ...], ring: IntegerRing = INT_RING
    ) -> None:
        self.attributes = attributes
        self.counts: dict[Row, int] = _Counts()
        self.ring = ring
        self._indexes: dict[tuple[int, ...], dict[Row, set[Row]]] = {}

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, row: Row) -> bool:
        return row in self.counts

    def support(self, row: Row) -> int:
        return self.counts.get(row, self.ring.zero)

    def rows(self) -> frozenset[Row]:
        return frozenset(self.counts)

    def index_on(self, positions: tuple[int, ...]) -> dict[Row, set[Row]]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.counts:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, set()).add(row)
            self._indexes[positions] = index
        return index

    def apply(self, signed: Mapping[Row, int]) -> SignedRows:
        out: SignedRows = {}
        counts = self.counts
        indexes = self._indexes.items()
        ring = self.ring
        zero, one = ring.zero, ring.one
        appeared, vanished = one, ring.negate(one)
        for row, weight in signed.items():
            if weight == zero:
                continue
            old = counts.get(row, zero)
            new = ring.plus(old, weight)
            if new < zero:
                raise RuntimeError(
                    f"support underflow for {row!r}: {old} + {weight} "
                    "(delta not effective against maintained state)"
                )
            if new == zero:
                del counts[row]
                out[row] = vanished
                for positions, index in indexes:
                    key = tuple(row[p] for p in positions)
                    bucket = index[key]
                    bucket.discard(row)
                    if not bucket:
                        del index[key]
            else:
                counts[row] = new
                if old == zero:
                    out[row] = appeared
                    for positions, index in indexes:
                        key = tuple(row[p] for p in positions)
                        index.setdefault(key, set()).add(row)
        return out


@dataclass(frozen=True)
class _FoldStep:
    """One probe of the delta rule: join the accumulated rows with one
    stored input through its key index, appending the input's new
    attributes."""

    input_index: int
    acc_key_positions: tuple[int, ...]
    input_key_positions: tuple[int, ...]
    append_positions: tuple[int, ...]


class DeltaJoin:
    """``π_keep(I_0 ⋈ ... ⋈ I_k)`` maintained under per-input deltas.

    The fold order for each possible delta input is compiled once (greedy:
    prefer operands sharing attributes with what is already joined, as the
    batch planner does), and the required indexes are registered on the
    inputs up front.  :meth:`apply` implements the sequential k-way delta
    rule: each input folds its signed delta in index order, and the zero
    crossings of ``I_j`` join the *new* state of inputs before ``j`` with
    the *old* state of inputs after ``j`` — summed and projected, that is
    exactly the delta of the projected join of the inputs' row sets.
    Weights combine through the ring: a joined row's weight is the
    crossing's weight ``times`` the stored row's unit annotation, and the
    projection ``plus``-folds collapsed rows.
    """

    def __init__(
        self,
        inputs: list[CountedRows],
        keep: tuple[str, ...],
        ring: IntegerRing = INT_RING,
    ):
        if not inputs:
            raise ValueError("DeltaJoin needs at least one input")
        self.inputs = inputs
        self.keep = keep
        self.ring = ring
        self._plans: list[tuple[tuple[_FoldStep, ...], tuple[int, ...]]] = [
            self._compile(j) for j in range(len(inputs))
        ]

    def _compile(
        self, j: int
    ) -> tuple[tuple[_FoldStep, ...], tuple[int, ...]]:
        acc_attrs = list(self.inputs[j].attributes)
        remaining = [i for i in range(len(self.inputs)) if i != j]
        steps: list[_FoldStep] = []
        while remaining:
            acc_set = set(acc_attrs)
            m = max(
                remaining,
                key=lambda i: (
                    sum(1 for a in self.inputs[i].attributes if a in acc_set),
                    -i,
                ),
            )
            remaining.remove(m)
            attrs = self.inputs[m].attributes
            shared = [a for a in attrs if a in acc_set]
            extra = [a for a in attrs if a not in acc_set]
            step = _FoldStep(
                input_index=m,
                acc_key_positions=tuple(acc_attrs.index(a) for a in shared),
                input_key_positions=tuple(attrs.index(a) for a in shared),
                append_positions=tuple(attrs.index(a) for a in extra),
            )
            # Register the index now so the first apply() probes an
            # already-maintained structure.
            self.inputs[m].index_on(step.input_key_positions)
            steps.append(step)
            acc_attrs.extend(extra)
        missing = [a for a in self.keep if a not in acc_attrs]
        if missing:
            raise ValueError(
                f"projection attributes {missing} not produced by the join "
                f"of {[i.attributes for i in self.inputs]}"
            )
        project = tuple(acc_attrs.index(a) for a in self.keep)
        return tuple(steps), project

    def apply(
        self,
        deltas: Mapping[int, SignedRows],
        stats: EvalStats | None = None,
    ) -> tuple[SignedRows, int]:
        """Fold the batch of signed per-input deltas into the inputs;
        return the signed delta of the projected join's derivation
        counts and the number of zero crossings the inputs reported."""
        signed_out: SignedRows = {}
        crossed = 0
        ring = self.ring
        zero, one = ring.zero, ring.one
        for j in sorted(deltas):
            # Input j turns "new" before its crossings probe the others.
            acc = self.inputs[j].apply(deltas[j])
            if not acc:
                continue
            crossed += len(acc)
            steps, project = self._plans[j]
            for step in steps:
                if not acc:
                    break
                index = self.inputs[step.input_index].index_on(
                    step.input_key_positions
                )
                nxt: SignedRows = {}
                for row, weight in acc.items():
                    key = tuple(row[p] for p in step.acc_key_positions)
                    # Stored rows are set-level state, annotated ``one``.
                    weight = ring.times(weight, one)
                    for match in index.get(key, ()):
                        joined = row + tuple(
                            match[p] for p in step.append_positions
                        )
                        nxt[joined] = ring.plus(nxt.get(joined, zero), weight)
                acc = nxt
                if stats is not None:
                    stats.joins += 1
                    size = len(acc)
                    stats.total_tuples_produced += size
                    if size > stats.max_intermediate:
                        stats.max_intermediate = size
            for row, weight in acc.items():
                if weight == zero:
                    continue
                projected = tuple(row[p] for p in project)
                signed_out[projected] = ring.plus(
                    signed_out.get(projected, zero), weight
                )
        if stats is not None:
            stats.projections += 1
        return {
            row: weight for row, weight in signed_out.items() if weight != zero
        }, crossed
