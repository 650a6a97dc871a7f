"""Support counting for delta propagation (the counting algorithm).

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

This module provides the three machine parts, all join-tree agnostic:

* :class:`SupportCounter` — a multiset of rows that folds signed weight
  updates and reports only the zero crossings (the set-level delta);
* :class:`JoinInput` — one operand of a join: a row set plus
  incrementally maintained hash indexes on the key attributes the delta
  rules need;
* :class:`DeltaJoin` — a compiled ``π_keep(I_0 ⋈ ... ⋈ I_k)`` operator
  maintained under per-input set deltas via the sequential delta rule
  ``Δ(I⋈J) = ΔI⋈J ∪ I'⋈ΔJ``, generalised to k inputs.

:class:`repro.incremental.view.MaterializedView` instantiates one
:class:`DeltaJoin` per join-tree node, read off the plan's annotated
sweep program: a child slot carries its marginal — what the parent's
``Join`` reads of the child — so the set-level output delta of a child
node is the input delta of its parent's child slot, and the root's
:attr:`DeltaJoin.result` is the answer relation.
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


class SupportCounter:
    """Rows with strictly positive derivation counts.

    :meth:`apply` folds a signed weight update into the counts with the
    ring's ``plus`` and returns the *set-level* delta: ``one`` for rows
    whose support rose from zero (appeared), ``negate(one)`` for rows
    whose support hit zero (vanished).  Support never goes negative — if
    it would, the caller fed a delta that was not effective against the
    maintained state, which is an internal invariant violation, not a
    user error.
    """

    __slots__ = ("counts", "ring")

    def __init__(self, ring: IntegerRing = INT_RING) -> None:
        self.counts: dict[Row, int] = {}
        self.ring = ring

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, row: Row) -> bool:
        return row in self.counts

    def support(self, row: Row) -> int:
        return self.counts.get(row, 0)

    def rows(self) -> frozenset[Row]:
        return frozenset(self.counts)

    def apply(self, signed: Mapping[Row, int]) -> SignedRows:
        out: SignedRows = {}
        counts = self.counts
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
            else:
                counts[row] = new
                if old == zero:
                    out[row] = appeared
        return out


class JoinInput:
    """One operand of a :class:`DeltaJoin`: a row set plus key indexes.

    Indexes are created lazily the first time a key position tuple is
    requested (at plan compile time) and maintained incrementally on
    every :meth:`apply`, so a delta-rule probe never rescans the input.
    """

    __slots__ = ("attributes", "rows", "_indexes")

    def __init__(self, attributes: tuple[str, ...]):
        self.attributes = attributes
        self.rows: set[Row] = set()
        self._indexes: dict[tuple[int, ...], dict[Row, set[Row]]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def index_on(self, positions: tuple[int, ...]) -> dict[Row, set[Row]]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for row in self.rows:
                key = tuple(row[p] for p in positions)
                index.setdefault(key, set()).add(row)
            self._indexes[positions] = index
        return index

    def apply(self, set_delta: Mapping[Row, int]) -> None:
        for row, sign in set_delta.items():
            if sign > 0:
                self.rows.add(row)
                for positions, index in self._indexes.items():
                    key = tuple(row[p] for p in positions)
                    index.setdefault(key, set()).add(row)
            else:
                self.rows.discard(row)
                for positions, index in self._indexes.items():
                    key = tuple(row[p] for p in positions)
                    bucket = index.get(key)
                    if bucket is not None:
                        bucket.discard(row)
                        if not bucket:
                            del index[key]


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
    rule: inputs are updated in index order, and the contribution of
    ``ΔI_j`` joins the *new* state of inputs before ``j`` with the *old*
    state of inputs after ``j`` — summed and projected, that is exactly
    the delta of the projected join.  Weights combine through the ring:
    a joined row's weight is the delta weight ``times`` the stored
    row's unit annotation, and the projection ``plus``-folds collapsed
    rows.  The projection's derivation counts live in :attr:`result`,
    so only zero crossings escape to the caller.
    """

    def __init__(
        self,
        inputs: list[JoinInput],
        keep: tuple[str, ...],
        ring: IntegerRing = INT_RING,
    ):
        if not inputs:
            raise ValueError("DeltaJoin needs at least one input")
        self.inputs = inputs
        self.keep = keep
        self.ring = ring
        self.result = SupportCounter(ring)
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
    ) -> SignedRows:
        """Fold the batch of per-input set deltas; return the set-level
        delta of the projected join result."""
        signed_out: SignedRows = {}
        ring = self.ring
        zero, one = ring.zero, ring.one
        for j in sorted(deltas):
            delta_j = deltas[j]
            if not delta_j:
                continue
            steps, project = self._plans[j]
            acc: SignedRows = dict(delta_j)
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
            # Input j's state becomes "new" for the inputs still pending.
            self.inputs[j].apply(delta_j)
        if stats is not None:
            stats.projections += 1
        return self.result.apply(signed_out)
