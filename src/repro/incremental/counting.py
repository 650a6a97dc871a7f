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
retract: a deletion is an insertion annotated ``-1``.  That ring's
``plus`` is ``a + b`` and its ``times`` by a stored row's unit
annotation is the identity, so the weights below are plain Python ints
folded with ``+``: the same algebra the batch evaluator runs, without a
method call per row.

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
program: a child's signed output is the delta of its parent's
child-slot input, so each edge's rows are counted in exactly one place,
and the root's output folds into one :class:`CountedRows` — the answer.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Mapping

from ..db.stats import EvalStats

Row = tuple
#: row -> non-zero signed weight (a sparse delta of a counted relation).
#: Weights are plain ints: elements of :data:`repro.db.semiring.INT_RING`.
SignedRows = dict[Row, int]
#: A compiled position tuple: row -> the tuple of its values there.
KeyFn = Callable[[Row], Row]


def key_of(positions: tuple[int, ...]) -> KeyFn:
    """Compile *positions* once into a key function equal to
    ``lambda row: tuple(row[p] for p in positions)`` on tuple rows.

    Both forms run in C.  A run of consecutive positions (one position,
    none, or a whole row) is a tuple slice — ``itemgetter(p)`` would
    return a bare value, not a 1-tuple, and slicing a whole row hands
    back the row itself.  Any other tuple is ``itemgetter(*positions)``.
    """
    start = positions[0] if positions else 0
    if positions == tuple(range(start, start + len(positions))):
        return itemgetter(slice(start, start + len(positions)))
    return itemgetter(*positions)


class _Counts(dict):
    # A full collection untracks an exact dict of untracked row tuples,
    # and the next fresh row re-tracks it as a young object that every
    # young collection then traverses; a subclass stays in the oldest
    # generation, as a set does.
    __slots__ = ()


class CountedRows:
    """Rows with strictly positive support, plus key indexes.

    :meth:`apply` folds a signed weight update into the counts with
    ``+`` and returns the *set-level* delta: ``1`` for rows whose
    support rose from zero (appeared), ``-1`` for rows whose support hit
    zero (vanished).  Support never goes negative — if it would, the
    caller fed a delta that was not effective against the maintained
    state, which is an internal invariant violation, not a user error.

    Key indexes are built lazily on first request (at :class:`DeltaJoin`
    compile time) and index the row *set*: only a zero crossing moves
    them, so a delta-rule probe never rescans the input.  An index maps
    a key to its bucket, an exact ``dict`` of rows (row -> ``None``).
    """

    __slots__ = ("attributes", "counts", "_indexes")

    def __init__(self, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes
        self.counts: dict[Row, int] = _Counts()
        # positions -> (compiled key, key -> bucket)
        self._indexes: dict[
            tuple[int, ...], tuple[KeyFn, dict[Row, dict[Row, None]]]
        ] = {}

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, row: Row) -> bool:
        return row in self.counts

    def support(self, row: Row) -> int:
        return self.counts.get(row, 0)

    def rows(self) -> frozenset[Row]:
        return frozenset(self.counts)

    def index_on(
        self, positions: tuple[int, ...]
    ) -> dict[Row, dict[Row, None]]:
        entry = self._indexes.get(positions)
        if entry is None:
            key = key_of(positions)
            index: dict[Row, dict[Row, None]] = {}
            for row in self.counts:
                index.setdefault(key(row), {})[row] = None
            entry = self._indexes[positions] = (key, index)
        return entry[1]

    def apply(self, signed: Mapping[Row, int]) -> SignedRows:
        out: SignedRows = {}
        counts = self.counts
        indexes = self._indexes.values()
        for row, weight in signed.items():
            if not weight:
                continue
            old = counts.get(row, 0)
            new = old + weight
            if new < 0:
                raise RuntimeError(
                    f"support underflow for {row!r}: {old} + {weight} "
                    "(delta not effective against maintained state)"
                )
            if not new:
                del counts[row]
                out[row] = -1
                for key, index in indexes:
                    k = key(row)
                    bucket = index[k]
                    del bucket[row]
                    if not bucket:
                        del index[k]
            else:
                counts[row] = new
                if not old:
                    out[row] = 1
                    for key, index in indexes:
                        # A bucket is an exact dict (row -> None), not a
                        # set: a full collection untracks a dict whose
                        # rows are all atomic, so settled buckets drop
                        # out of every later collection and a fresh row
                        # re-tracks only its own small bucket.  A set is
                        # never untracked.  ``get`` first: no empty
                        # bucket is built per call, as ``setdefault``
                        # would.
                        k = key(row)
                        bucket = index.get(k)
                        if bucket is None:
                            index[k] = {row: None}
                        else:
                            bucket[row] = None
        return out


#: One probe of the delta rule: join the accumulated rows with one stored
#: input through its key index (the index, the accumulated rows' compiled
#: probe key), appending the input's new attributes (compiled slice).
_FoldStep = tuple[dict[Row, dict[Row, None]], KeyFn, KeyFn]


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
    Weights are plain ints: a stored row is annotated ``1``, so a joined
    row carries its crossing's weight, and the projection adds up the
    weights of the rows it collapses.
    """

    def __init__(self, inputs: list[CountedRows], keep: tuple[str, ...]):
        if not inputs:
            raise ValueError("DeltaJoin needs at least one input")
        self.inputs = inputs
        self.keep = keep
        self._plans: list[tuple[tuple[_FoldStep, ...], KeyFn]] = [
            self._compile(j) for j in range(len(inputs))
        ]

    def _compile(self, j: int) -> tuple[tuple[_FoldStep, ...], KeyFn]:
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
            # Registering the index now means the first apply() probes an
            # already-maintained structure; the step holds it directly.
            index = self.inputs[m].index_on(
                tuple(attrs.index(a) for a in shared)
            )
            steps.append((
                index,
                key_of(tuple(acc_attrs.index(a) for a in shared)),
                key_of(tuple(attrs.index(a) for a in extra)),
            ))
            acc_attrs.extend(extra)
        missing = [a for a in self.keep if a not in acc_attrs]
        if missing:
            raise ValueError(
                f"projection attributes {missing} not produced by the join "
                f"of {[i.attributes for i in self.inputs]}"
            )
        project = key_of(tuple(acc_attrs.index(a) for a in self.keep))
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
        out_get = signed_out.get
        crossed = 0
        for j in sorted(deltas):
            # Input j turns "new" before its crossings probe the others.
            acc = self.inputs[j].apply(deltas[j])
            if not acc:
                continue
            crossed += len(acc)
            steps, project = self._plans[j]
            for index, probe, append in steps:
                if not acc:
                    break
                # No two (row, match) pairs join to one row: the row is
                # its prefix, and the probe key plus the appended values
                # are all of the match.  So each weight is stored, not
                # added up, and none cancels to zero.
                acc = {
                    row + append(match): weight
                    for row, weight in acc.items()
                    for match in index.get(probe(row), ())
                }
                if stats is not None:
                    stats.joins += 1
                    size = len(acc)
                    stats.total_tuples_produced += size
                    if size > stats.max_intermediate:
                        stats.max_intermediate = size
            for row, weight in acc.items():
                projected = project(row)
                signed_out[projected] = out_get(projected, 0) + weight
        if stats is not None:
            stats.projections += 1
        return {
            row: weight for row, weight in signed_out.items() if weight
        }, crossed
