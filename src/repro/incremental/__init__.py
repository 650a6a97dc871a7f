"""Incremental view maintenance: live query answers under update streams.

The one-shot pipeline (decompose → full reducer → enumerate) answers a
query for the database *as it is now*.  This package keeps registered
queries' answers fresh as the database changes, by counting-based delta
propagation along the same join tree that makes batch evaluation
polynomial:

* :mod:`~repro.incremental.delta` — signed, normalised update batches;
* :mod:`~repro.incremental.counting` — counted row sets (one ℤ-set per
  join input) and the sequential delta-join rule (the counting
  algorithm);
* :mod:`~repro.incremental.view` — :class:`MaterializedView`, the
  plan's annotated program maintained node by node (a child's
  signed output is its parent's child-slot input; the root's folds
  into the answer) plus answer-change subscriptions;
* :mod:`~repro.incremental.live` — :class:`LiveEngine`, the thread-safe
  facade owning the database and the registered views, planning through
  the engine's fingerprint-keyed plan cache.
"""

from .counting import CountedRows, DeltaJoin
from .delta import Delta
from .live import LiveEngine, ViewHandle
from .view import AnswerDelta, MaterializedView

__all__ = [
    "AnswerDelta",
    "CountedRows",
    "Delta",
    "DeltaJoin",
    "LiveEngine",
    "MaterializedView",
    "ViewHandle",
]
