"""Shared-memory transport for columnar relations.

A row relation crosses to a process-backend worker as a pickle of its
tuples at every scatter.  A :class:`~repro.db.columnar.ColumnarRelation`
is a handful of contiguous int64/float64 buffers, so it can cross the
process boundary without copying rows at all: the parent writes the
column buffers into one ``multiprocessing.shared_memory`` segment, ships
a tiny *descriptor* (segment name + schema + column kinds + dictionary
pools), and each worker attaches the segment by name and wraps the
buffers in typed ``memoryview`` casts — zero row decoding, zero pickled
tuples, O(descriptor) bytes on the queue regardless of row count.

Lifecycle rules (POSIX semantics make these easy to get wrong):

* the parent — and only the parent — ``unlink``s a segment; workers
  merely close their mapping (dropping the attached relation does that
  via the buffer refcounts).  Unlinking removes the *name* while live
  mappings keep the memory, so the parent may unlink as soon as every
  worker that will ever attach has attached.
* every :class:`ShmSegment` carries a ``weakref.finalize`` backstop, so
  a segment can never outlive the interpreter even if its owner forgot
  to release it.
* workers attach segments *without registering* them with
  ``multiprocessing.resource_tracker`` — the tracker otherwise assumes
  per-process ownership and both double-unlinks at worker exit and
  prints leak warnings for segments the parent already manages.  (An
  unregister *after* attaching would be just as wrong: forked workers
  share the parent's tracker process, so it would strip the creator's
  registration instead.)

Platforms without usable shared memory (no ``/dev/shm``, restricted
containers) are detected once by :func:`shm_available`; callers then
fall back to pickling the relation, which is always correct.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Sequence

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    resource_tracker = None
    shared_memory = None

from .columnar import Column, ColumnarRelation, _TYPECODE
from .semiring import get_semiring

#: Names of segments created by this process and not yet unlinked —
#: lifecycle tests assert this drains to empty on backend close.
_LIVE: set[str] = set()

_available: bool | None = None


def shm_available() -> bool:
    """Probe (once) whether shared memory actually works here."""
    global _available
    if _available is None:
        if shared_memory is None:
            _available = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=8)
                probe.close()
                probe.unlink()
                _available = True
            except (OSError, PermissionError, ValueError):
                _available = False
    return _available


def live_segment_names() -> frozenset[str]:
    """Segments this process has created and not yet unlinked."""
    return frozenset(_LIVE)


def _unlink_segment(shm, name: str) -> None:
    _LIVE.discard(name)
    try:
        shm.close()
        shm.unlink()
    except (FileNotFoundError, OSError):  # pragma: no cover - teardown race
        pass


class ShmSegment:
    """A parent-owned shared memory segment holding column buffers.

    ``release()`` unlinks eagerly; the ``weakref.finalize`` registered
    at construction is the backstop that fires at garbage collection or
    interpreter exit if nobody released explicitly (finalizers run
    before interpreter teardown, so no resource_tracker leak warnings).
    """

    __slots__ = ("shm", "name", "size", "_finalizer", "__weakref__")

    def __init__(self, shm) -> None:
        self.shm = shm
        self.name = shm.name
        self.size = shm.size
        _LIVE.add(shm.name)
        self._finalizer = weakref.finalize(self, _unlink_segment, shm, shm.name)

    def release(self) -> None:
        self._finalizer()


def export_columnar(rel: ColumnarRelation) -> tuple[tuple, ShmSegment]:
    """Write *rel*'s column buffers — a weight column last, when it has
    one — into a fresh segment.

    Returns ``(descriptor, segment)``: the descriptor is the tiny
    picklable message workers turn back into a relation with
    :func:`attach_columnar`; the segment handle stays with the caller,
    who owns the unlink."""
    columns = rel.columns
    weighted = None
    if rel.weights is not None:
        columns += (rel.weights,)
        weighted = (rel.semiring.tag, rel.bound)
    size = max(1, sum(col.nbytes for col in columns))
    shm = shared_memory.SharedMemory(create=True, size=size)
    segment = ShmSegment(shm)
    buf = shm.buf
    offset = 0
    kinds = []
    for col in columns:
        nbytes = col.nbytes
        buf[offset : offset + nbytes] = memoryview(col.data).cast("B")
        kinds.append((col.kind, col.pool))
        offset += nbytes
    descriptor = (
        shm.name,
        rel.attributes,
        rel.name,
        rel.length,
        tuple(kinds),
        weighted,
    )
    return descriptor, segment


def attach_columnar(descriptor: tuple) -> ColumnarRelation:
    """Rebuild a columnar relation from a descriptor, zero-copy.

    Each column becomes a typed ``memoryview`` into the attached
    segment.  The ``SharedMemory`` handle is pinned on the relation
    (``__dict__``), so the mapping lives exactly as long as some
    consumer still references the relation or a view derived from it —
    no explicit close needed worker-side."""
    seg_name, attributes, name, length, kinds, weighted = descriptor
    # The tracker would treat this attachment as ownership: unlink at
    # worker exit (breaking other attachments) and warn about "leaks"
    # for segments the parent deliberately still holds.  Attaching must
    # not *register* at all: under fork the workers share the parent's
    # tracker process, so an unregister-after-attach would strip the
    # creator's own registration and the parent's eventual unlink would
    # hit a tracker KeyError.
    if resource_tracker is not None:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=seg_name)
        finally:
            resource_tracker.register = original_register
    else:  # pragma: no cover - exotic builds without a tracker
        shm = shared_memory.SharedMemory(name=seg_name)
    mv = memoryview(shm.buf)
    columns = []
    offset = 0
    for kind, pool in kinds:
        nbytes = length * 8
        view = mv[offset : offset + nbytes].cast(_TYPECODE[kind])
        columns.append(Column(kind, view, pool))
        offset += nbytes
    weights: tuple = ()
    if weighted is not None:
        tag, bound = weighted
        weights = (columns.pop(), get_semiring(tag), bound)
    rel = ColumnarRelation.make(
        attributes, tuple(columns), name, length, *weights
    )
    rel.__dict__["_shm"] = shm
    return rel


def copy_from_shm(rel: ColumnarRelation) -> ColumnarRelation:
    """Deep-copy an shm-attached relation into process-private arrays
    (used before a worker result must outlive the parent's segment)."""
    def private(c: Column) -> Column:
        return Column(c.kind, array(_TYPECODE[c.kind], c.data), c.pool)

    return ColumnarRelation.make(
        rel.attributes,
        tuple(private(c) for c in rel.columns),
        rel.name,
        rel.length,
        None if rel.weights is None else private(rel.weights),
        rel.semiring,
        rel.bound,
    )
