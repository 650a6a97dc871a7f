"""Pluggable execution backends for the sharded evaluation kernel.

A :class:`~repro.db.sharded.ShardedRelation` runs each operator as one
task per shard.  Where those tasks run, and how shard data gets there,
is an :class:`ExecutionContext`; the relation is cut with one and keeps
it, so nothing above the operators passes a backend along.  A thread
task can close over shared relations for free, but a process task
cannot: closures do not pickle, and shipping a relation's rows to a
worker on every operator call costs more than the operator itself
(measured: a pickle round trip of 10k rows ≈ 3 ms against ≈ 1.4 ms for
the semijoin probe loop it would parallelise).  Hence a small interface
with three implementations:

* :class:`SequentialBackend` — zero-overhead inline execution, the
  default;
* :class:`ThreadBackend` — shard tasks fan out over a thread pool the
  backend owns.  Low latency and shared memory, but GIL-bound: it banks
  per-operator constants, not multicore scaling;
* :class:`ProcessBackend` — shard tasks run in worker *processes*.  To
  beat the serialisation tax it keeps shard data **resident in the
  workers**: ``scatter`` ships a shard's rows to its owner worker once,
  every subsequent operator references it by token and leaves its
  result resident, and ``gather`` pulls rows back only when a plain
  :class:`~repro.db.relation.Relation` is actually needed.  A whole Yannakakis sweep therefore pays IPC proportional to
  the *input plus output* volume, not to the number of operators.

The operator vocabulary is a registry of named, module-level functions
(:data:`_OPS`) over plain relations — the same functions run inline, on
a thread pool, or inside a worker process, which is how the property
suite can assert backend-for-backend equivalence.

**Relations pickle themselves.**  A relation crosses the process
boundary as an ordinary pickled value: every carrier's ``__reduce__``
(the carrier protocol, :mod:`repro.db.relation`) sends its fields and
rebuilds through its trusted constructor, so the memoised key sets and
join hash tables in ``__dict__`` (orders of magnitude larger than the
rows) never travel and rows are not re-validated on arrival.
Worker-side caches keep the rebuilt instance, so its memoised hash
structures amortise across operators exactly like the parent's do.

**Broadcast scatter.**  Read-only build-side payloads (a semijoin's key
set, a broadcast join's partner relation) are registered with
:meth:`ExecutionContext.scatter` and shipped to each worker at most
once, LRU-bounded; repeated semijoins against the same filter reference
the worker-resident copy by token instead of re-serialising it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
import traceback
import weakref
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

from .._errors import EvaluationError
from ..obs import current_tracer, get_registry
from ..obs.flight import get_flight_recorder
from ..obs.profiler import SamplingProfiler, current_profiler
from ..obs.tracer import span_tuple
from .annotated import AnnotatedRelation, merge_annotated
from .columnar import ColumnarRelation, concat_columnar
from .relation import Relation, Row
from .shm import attach_columnar, export_columnar, shm_available

BACKEND_KINDS = ("sequential", "thread", "process")

#: Columnar relations at or above this many rows cross the process
#: boundary through a shared-memory segment (tiny descriptor on the
#: queue, zero-copy attach in the worker) instead of being pickled.
#: Below it the segment setup costs more than the pickle it saves.
SHM_MIN_ROWS = 2048

#: Environment variable selecting the default backend kind (CI runs the
#: tier-1 suite once with ``REPRO_BACKEND=process`` to exercise the
#: process kernel end to end).
BACKEND_ENV_VAR = "REPRO_BACKEND"


def default_backend_kind() -> str:
    """The backend kind engines use when none is chosen explicitly:
    ``$REPRO_BACKEND`` when it names a valid kind, else ``sequential``."""
    kind = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    return kind if kind in BACKEND_KINDS else "sequential"


# -- shard operator registry ----------------------------------------------
#
# Every shard-level operator the kernel fans out is a named module-level
# function over relations/values — each a one-line call into the carrier
# protocol of :mod:`repro.db.relation` — picklable by reference, so the
# same vocabulary runs inline, on threads, and in worker processes.

_OPS: dict[str, Callable] = {}


def register_op(name: str) -> Callable[[Callable], Callable]:
    def decorate(fn: Callable) -> Callable:
        _OPS[name] = fn
        return fn

    return decorate


@register_op("identity")
def _op_identity(rel: Relation) -> Relation:
    """Pass-through: scatter (with ``keep=True``) and gather transport."""
    return rel


@register_op("semijoin_pair")
def _op_semijoin_pair(left: Relation, right: Relation) -> Relation:
    return left.semijoin(right)


@register_op("semijoin_keys")
def _op_semijoin_keys(
    shard: Relation, shared: tuple[str, ...], keys: frozenset
) -> Relation:
    # Method dispatch: the annotated subclass filters its annotation map
    # alongside the rows; plain shards run the untouched probe loop.
    return shard.semijoin_with_keys(shared, keys)


@register_op("join_pair")
def _op_join_pair(left: Relation, right: Relation, name: str | None) -> Relation:
    return left.join(right, name=name)


@register_op("probe_join")
def _op_probe_join(
    partner: Relation,
    shard: Relation,
    shared: tuple[str, ...],
    extra_pos: tuple[int, ...],
    out_attrs: tuple[str, ...],
    name: str,
) -> Relation:
    # The richer operand brings the kernel: annotated over plain, and
    # the columnar batch kernel when both sides hold buffers (e.g. an
    # shm-attached broadcast partner probing a columnar resident shard).
    kernel = (shard if shard._rank >= partner._rank else partner)._probe_join
    return kernel(partner, shard, False, shared, extra_pos, out_attrs, name)


@register_op("project")
def _op_project(
    shard: Relation, attributes: tuple[str, ...], name: str | None
) -> Relation:
    return shard.project(attributes, name=name)


@register_op("key_set")
def _op_key_set(shard: Relation, attributes: tuple[str, ...]) -> frozenset:
    return shard.key_set(attributes)


# -- remote handles --------------------------------------------------------


class RemoteShard:
    """A relation shard resident in one :class:`ProcessBackend` worker.

    Carries everything the parent-side planning code needs — schema,
    display name, row count, owning worker — while the rows themselves
    stay in the worker's store under ``token``.  Garbage collection of
    the handle releases the worker-side entry (via a ``weakref``
    finalizer registered by the backend), so sweep intermediates free
    their memory as the parent drops them.
    """

    __slots__ = ("token", "attributes", "name", "length", "owner", "__weakref__")

    def __init__(
        self,
        token: str,
        attributes: tuple[str, ...],
        name: str,
        length: int,
        owner: int,
    ):
        self.token = token
        self.attributes = attributes
        self.name = name
        self.length = length
        self.owner = owner

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __repr__(self) -> str:
        return (
            f"<RemoteShard {self.name}({', '.join(self.attributes)}) "
            f"[{self.length} rows @ worker {self.owner}]>"
        )


class _BroadcastRef:
    """A scatter handle: token for workers, live value for inline use."""

    __slots__ = ("token", "value")

    def __init__(self, token: str, value: object):
        self.token = token
        self.value = value


ShardPiece = "Relation | RemoteShard"


# -- the backend interface -------------------------------------------------


class ExecutionContext:
    """Where shard tasks run and how shard data moves.

    ``map_shards`` fans registered operators over per-shard argument
    tuples; ``scatter`` publishes a read-only build-side object for
    reuse across calls; ``gather`` coalesces shard pieces (local or
    remote) into one plain relation; ``close`` releases workers.  The
    base class is the sequential implementation: everything runs inline
    and data never moves.
    """

    kind = "sequential"
    workers = 1

    def map_shards(
        self,
        op: str,
        tasks: Sequence[tuple],
        keep: bool = False,
        out_attributes: tuple[str, ...] | None = None,
        out_name: str | None = None,
    ) -> list:
        """Run registered operator *op* once per task tuple, in order.

        ``keep`` asks the backend to leave each result resident with the
        worker that produced it (returning :class:`RemoteShard` handles
        instead of relations); backends without resident storage ignore
        it and return plain results.  ``out_attributes``/``out_name``
        describe the result schema for the handles.
        """
        fn = _OPS[op]
        tracer = current_tracer()
        if not tracer.enabled:
            return [fn(*_resolve_local(args)) for args in tasks]
        return [
            _traced_shard_call(tracer, self.kind, op, fn, i, args)
            for i, args in enumerate(tasks)
        ]

    def map_local(self, fn: Callable, items: Sequence) -> list:
        """Fan *closure-based* tasks out locally (bag materialisation).

        Unlike :meth:`map_shards` the callable is arbitrary, so this
        never crosses a process boundary; the process backend runs it
        inline (shipping a whole database would dwarf the win).
        """
        return [fn(item) for item in items]

    def scatter(self, obj):
        """Publish a read-only object for repeated shard-task use.

        Returns a handle accepted by :meth:`map_shards` task tuples.
        In-process backends return the object itself; the process
        backend registers it for at-most-once shipment per worker.
        """
        return obj

    def gather(
        self,
        pieces: Sequence["Relation | RemoteShard"],
        attributes: tuple[str, ...],
        name: str = "r",
    ) -> Relation:
        """Coalesce shard pieces into one relation.  Annotated pieces
        ``plus``-merge their annotation maps (duplicate rows across
        pieces fold, disjoint shards concatenate); columnar pieces with
        weight columns do the same on their buffers."""
        pieces = self._fetch(pieces)
        if len(pieces) == 1:
            return pieces[0]
        if any(isinstance(piece, AnnotatedRelation) for piece in pieces):
            return merge_annotated(pieces, attributes, name)
        if all(isinstance(piece, ColumnarRelation) for piece in pieces):
            # Keep the merge columnar so downstream operators stay on
            # the batch kernels.
            return concat_columnar(pieces, attributes, name)
        merged: set[Row] = set()
        for piece in pieces:
            merged.update(piece.rows)
        return Relation.trusted(attributes, frozenset(merged), name)

    def prefers_relation_scatter(self, rel) -> bool:
        """True when scattering *rel* itself beats scattering derived
        structures (key sets): the process backend answers yes for
        shm-eligible columnar relations, whose buffers cross for free
        while a pickled key set would not."""
        return False

    def _fetch(self, pieces: Sequence) -> list[Relation]:
        return list(pieces)

    def close(self) -> None:
        """Release workers.  Idempotent."""

    @property
    def closed(self) -> bool:
        """True once the context can no longer run work (a closed
        process pool); owners use this to recreate rather than reuse.
        In-process backends recover lazily and never report closed."""
        return False

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _resolve_local(args: tuple) -> tuple:
    """Unwrap scatter handles for inline execution."""
    if any(isinstance(a, _BroadcastRef) for a in args):
        return tuple(
            a.value if isinstance(a, _BroadcastRef) else a for a in args
        )
    return args


def _traced_shard_call(tracer, kind: str, op: str, fn, shard: int, args: tuple):
    """Run one shard task under a ``shard:<op>`` span (tracer enabled)."""
    with tracer.span(f"shard:{op}", backend=kind, shard=shard) as sp:
        result = fn(*_resolve_local(args))
        if hasattr(result, "__len__"):
            sp.set(rows=len(result))
    return result


class SequentialBackend(ExecutionContext):
    """The zero-overhead default: every operator runs inline."""


#: Shared stateless instance: what "no backend" means everywhere.
SEQUENTIAL = SequentialBackend()


class ThreadBackend(ExecutionContext):
    """Shard tasks over a thread pool the backend owns (created on first
    use, shut down by :meth:`close`).

    Low-latency — shards are shared objects, nothing is copied — but
    GIL-bound: gains come from per-operator constants (memoised indexes,
    partition-wise probes), not from occupying multiple cores.
    """

    kind = "thread"

    def __init__(self, workers: int = 4):
        self.workers = max(1, workers)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix=f"shard-{self.workers}",
                )
            return self._pool

    def map_shards(
        self,
        op: str,
        tasks: Sequence[tuple],
        keep: bool = False,
        out_attributes: tuple[str, ...] | None = None,
        out_name: str | None = None,
    ) -> list:
        fn = _OPS[op]
        tracer = current_tracer()
        if tracer.enabled:
            # Spans record on the pool threads, so the trace lays shard
            # tasks out in per-thread tracks.
            return list(
                self._executor().map(
                    lambda item: _traced_shard_call(
                        tracer, self.kind, op, fn, item[0], item[1]
                    ),
                    enumerate(tasks),
                )
            )
        if len(tasks) <= 1:
            return [fn(*_resolve_local(args)) for args in tasks]
        return list(
            self._executor().map(lambda args: fn(*_resolve_local(args)), tasks)
        )

    def map_local(self, fn: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._executor().map(fn, items))

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False)


# -- the process backend ---------------------------------------------------
#
# Parent and workers speak over per-worker task queues (so scatter and
# routing are targeted — queue FIFO order means a cached payload is
# always installed before any task that references it) and one shared
# result queue.  Messages:
#
#   parent -> worker:  ("task", tid, op, out_token|None, encoded_args,
#                       trace, profile_hz)  -- trace: bool, hz: float (0=off)
#                      ("cache", token, encoded_value)
#                      ("uncache", (token, ...))
#                      None                          -- shut down
#   worker -> parent:  ("ok", tid, row_count, spans, samples)   -- resident
#                      ("ok", tid, result, spans, samples)      -- shipped
#                      ("err", tid, traceback_text, (), ())
#
# Argument encodings: ("t", token) for worker-resident objects,
# ("s", descriptor) for columnar relations riding a shared-memory
# segment (the worker attaches by name, zero-copy), and ("v", obj) for
# everything else, relations included (they pickle through their own
# ``__reduce__``).  With ``trace`` set the worker
# times each operator on the shared monotonic clock and ships the span
# tuples (:func:`repro.obs.tracer.span_tuple`) back in the reply; the
# parent ingests them into the current tracer labelled with the owning
# worker's track.  With ``profile_hz`` > 0 the worker lazily starts its
# own :class:`~repro.obs.profiler.SamplingProfiler` at that rate and
# each reply drains the folded samples accumulated since the previous
# reply; the parent merges them into the current profiler under a
# ``worker-<pid>`` root frame — one profile covers driver and workers.


def _worker_decode(payload: tuple, store: dict):
    tag, body = payload
    if tag == "t":
        return store[body]
    if tag == "s":
        return attach_columnar(body)
    return body


def _worker_main(task_queue, result_queue) -> None:  # pragma: no cover - child process
    """One worker process: a task loop over a private resident store."""
    store: dict[str, object] = {}
    profiler: SamplingProfiler | None = None
    try:
        while True:
            message = task_queue.get()
            if message is None:
                break
            tag = message[0]
            if tag == "task":
                _, tid, op, out_token, args, trace, profile_hz = message
                if profile_hz and profiler is None:
                    # Started once, on the first profiled task; the
                    # daemon sampler then covers this worker for the
                    # rest of its life (replies drain incrementally).
                    profiler = SamplingProfiler(hz=profile_hz)
                    profiler.start()
                try:
                    fn = _OPS[op]
                    decoded = [_worker_decode(a, store) for a in args]
                    spans: tuple = ()
                    if trace:
                        started = time.perf_counter()
                        result = fn(*decoded)
                        ended = time.perf_counter()
                        spans = (
                            span_tuple(
                                f"shard:{op}",
                                started,
                                ended,
                                {
                                    "op": op,
                                    "rows": (
                                        len(result)
                                        if hasattr(result, "__len__")
                                        else None
                                    ),
                                },
                            ),
                        )
                    else:
                        result = fn(*decoded)
                    samples = (
                        profiler.drain() if profile_hz and profiler else ()
                    )
                    if out_token is not None:
                        store[out_token] = result
                        result_queue.put(
                            ("ok", tid, len(result), spans, samples)
                        )
                    else:
                        result_queue.put(("ok", tid, result, spans, samples))
                except BaseException:
                    result_queue.put(
                        ("err", tid, traceback.format_exc(), (), ())
                    )
            elif tag == "cache":
                store[message[1]] = _worker_decode(
                    pickle.loads(message[2]), store
                )
            elif tag == "uncache":
                for token in message[1]:
                    store.pop(token, None)
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or interrupted): exit quietly.
        pass
    finally:
        if profiler is not None:
            profiler.stop()


class ProcessBackendError(EvaluationError, RuntimeError):
    """A shard task failed inside a worker process (traceback attached).

    An :class:`~repro._errors.EvaluationError`, so worker-side failures
    stay inside the library's typed-error contract: ``execute_many``'s
    per-request fault isolation records them on the failed request
    instead of aborting the batch, and the CLI renders them as readable
    one-liners.  (``RuntimeError`` is kept as a secondary base for
    callers that treated backend faults generically.)
    """


class ProcessBackend(ExecutionContext):
    """Shard tasks in worker processes with worker-resident shard data.

    Shard ``i`` of every scattered relation lives with worker
    ``i % workers``; partition-wise operators are routed to the owner of
    their resident arguments, keep their results resident, and reply
    with a row count only.  Data crosses the process boundary exactly at
    ``scatter`` (inputs, once) and ``gather`` (outputs), so a
    multi-operator sweep is compute-bound in the workers rather than
    pickle-bound in the parent.

    One ``map_shards`` call is atomic with respect to concurrent engine
    threads (an internal lock serialises dispatch+collect); the shard
    tasks inside a call still run across all workers.

    ``close`` is idempotent: workers get a sentinel, are joined, and
    terminated if they fail to exit; the daemon flag backstops parent
    crashes.  A closed backend raises on further use — engines recreate
    backends on demand after :meth:`repro.engine.Engine.close`.
    """

    kind = "process"

    def __init__(
        self,
        workers: int = 4,
        scatter_cache: int = 128,
        start_method: str | None = None,
    ):
        self.workers = max(1, int(workers))
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else None
            )
        ctx = multiprocessing.get_context(start_method)
        self._result_queue = ctx.Queue()
        self._task_queues = [ctx.Queue() for _ in range(self.workers)]
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(task_queue, self._result_queue),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            for i, task_queue in enumerate(self._task_queues)
        ]
        for proc in self._procs:
            proc.start()
        self._lock = threading.RLock()
        self._closed = False
        self._counter = itertools.count()
        # Broadcast registry: (identity, version) -> (obj, token).  The
        # strong reference pins the id, so the identity-keyed LRU is
        # sound; the version component (for objects that expose one,
        # e.g. databases) keys out stale payloads after mutation.
        self._scattered: OrderedDict[tuple, tuple[object, str]] = OrderedDict()
        self._scatter_limit = max(8, scatter_cache)
        self._sent: set[str] = set()
        self._dead: deque[tuple[int, str]] = deque()
        # Pickled-payload cache, independent of the scatter registry's
        # eviction: a build side scattered again after LRU churn — or
        # re-referenced by a later plan node — reuses its serialised
        # blob instead of re-pickling.  Strong references pin ids.
        self._blob_lru: OrderedDict[tuple, tuple[object, bytes]] = OrderedDict()
        self._blob_limit = 16
        # Shared-memory lifecycle: token -> live segment for broadcast
        # payloads, plus retired segments whose unlink is deferred to
        # close/abort (eviction must not unlink a segment a worker has
        # queued-but-not-processed a "cache" message for).
        self._shm_segments: dict[str, object] = {}
        self._shm_retired: list = []

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._dead.clear()
            self._scattered.clear()
            self._sent.clear()
            self._blob_lru.clear()
            segments = [*self._shm_segments.values(), *self._shm_retired]
            self._shm_segments.clear()
            self._shm_retired.clear()
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - teardown race
                pass
        for proc in self._procs:
            proc.join(timeout=3.0)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        # Unlink after the workers are gone: every queued "cache"
        # attach has either run or can never run.
        for segment in segments:
            segment.release()
        for q in (*self._task_queues, self._result_queue):
            q.cancel_join_thread()
            q.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("process backend is closed")

    # -- resident-token bookkeeping --------------------------------------
    def _free_remote(self, owner: int, token: str) -> None:
        """``weakref.finalize`` callback: queue a worker-store release."""
        self._dead.append((owner, token))

    def _reap_dead_locked(self) -> None:
        if not self._dead:
            return
        by_owner: dict[int, list[str]] = {}
        while self._dead:
            try:
                owner, token = self._dead.popleft()
            except IndexError:  # pragma: no cover - concurrent finalizers
                break
            by_owner.setdefault(owner, []).append(token)
        for owner, tokens in by_owner.items():
            self._task_queues[owner].put(("uncache", tuple(tokens)))

    def _remote(
        self,
        token: str,
        attributes: tuple[str, ...],
        name: str,
        length: int,
        owner: int,
    ) -> RemoteShard:
        shard = RemoteShard(token, attributes, name, length, owner)
        weakref.finalize(shard, self._free_remote, owner, token)
        return shard

    # -- scatter ----------------------------------------------------------
    def scatter(self, obj):
        """Register *obj* (a relation or key set) for broadcast reuse.

        The payload is shipped to each worker at most once, lazily — on
        the first ``map_shards`` dispatch that references it — and
        dropped everywhere when the LRU evicts it.  Repeated scatters of
        the same object (e.g. a semijoin filter reused across both sweep
        directions, or a build side referenced by several plan nodes)
        return the same token without re-serialising.
        """
        with self._lock:
            self._ensure_open()
            key = self._scatter_key(obj)
            entry = self._scattered.get(key)
            if entry is not None and entry[0] is obj:
                self._scattered.move_to_end(key)
                return _BroadcastRef(entry[1], obj)
            token = f"b{next(self._counter)}"
            self._scattered[key] = (obj, token)
            self._evict_overflow_locked()
            return _BroadcastRef(token, obj)

    @staticmethod
    def _scatter_key(obj) -> tuple:
        """LRU key: object identity plus (when exposed) its version, so
        a mutated-and-rescattered container cannot alias a stale
        worker-resident payload through id reuse."""
        return (id(obj), getattr(obj, "version", None))

    def prefers_relation_scatter(self, rel) -> bool:
        return (
            isinstance(rel, ColumnarRelation)
            and rel.length >= SHM_MIN_ROWS
            and shm_available()
        )

    def _evict_overflow_locked(self) -> None:
        while len(self._scattered) > self._scatter_limit:
            _, (_, old_token) = self._scattered.popitem(last=False)
            self._uncache_broadcast_locked(old_token)

    def _uncache_broadcast_locked(self, token: str) -> None:
        segment = self._shm_segments.pop(token, None)
        if segment is not None:
            # Deferred unlink: a worker may still have the "cache"
            # message for this token queued ahead of the uncache; close
            # or abort performs the actual release once no attach can
            # still be in flight.
            self._shm_retired.append(segment)
        if token in self._sent:
            self._sent.discard(token)
            for task_queue in self._task_queues:
                task_queue.put(("uncache", (token,)))

    def _broadcast_locked(self, ref: _BroadcastRef) -> None:
        if ref.token in self._sent:
            return
        key = self._scatter_key(ref.value)
        entry = self._scattered.get(key)
        if entry is None or entry[1] != ref.token:
            # The LRU evicted (or re-tokened) this payload between
            # scatter and dispatch.  The tasks already carry ref.token,
            # so re-register under it — otherwise the shipment below
            # would leave an entry in every worker store that no
            # eviction path can ever release.
            if entry is not None:
                self._uncache_broadcast_locked(entry[1])
            self._scattered[key] = (ref.value, ref.token)
            self._scattered.move_to_end(key)
            self._evict_overflow_locked()
        registry = get_registry()
        if self.prefers_relation_scatter(ref.value):
            # Zero-copy broadcast: the column buffers go into a shared
            # memory segment; only the tiny descriptor rides the queues.
            descriptor, segment = export_columnar(ref.value)
            self._shm_segments[ref.token] = segment
            blob = pickle.dumps(
                ("s", descriptor), protocol=pickle.HIGHEST_PROTOCOL
            )
            registry.counter("backend.shm_segments").inc()
            registry.counter("backend.shm_bytes").inc(segment.size)
        else:
            cached = self._blob_lru.get(key)
            if cached is not None and cached[0] is ref.value:
                # Already pickled for a previous node/token: reuse.
                self._blob_lru.move_to_end(key)
                blob = cached[1]
                registry.counter("backend.scatter_blob_reuse").inc()
            else:
                # Pre-pickle once: each queue would otherwise
                # re-serialise the same payload per worker.
                blob = pickle.dumps(
                    ("v", ref.value), protocol=pickle.HIGHEST_PROTOCOL
                )
                self._blob_lru[key] = (ref.value, blob)
                while len(self._blob_lru) > self._blob_limit:
                    self._blob_lru.popitem(last=False)
        for task_queue in self._task_queues:
            task_queue.put(("cache", ref.token, blob))
        self._sent.add(ref.token)
        registry.counter("backend.scatter_casts").inc()
        registry.counter("backend.scatter_bytes").inc(
            len(blob) * len(self._task_queues)
        )

    # -- dispatch ---------------------------------------------------------
    def map_shards(
        self,
        op: str,
        tasks: Sequence[tuple],
        keep: bool = False,
        out_attributes: tuple[str, ...] | None = None,
        out_name: str | None = None,
    ) -> list:
        if not tasks:
            return []
        tracer = current_tracer()
        profiler = current_profiler()
        profile_hz = profiler.hz if profiler.enabled else 0.0
        get_registry().counter("backend.tasks").inc(len(tasks))
        with self._lock:
            self._ensure_open()
            self._reap_dead_locked()
            if not keep and len(tasks) == 1 and not any(
                isinstance(a, RemoteShard) for a in tasks[0]
            ):
                # Single local task: the fan-out would be pure IPC tax.
                fn = _OPS[op]
                if tracer.enabled:
                    return [
                        _traced_shard_call(
                            tracer, self.kind, op, fn, 0, tasks[0]
                        )
                    ]
                return [fn(*_resolve_local(tasks[0]))]
            # Per-call shared-memory shipments: big columnar arguments
            # cross via a segment + descriptor instead of a pickle.
            # Released in the ``finally`` — by then every task that
            # references a segment has been executed by its worker (the
            # reply arrived), so the worker holds a live mapping and
            # the parent-side unlink only removes the name.
            call_segments: dict[int, tuple] = {}

            def encode_arg(a):
                if (
                    isinstance(a, ColumnarRelation)
                    and a.length >= SHM_MIN_ROWS
                    and shm_available()
                ):
                    cached = call_segments.get(id(a))
                    if cached is None:
                        cached = export_columnar(a)
                        call_segments[id(a)] = cached
                        registry = get_registry()
                        registry.counter("backend.shm_segments").inc()
                        registry.counter("backend.shm_bytes").inc(
                            cached[1].size
                        )
                    return ("s", cached[0])
                if isinstance(a, (RemoteShard, _BroadcastRef)):
                    return ("t", a.token)
                return ("v", a)

            pending: dict[int, tuple[int, str | None, int]] = {}
            try:
                for i, args in enumerate(tasks):
                    owners = {
                        a.owner for a in args if isinstance(a, RemoteShard)
                    }
                    if len(owners) > 1:
                        raise ProcessBackendError(
                            f"operator {op!r} mixes shards resident on "
                            f"workers {sorted(owners)}; partition-wise "
                            f"tasks must align"
                        )
                    owner = owners.pop() if owners else i % self.workers
                    for arg in args:
                        if isinstance(arg, _BroadcastRef):
                            self._broadcast_locked(arg)
                    tid = next(self._counter)
                    out_token = f"t{next(self._counter)}" if keep else None
                    self._task_queues[owner].put(
                        ("task", tid, op, out_token,
                         tuple(encode_arg(a) for a in args),
                         tracer.enabled, profile_hz)
                    )
                    pending[tid] = (i, out_token, owner)
                results: list = [None] * len(tasks)
                failure: str | None = None
                while pending:
                    status, tid, payload, spans, samples = (
                        self._next_result_locked()
                    )
                    entry = pending.pop(tid, None)
                    if entry is None:
                        continue  # stale reply from an earlier aborted call
                    i, out_token, owner = entry
                    if spans:
                        # Worker-resident spans: same monotonic timeline,
                        # laid out on the owning worker's track.
                        tracer.ingest(spans, tid=f"worker-{owner}")
                    if samples:
                        # Worker-side profile samples, rooted per worker
                        # pid so one flamegraph covers driver and workers.
                        profiler.ingest(
                            samples, label=f"worker-{self._procs[owner].pid}"
                        )
                    if status == "err":
                        failure = failure or payload
                    elif out_token is not None:
                        results[i] = self._remote(
                            out_token,
                            out_attributes or (),
                            out_name or "r",
                            payload,
                            owner,
                        )
                    else:
                        results[i] = payload
            finally:
                for _, segment in call_segments.values():
                    segment.release()
            if failure is not None:
                raise ProcessBackendError(
                    f"shard operator {op!r} failed in a worker:\n{failure}"
                )
            return results

    def _next_result_locked(self) -> tuple:
        while True:
            try:
                return self._result_queue.get(timeout=1.0)
            except queue_module.Empty:
                dead = [p.name for p in self._procs if not p.is_alive()]
                if dead:
                    # A lost worker means lost resident shards: the
                    # backend cannot limp along.  Full teardown happens
                    # here because close() early-returns once _closed is
                    # set — engines then recreate a fresh pool on the
                    # next request (`closed` property).
                    get_flight_recorder().record(
                        "worker_death",
                        workers=sorted(dead),
                        exitcodes={
                            p.name: p.exitcode
                            for p in self._procs
                            if not p.is_alive()
                        },
                        backend=self.kind,
                        pool_workers=self.workers,
                    )
                    self._abort_locked()
                    raise ProcessBackendError(
                        f"worker process(es) died: {', '.join(dead)}"
                    ) from None

    def _abort_locked(self) -> None:
        """Immediate teardown after a worker fault: terminate and reap
        every process and release the queues' feeder threads/pipes, so
        repeated faults in a long-lived parent cannot accumulate
        zombies or leaked file descriptors."""
        self._closed = True
        self._dead.clear()
        self._scattered.clear()
        self._sent.clear()
        self._blob_lru.clear()
        segments = [*self._shm_segments.values(), *self._shm_retired]
        self._shm_segments.clear()
        self._shm_retired.clear()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
        # The workers are dead: no attach can be in flight, unlink now.
        for segment in segments:
            segment.release()
        for q in (*self._task_queues, self._result_queue):
            q.cancel_join_thread()
            q.close()

    # -- gather -----------------------------------------------------------
    def _fetch(self, pieces: Sequence) -> list[Relation]:
        remote = [
            (i, piece)
            for i, piece in enumerate(pieces)
            if isinstance(piece, RemoteShard)
        ]
        if not remote:
            return list(pieces)
        fetched = self.map_shards("identity", [(piece,) for _, piece in remote])
        get_registry().counter("backend.gather_rows").inc(
            sum(len(rel) for rel in fetched)
        )
        out = list(pieces)
        for (i, _), rel in zip(remote, fetched):
            out[i] = rel
        return out


def make_backend(kind: str, workers: int = 4) -> ExecutionContext:
    """Construct a backend by kind name (``Engine``'s selector)."""
    if kind == "sequential":
        return SEQUENTIAL
    if kind == "thread":
        return ThreadBackend(workers=workers)
    if kind == "process":
        return ProcessBackend(workers=workers)
    raise ValueError(
        f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}"
    )
