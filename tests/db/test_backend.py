"""Unit tests for the execution-backend layer (:mod:`repro.db.backend`).

The process backend gets the bulk of the attention: relations pickling
themselves, worker-resident shards, at-most-once broadcast scatter, gather,
worker-side error propagation, and the close/orphan lifecycle the ISSUE
acceptance names explicitly.
"""

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.annotated import AnnotatedRelation
from repro.db.backend import (
    ProcessBackend,
    ProcessBackendError,
    RemoteShard,
    SequentialBackend,
    ThreadBackend,
    make_backend,
)
from repro.db.columnar import (
    lift_columnar,
    rides_buffers,
    to_columnar,
    weighted_view,
)
from repro.db.database import Snapshot
from repro.db.relation import Relation
from repro.db.semiring import COUNTING, INT_RING, MINCOST
from repro.db.sharded import ShardedRelation
from repro.db.shm import attach_columnar, export_columnar, shm_available


@pytest.fixture
def r():
    return Relation.from_rows(
        ("a", "b"), [(i, i % 7) for i in range(50)], "r"
    )


@pytest.fixture
def s():
    return Relation.from_rows(
        ("b", "c"), [(i, i * 10) for i in range(5)], "s"
    )


@pytest.fixture(scope="module")
def proc():
    """One shared 2-worker process backend for the read-only tests."""
    backend = ProcessBackend(workers=2)
    yield backend
    backend.close()


def _same(back, rel):
    """*back* is *rel* after a trip through pickle: same class (a
    snapshot arrives as a plain relation, which is all a worker needs of
    it), same fields.  Rows and annotations compare by ``repr``: an
    unpickled NaN is another object, so no longer ``==`` the original."""
    expected = Relation if isinstance(rel, Snapshot) else type(rel)
    assert type(back) is expected
    assert (back.attributes, back.name) == (rel.attributes, rel.name)
    assert len(back) == len(rel)
    assert sorted(map(repr, back.rows)) == sorted(map(repr, rel.rows))
    assert getattr(back, "bound", None) == getattr(rel, "bound", None)
    assert getattr(back, "semiring", None) is getattr(rel, "semiring", None)
    mine, theirs = (
        getattr(x, "annotations", None) for x in (back, rel)
    )
    assert (mine is None) == (theirs is None)
    if mine is not None:
        assert sorted(map(repr, mine.items())) == sorted(
            map(repr, theirs.items())
        )


_NAN = float("nan")
#: Ints (a pure-int column packs as int64), and what forces a dictionary
#: column: NaN, an int beyond int64, strings, None, mixed types.
_VALUES = st.one_of(
    st.integers(-3, 3), st.sampled_from([_NAN, 2**70, -(2**65), "x", None, 1.5])
)
FLAVOURS = ("row", "annotated", "columnar", "weighted", "snapshot")


@st.composite
def carriers(draw):
    """One relation of any flavour: 0-3 attributes, 0-10 rows."""
    arity = draw(st.integers(0, 3))
    rows = draw(st.sets(st.tuples(*[_VALUES] * arity), max_size=10))
    attrs = tuple("abc"[:arity])
    flavour = draw(st.sampled_from(FLAVOURS))
    if flavour == "snapshot":
        return Snapshot.build("e", arity, rows, version=3)
    rel = Relation.from_rows(attrs, rows, "r")
    if flavour == "columnar":
        return to_columnar(rel)
    if flavour in ("annotated", "weighted"):
        semiring = draw(st.sampled_from([COUNTING, INT_RING, MINCOST]))
        if semiring is MINCOST:
            values = {row: (float(i), ((("e", row)),)) for i, row in enumerate(rows)}
        else:
            values = {row: draw(st.integers(1, 2**40)) for row in rows}
        rel = AnnotatedRelation.lift(rel, semiring, values)
        if flavour == "weighted":
            # A weight column where the semiring and the build have one
            # (count / ℤ with numpy), the row carrier otherwise.
            rel = lift_columnar(rel, semiring)
    return rel


class TestPickling:
    """A relation crosses the process boundary as a plain pickle: every
    carrier's ``__reduce__`` sends its fields and nothing else."""

    @settings(max_examples=150, deadline=None)
    @given(rel=carriers())
    def test_every_carrier_round_trips(self, rel):
        back = pickle.loads(pickle.dumps(rel))
        _same(back, rel)
        if not any("nan" in repr(row) for row in rel.rows):
            assert back == rel and back.rows == rel.rows
        # ... and is a working operand on arrival
        assert len(back.semijoin(back)) == len(back)
        assert len(back.project(back.attributes[:1])) <= len(back)

    @pytest.mark.skipif(not rides_buffers(COUNTING), reason="needs numpy")
    def test_a_weight_column_keeps_its_bound(self):
        rows = [(i, f"s{i % 3}") for i in range(20)]
        rel = weighted_view(
            to_columnar(Relation.from_rows(("a", "b"), rows, "w")),
            COUNTING, {row: 7 * (row[0] + 1) for row in rows},
        )
        back = pickle.loads(pickle.dumps(rel))
        assert back.weights is not None and back.bound == rel.bound == 140
        assert back == rel and back.annotations == rel.annotations
        assert back.total() == rel.total()

    @pytest.mark.skipif(not shm_available(), reason="no shared memory here")
    def test_an_shm_attached_column_re_pickles(self):
        """Buffers attached from a segment are ``memoryview``s, which do
        not pickle: ``Column.__reduce__`` copies the bytes out (a worker
        shipping back a result that is, or shares columns with, an
        attached argument)."""
        rel = to_columnar(
            Relation.from_rows(
                ("a", "b"), [(i, f"s{i % 4}") for i in range(30)], "r"
            )
        )
        descriptor, segment = export_columnar(rel)
        try:
            attached = attach_columnar(descriptor)
            assert isinstance(attached.columns[0].data, memoryview)
            blob = pickle.dumps(attached)
        finally:
            del attached
            segment.release()
        back = pickle.loads(blob)  # the segment is gone: a private copy
        assert back == rel
        assert all(isinstance(c.data, array) for c in back.columns)

    @settings(max_examples=60, deadline=None)
    @given(rel=carriers())
    def test_memos_do_not_travel(self, rel):
        """The pickled size is the same before and after every memoised
        structure is built — what the hand-rolled codec existed for."""
        cold = len(pickle.dumps(rel))
        attrs = rel.attributes
        for key in {attrs[:1], attrs}:
            rel.key_set(key)
            rel.key_index(key)
        assert () in rel.rows or len(rel.rows) == len(rel)  # builds the set
        getattr(rel, "annotations", None)
        if isinstance(rel, Snapshot):
            rel.columnar
        assert len(pickle.dumps(rel)) == cold


class TestInProcessBackends:
    def test_sequential_runs_ops_inline(self, r, s):
        ctx = SequentialBackend()
        [out] = ctx.map_shards("semijoin_pair", [(r, s)])
        assert out.rows == r.semijoin(s).rows
        assert ctx.scatter(r) is r  # identity: nothing to ship

    def test_thread_backend_maps_over_pool(self, r, s):
        ctx = ThreadBackend(workers=3)
        try:
            outs = ctx.map_shards("semijoin_pair", [(r, s)] * 5)
            assert all(o.rows == r.semijoin(s).rows for o in outs)
        finally:
            ctx.close()

    def test_thread_backend_owns_its_pool_and_recovers_after_close(self, r, s):
        ctx = ThreadBackend(workers=2)
        ctx.map_shards("semijoin_pair", [(r, s)] * 2)
        pool = ctx._pool
        ctx.close()
        assert pool._shutdown and not ctx.closed
        # a closed thread backend recreates its pool on the next use
        outs = ctx.map_shards("semijoin_pair", [(r, s)] * 2)
        assert all(o.rows == r.semijoin(s).rows for o in outs)
        ctx.close()

    def test_make_backend_kinds(self):
        assert make_backend("sequential").kind == "sequential"
        thread = make_backend("thread", workers=2)
        assert thread.kind == "thread"
        thread.close()
        with pytest.raises(ValueError):
            make_backend("gpu")


class TestProcessBackend:
    def test_shipped_relation_round_trip(self, proc, r, s):
        [out] = proc.map_shards("semijoin_pair", [(r, s)] * 1)
        assert out.rows == r.semijoin(s).rows

    def test_resident_results_and_gather(self, proc, r, s):
        kept = proc.map_shards(
            "semijoin_pair", [(r, s)] * 3, keep=True,
            out_attributes=r.attributes, out_name="kept",
        )
        expected = r.semijoin(s)
        assert all(isinstance(k, RemoteShard) for k in kept)
        assert all(len(k) == len(expected) for k in kept)
        # round-robin placement across the 2 workers
        assert [k.owner for k in kept] == [0, 1, 0]
        gathered = proc.gather(kept[:1], r.attributes, "g")
        assert gathered.rows == expected.rows

    def test_ops_compose_on_resident_shards(self, proc, r, s):
        [kept] = proc.map_shards(
            "identity", [(r,)], keep=True,
            out_attributes=r.attributes, out_name=r.name,
        )
        [filtered] = proc.map_shards(
            "semijoin_pair", [(kept, s)], keep=True,
            out_attributes=r.attributes, out_name=r.name,
        )
        assert len(filtered) == len(r.semijoin(s))
        [projected] = proc.map_shards("project", [(filtered, ("a",), None)])
        assert projected.rows == r.semijoin(s).project(["a"]).rows

    def test_scatter_ships_once(self, proc, r, s):
        keys = s.key_set(("b",))
        ref1 = proc.scatter(keys)
        ref2 = proc.scatter(keys)
        assert ref1.token == ref2.token  # same object, same token
        proc.map_shards("semijoin_keys", [(r, ("b",), ref1)] * 4)
        assert ref1.token in proc._sent
        sent_before = set(proc._sent)
        proc.map_shards("semijoin_keys", [(r, ("b",), proc.scatter(keys))] * 4)
        assert proc._sent == sent_before  # nothing re-shipped

    def test_evicted_then_shipped_scatter_is_re_registered(self, r, s):
        """Regression: a scatter handle evicted from the LRU *before* its
        first dispatch must be re-registered when it finally ships —
        otherwise the payload would sit in every worker store with no
        eviction path left to ever release it."""
        backend = ProcessBackend(workers=1, scatter_cache=8)
        try:
            keys = s.key_set(("b",))
            ref = backend.scatter(keys)
            # flood the LRU (limit 8) so `ref`'s registration is evicted
            # while it has not been broadcast yet
            for i in range(12):
                backend.scatter(frozenset({i}))
            registered = {t for _, t in backend._scattered.values()}
            assert ref.token not in registered
            # dispatch with the stale handle: it must ship AND re-register
            [out] = backend.map_shards(
                "semijoin_keys", [(r, ("b",), ref)] * 1, keep=True,
                out_attributes=r.attributes, out_name=r.name,
            )
            assert len(out) == len(r.semijoin(s))
            assert ref.token in backend._sent
            registered = {t for _, t in backend._scattered.values()}
            assert ref.token in registered  # eviction can release it now
        finally:
            backend.close()

    def test_worker_death_tears_the_pool_down(self, r, s):
        """Regression: losing a worker must reap every process and close
        the queues (no zombies / leaked feeder threads), mark the backend
        closed, and surface a typed error."""
        backend = ProcessBackend(workers=2)
        procs = list(backend._procs)
        procs[0].kill()
        with pytest.raises(ProcessBackendError, match="died"):
            backend.map_shards("semijoin_pair", [(r, s)] * 4)
        assert backend.closed
        for p in procs:
            p.join(timeout=2.0)
            assert not p.is_alive()
            assert p.exitcode is not None  # reaped, not a zombie
        backend.close()  # still a safe no-op

    def test_worker_error_propagates_with_traceback(self, proc, r):
        bad = Relation.from_rows(("a", "b"), [(1, 2)], "bad")
        with pytest.raises(ProcessBackendError) as err:
            proc.map_shards(
                "project", [(bad, ("nope",), None), (bad, ("nope",), None)]
            )
        assert "nope" in str(err.value)
        # the backend survives a failed op
        [out] = proc.map_shards("project", [(r, ("a",), None)] * 1)
        assert out.rows == r.project(["a"]).rows

    def test_every_carrier_crosses_on_its_own_reduce(self, proc, r):
        """Shipped arguments and shipped results both ride the generic
        value path; with numpy the last one carries a weight column."""
        weights = {row: row[0] + 1 for row in r.rows}
        annotated = AnnotatedRelation.lift(r, COUNTING, weights)
        for rel in (
            r, annotated, to_columnar(r), lift_columnar(annotated, COUNTING)
        ):
            outs = proc.map_shards("identity", [(rel,), (rel,)])
            for out in outs:
                _same(out, rel)
                assert out == rel and out is not rel

    def test_key_set_op_ships_keys_not_rows(self, proc, r):
        [keys] = proc.map_shards("key_set", [(r, ("b",))] * 1)
        assert keys == r.key_set(("b",))


class TestProcessBackendLifecycle:
    def test_worker_faults_are_typed_library_errors(self):
        """ProcessBackendError must ride the ReproError hierarchy so
        execute_many's per-request fault isolation and the CLI's typed
        error handling see it (a raw RuntimeError would abort batches)."""
        from repro._errors import EvaluationError, ReproError

        assert issubclass(ProcessBackendError, EvaluationError)
        assert issubclass(ProcessBackendError, ReproError)
        assert issubclass(ProcessBackendError, RuntimeError)

    def test_engine_recreates_a_closed_backend(self):
        """A process pool that tore itself down (worker death closes it)
        must not brick the engine: the next request gets a fresh pool."""
        from repro.engine import Engine

        engine = Engine(backend="process", backend_workers=2)
        try:
            first = engine._execution_context()
            first.close()  # what worker-death teardown does internally
            second = engine._execution_context()
            assert second is not first
            assert not second.closed
        finally:
            engine.close()

    def test_close_is_idempotent_and_kills_workers(self, r, s):
        backend = ProcessBackend(workers=2)
        [out] = backend.map_shards("semijoin_pair", [(r, s)])
        assert out.rows == r.semijoin(s).rows
        procs = list(backend._procs)
        assert all(p.is_alive() for p in procs)
        backend.close()
        backend.close()  # second close must be a no-op, not an error
        assert all(not p.is_alive() for p in procs), "orphan workers"

    def test_closed_backend_rejects_work(self, r, s):
        backend = ProcessBackend(workers=1)
        backend.close()
        with pytest.raises(RuntimeError):
            backend.map_shards("semijoin_pair", [(r, s)])
        with pytest.raises(RuntimeError):
            backend.scatter(s)

    def test_context_manager_closes(self, r, s):
        with ProcessBackend(workers=1) as backend:
            procs = list(backend._procs)
            backend.map_shards("semijoin_pair", [(r, s)])
        assert all(not p.is_alive() for p in procs)

    def test_dead_remote_shards_release_worker_store(self, r):
        backend = ProcessBackend(workers=1)
        try:
            [kept] = backend.map_shards(
                "identity", [(r,)], keep=True,
                out_attributes=r.attributes, out_name=r.name,
            )
            token = kept.token
            del kept
            import gc

            gc.collect()
            # the finalizer queued the release ...
            assert (0, token) in list(backend._dead)
            # ... and the next dispatch flushes it ahead of its own
            # tasks (FIFO per worker queue), draining the queue
            backend.map_shards("identity", [(r,)])
            assert not backend._dead
        finally:
            backend.close()


class TestShardedRelationOnProcessBackend:
    """End-to-end: ShardedRelation operations over worker-resident
    shards agree with the plain sequential operations."""

    def test_scatter_semijoin_join_project_gather(self, proc, r, s):
        sh = ShardedRelation.shard(r, "b", 4, backend=proc)
        assert all(isinstance(p, RemoteShard) for p in sh.shards)
        assert len(sh) == len(r)
        assert sh.to_relation().rows == r.rows

        assert sh.semijoin(s).to_relation().rows == r.semijoin(s).rows
        joined = sh.join(s)
        assert joined.to_relation().rows == r.join(s).rows
        assert joined.attributes == r.join(s).attributes
        assert sh.project(["b"]).to_relation().rows == r.project(["b"]).rows
        assert sh.project(["a"]).rows == r.project(["a"]).rows

    def test_aligned_pairwise_stays_resident(self, proc, r):
        partner = Relation.from_rows(
            ("b", "c"), [(i % 7, i) for i in range(20)], "p"
        )
        left = ShardedRelation.shard(r, "b", 4, backend=proc)
        right = ShardedRelation.shard(partner, "b", 4, backend=proc)
        out = left.semijoin(right)
        assert all(isinstance(p, RemoteShard) for p in out.shards)
        assert out.to_relation().rows == r.semijoin(partner).rows

    def test_key_set_computed_worker_side(self, proc, r):
        sh = ShardedRelation.shard(r, "b", 4, backend=proc)
        assert sh.key_set(("a",)) == r.key_set(("a",))
