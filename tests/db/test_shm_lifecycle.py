"""Shared-memory segment lifecycle under the process backend.

The invariant: every segment this process creates is unlinked by the
time the owning context closes — ``live_segment_names()`` drains to
empty after ``ProcessBackend.close()`` and after an ``Engine`` tears
its backends down, worker death included, and no
``resource_tracker`` warnings are emitted along the way.
"""

import pytest

from repro.db import COUNTING, ProcessBackend, Relation, to_columnar
from repro.db import backend as backend_mod
from repro.db import columnar as columnar_mod
from repro.db.columnar import ColumnarRelation, weighted_view
from repro.db.backend import ProcessBackendError
from repro.db.sharded import ShardedRelation
from repro.db.shm import (
    attach_columnar,
    copy_from_shm,
    export_columnar,
    live_segment_names,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this platform"
)


@pytest.fixture(autouse=True)
def tiny_shm_threshold():
    """Columnar relations of any size take the shm scatter path."""
    saved = backend_mod.SHM_MIN_ROWS
    backend_mod.SHM_MIN_ROWS = 1
    yield
    backend_mod.SHM_MIN_ROWS = saved


def columnar(n=64, name="r"):
    return to_columnar(
        Relation.from_rows(
            ("a", "b"), [(i, f"v{i % 7}") for i in range(n)], name
        )
    )


needs_numpy = pytest.mark.skipif(
    columnar_mod._np is None, reason="weight columns need numpy"
)


class TestSegmentPrimitives:
    # ``attached.rows`` is a view over the mapped buffers: dropping the
    # relation must release them before the segment handle closes.
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_export_attach_round_trip(self):
        rel = columnar()
        descriptor, segment = export_columnar(rel)
        try:
            assert segment.name in live_segment_names()
            attached = attach_columnar(descriptor)
            assert isinstance(attached, ColumnarRelation)
            assert attached.rows == rel.rows
            # A worker result that must outlive the segment deep-copies.
            copied = copy_from_shm(attached)
            del attached
            assert copied.rows == rel.rows
        finally:
            segment.release()
        assert segment.name not in live_segment_names()

    @needs_numpy
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    def test_weight_column_rides_the_segment(self):
        plain = columnar()
        rel = weighted_view(plain, COUNTING, {row: 3 for row in plain})
        descriptor, segment = export_columnar(rel)
        try:
            assert segment.size >= 3 * 64 * 8  # two columns and the weights
            attached = attach_columnar(descriptor)
            assert attached.semiring is COUNTING and attached.bound == 3
            assert attached.annotations == rel.annotations
            assert attached.total() == 3 * 64
            copied = copy_from_shm(attached)
            del attached
            assert copied.annotations == rel.annotations
        finally:
            segment.release()
        assert segment.name not in live_segment_names()

    def test_release_is_idempotent(self):
        _, segment = export_columnar(columnar())
        segment.release()
        segment.release()
        assert segment.name not in live_segment_names()

    def test_finalizer_backstop_unlinks_on_gc(self):
        import gc

        _, segment = export_columnar(columnar())
        name = segment.name
        del segment
        gc.collect()
        assert name not in live_segment_names()


class TestBackendLifecycle:
    def test_no_segments_after_close(self):
        rel = columnar(128)
        partner = columnar(128, "s")
        backend = ProcessBackend(workers=2)
        try:
            sharded = ShardedRelation.shard(rel, "a", 4, backend=backend)
            out = sharded.semijoin(partner)
            assert out.to_relation().rows == rel.semijoin(partner).rows
        finally:
            backend.close()
        assert live_segment_names() == frozenset()

    def test_no_segments_after_engine_close(self):
        import random

        from repro.core.parser import parse_query
        from repro.db import Database
        from repro.engine import Engine

        rng = random.Random(3)
        db = Database()
        for _ in range(3000):
            db.add_fact("e", rng.randrange(300), rng.randrange(300))
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z).")
        with Engine(
            backend="process", backend_workers=2, layout="columnar",
            shard_threshold=0,
        ) as engine:
            engine.execute(query, db)
        assert live_segment_names() == frozenset()

    @needs_numpy
    def test_no_segments_after_weighted_engine_traffic(self):
        """A count request on the process backend exports bags with
        their weight columns; all of it is unlinked at close."""
        import random

        from repro.core.parser import parse_query
        from repro.db import Database
        from repro.engine import Engine
        from repro.obs import get_registry

        rng = random.Random(5)
        db = Database()
        for _ in range(600):
            db.add_fact("e", rng.randrange(60), rng.randrange(60))
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z).")
        expected = Engine(layout="row").execute(query, db, semiring="count")
        exported = get_registry().counter("backend.shm_segments")
        before = exported.value
        with Engine(
            backend="process", backend_workers=2, layout="columnar",
            shard_threshold=0,
        ) as engine:
            got = engine.execute(query, db, semiring="count")
            assert isinstance(got.answer, ColumnarRelation)
            assert got.annotations == expected.annotations
        assert exported.value > before
        assert live_segment_names() == frozenset()

    def test_no_segments_after_worker_death(self):
        rel = columnar(128)
        partner = columnar(128, "s")
        backend = ProcessBackend(workers=2)
        try:
            sharded = ShardedRelation.shard(rel, "a", 4, backend=backend)
            sharded.semijoin(partner)  # populate the broadcast cache
            list(backend._procs)[0].kill()
            with pytest.raises(ProcessBackendError):
                backend.map_shards(
                    "semijoin_pair", [(rel, partner)] * 4
                )
        finally:
            backend.close()
        assert live_segment_names() == frozenset()

    def test_broadcast_segment_retired_not_leaked(self):
        """The broadcast LRU holds a segment while the backend is open,
        and releases it (exactly once) at close."""
        rel = columnar(256)
        partner = columnar(256, "s")
        backend = ProcessBackend(workers=2)
        try:
            sharded = ShardedRelation.shard(rel, "a", 4, backend=backend)
            sharded.semijoin(partner)
            assert backend.prefers_relation_scatter(partner)
            assert live_segment_names()  # broadcast blob resident
        finally:
            backend.close()
        assert live_segment_names() == frozenset()
