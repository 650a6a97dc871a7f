"""Unit tests for :class:`repro.db.sharded.ShardedRelation`."""

import os
import subprocess
import sys

import pytest

from repro._errors import SchemaError
from repro.db.backend import ThreadBackend
from repro.db.relation import Relation
from repro.db.sharded import ShardedRelation, shard_of, stable_hash


@pytest.fixture
def r():
    return Relation.from_rows(
        ("a", "b"), [(i, i % 5) for i in range(40)], "r"
    )


@pytest.fixture
def s():
    return Relation.from_rows(("b", "c"), [(i, i * 10) for i in range(3)], "s")


class TestSharding:
    def test_partition_is_disjoint_and_complete(self, r):
        sh = ShardedRelation.shard(r, "a", 4)
        assert sh.n_shards == 4
        assert len(sh) == len(r)
        assert sh.to_relation().rows == r.rows
        seen = set()
        for shard in sh.shards:
            assert not (shard.rows & seen)
            seen |= shard.rows

    def test_rows_land_on_their_hash_shard(self, r):
        sh = ShardedRelation.shard(r, "a", 3)
        for i, shard in enumerate(sh.shards):
            for row in shard.rows:
                assert shard_of(row[0], 3) == i

    def test_single_shard_reuses_the_relation(self, r):
        sh = ShardedRelation.shard(r, "a", 1)
        assert sh.shards[0] is r

    def test_key_must_be_in_schema(self, r):
        with pytest.raises(SchemaError):
            ShardedRelation.shard(r, "zzz", 2)

    def test_at_least_one_shard(self, r):
        with pytest.raises(SchemaError):
            ShardedRelation.shard(r, "a", 0)


class TestOperations:
    def test_semijoin_pairwise_when_aligned(self, r, s):
        left = ShardedRelation.shard(r, "b", 4)
        right = ShardedRelation.shard(
            Relation.from_rows(("b", "c"), [(1, 5), (2, 6)], "s"), "b", 4
        )
        out = left.semijoin(right)
        assert out.to_relation().rows == r.semijoin(right.to_relation()).rows
        assert out.key == "b" and out.n_shards == 4

    def test_semijoin_broadcast_when_key_not_shared(self, r):
        sh = ShardedRelation.shard(r, "a", 3)
        other = Relation.from_rows(("b",), [(0,), (1,)])
        assert (
            sh.semijoin(other).to_relation().rows == r.semijoin(other).rows
        )

    def test_semijoin_empty_other_is_empty(self, r):
        sh = ShardedRelation.shard(r, "a", 3)
        assert not sh.semijoin(Relation.empty(("b",)))

    def test_semijoin_unfiltered_keeps_identity(self, r):
        sh = ShardedRelation.shard(r, "b", 3)
        full = Relation.from_rows(("b",), [(i,) for i in range(5)])
        assert sh.semijoin(full) is sh

    def test_join_result_stays_sharded_on_key(self, r, s):
        out = ShardedRelation.shard(r, "b", 4).join(s)
        for i, shard in enumerate(out.shards):
            b = shard._position("b")
            for row in shard.rows:
                assert shard_of(row[b], 4) == i

    def test_project_keeping_key_stays_sharded(self, r):
        sh = ShardedRelation.shard(r, "b", 4)
        out = sh.project(["b"])
        assert isinstance(out, ShardedRelation)
        assert out.to_relation().rows == r.project(["b"]).rows

    def test_project_dropping_key_coalesces(self, r):
        sh = ShardedRelation.shard(r, "b", 4)
        out = sh.project(["a"])
        assert isinstance(out, Relation)
        assert out.rows == r.project(["a"]).rows

    def test_operations_run_on_the_backend_the_relation_was_cut_with(
        self, r, s
    ):
        backend = ThreadBackend(workers=4)
        try:
            sh = ShardedRelation.shard(r, "b", 4, backend=backend)
            assert sh.context is backend
            reduced = sh.semijoin(s)
            joined = sh.join(s)
            # ... and so does everything derived from it
            assert reduced.context is backend and joined.context is backend
            assert joined.project(["b", "c"]).context is backend
            assert reduced.to_relation().rows == r.semijoin(s).rows
            assert joined.to_relation().rows == r.join(s).rows
        finally:
            backend.close()


class TestStableHash:
    """Row placement must agree across processes: the builtin ``hash``
    randomises strings per process (PYTHONHASHSEED), which would silently
    break partition-wise joins under the process backend."""

    def test_agrees_wherever_equality_does(self):
        # CPython guarantees hash(1) == hash(1.0) == hash(True); the
        # stable hash must preserve that, or equal join keys of mixed
        # numeric types would land in different shards.
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)
        assert stable_hash(0) == stable_hash(0.0) == stable_hash(False)
        for n in (3, 5, 7):
            assert shard_of(2, n) == shard_of(2.0, n)

    def test_tuple_hash_is_elementwise(self):
        assert stable_hash(("x", 1)) == stable_hash(("x", 1))
        assert stable_hash(("x", 1)) != stable_hash(("x", 2))

    def test_string_shard_survives_hash_randomisation(self):
        """A child interpreter with a different PYTHONHASHSEED must place
        string keys in the same shards as this process."""
        values = ["alice", "bob", "carol", "däve", "", "0", "αβγ"]
        code = (
            "from repro.db.sharded import shard_of\n"
            f"print([shard_of(v, 7) for v in {values!r}])\n"
        )
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (
                    str(
                        __import__("pathlib").Path(__file__).parents[2]
                        / "src"
                    ),
                    env.get("PYTHONPATH", ""),
                ) if p
            )
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert out.returncode == 0, out.stderr
            assert eval(out.stdout) == [shard_of(v, 7) for v in values]


class TestSkewGuard:
    """Heavy-hitter detection and round-robin spreading: a 90 %-skewed
    key must not pile onto one shard, and the broadcast fix-up must keep
    every operation equivalent to the sequential oracle."""

    @pytest.fixture
    def skewed(self):
        # 90% of rows share join-key value 1; the rest are distinct.
        rows = [(1, j) for j in range(900)]
        rows += [(100 + j, j) for j in range(100)]
        return Relation.from_rows(("k", "v"), rows, "skewed")

    def test_heavy_hitter_detected_and_spread(self, skewed):
        sh = ShardedRelation.shard(skewed, "k", 4)
        assert sh.heavy == frozenset({1})
        sizes = [len(s) for s in sh.shards]
        assert sum(sizes) == 1000
        # without the guard one shard would hold >= 900 rows; spread
        # round-robin, no shard may exceed ~2x the 250-row average
        assert max(sizes) <= 500
        assert min(sizes) >= 100

    def test_unskewed_relations_have_no_heavy_hitters(self):
        r = Relation.from_rows(
            ("k", "v"), [(i, i) for i in range(1000)], "uniform"
        )
        assert ShardedRelation.shard(r, "k", 4).heavy == frozenset()

    def test_spread_disables_partition_wise_alignment(self, skewed):
        partner = Relation.from_rows(
            ("k", "w"), [(1, 0), (2, 0), (150, 0)], "p"
        )
        left = ShardedRelation.shard(skewed, "k", 4)
        right = ShardedRelation.shard(partner, "k", 4)
        assert not left._aligned_with(right, ("k",))
        # ... and the broadcast fall-back stays correct
        assert (
            left.semijoin(right).to_relation().rows
            == skewed.semijoin(partner).rows
        )

    def test_skewed_join_matches_sequential(self, skewed):
        partner = Relation.from_rows(
            ("k", "w"), [(1, 10), (1, 11), (105, 12)], "p"
        )
        sh = ShardedRelation.shard(skewed, "k", 4)
        out = sh.join(partner)
        assert out.to_relation().rows == skewed.join(partner).rows

    def test_skewed_projection_dedups_across_shards(self, skewed):
        # Spread rows with equal projected values may straddle shards,
        # so a key-preserving projection must coalesce (and dedup).
        sh = ShardedRelation.shard(skewed, "k", 4)
        out = sh.project(["k"])
        assert isinstance(out, Relation)
        assert out.rows == skewed.project(["k"]).rows

    def test_skew_factor_tunable(self, skewed):
        # An enormous factor declares nothing heavy.
        sh = ShardedRelation.shard(skewed, "k", 4, skew_factor=1000.0)
        assert sh.heavy == frozenset()
