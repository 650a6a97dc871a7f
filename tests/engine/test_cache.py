"""Plan cache behaviour: transport correctness, LRU accounting, threads."""

import threading

import repro.engine.cache as cache_module
from repro.core.atoms import Variable
from repro.core.query import ConjunctiveQuery
from repro.engine.cache import PlanCache, transport_plan, CachedPlan
from repro.engine.fingerprint import fingerprint
from repro.generators.families import book_query, cycle_query, path_query
from repro.generators.workloads import renamed_variant
from repro.heuristics import decompose
from repro.heuristics.validate import check_decomposition


def _store_shape(cache, query):
    result = decompose(query, mode="heuristic")
    cache.store(query, result.decomposition, result.width, result.method)
    return result


class TestTransport:
    def test_transported_plan_is_valid_for_target(self):
        base = cycle_query(5)
        result = decompose(base, mode="heuristic")
        entry = CachedPlan(base, result.decomposition, result.width, result.method)
        target = renamed_variant(base, seed=42)
        transported = transport_plan(entry, target)
        assert transported is not None
        assert transported.query is target
        assert check_decomposition(transported) == []
        assert transported.width <= result.width

    def test_transport_rejects_non_isomorphic(self):
        base = cycle_query(5)
        result = decompose(base, mode="heuristic")
        entry = CachedPlan(base, result.decomposition, result.width, result.method)
        assert transport_plan(entry, cycle_query(6)) is None


class TestIdentityHits:
    """A request for the stored query itself is handed the stored tree:
    no isomorphism search, no transport, no re-check."""

    def test_the_stored_tree_comes_back_under_the_requests_query(
        self, monkeypatch
    ):
        def searched(*args):
            raise AssertionError("an identity hit searched for an isomorphism")

        cache = PlanCache(maxsize=8)
        base = book_query(2)
        stored = _store_shape(cache, base).decomposition
        monkeypatch.setattr(cache_module, "shape_isomorphism", searched)
        monkeypatch.setattr(cache_module, "check_decomposition", searched)
        for request in (
            base,
            book_query(2),  # equal atoms, another object
            base.with_head(tuple(sorted(base.variables)[:2])),
        ):
            hit = cache.lookup(request)
            assert hit.decomposition.root is stored.root
            assert hit.decomposition.query is request
            assert hit.width == stored.width
        assert cache.hits == 3 and cache.misses == 0

    def test_a_sibling_tag_is_promoted_without_a_transport(self, monkeypatch):
        cache = PlanCache(maxsize=8)
        base = cycle_query(5)
        stored = _store_shape(cache, base).decomposition
        monkeypatch.setattr(
            cache_module, "check_decomposition",
            lambda hd: ["an identity hit was re-checked"],
        )
        hit = cache.lookup(base, "count")
        assert hit is not None and cache.promotions == 1
        assert hit.decomposition.root is stored.root

    def test_a_reordered_body_is_still_transported(self):
        cache = PlanCache(maxsize=8)
        base = cycle_query(4)
        stored = _store_shape(cache, base).decomposition
        shuffled = ConjunctiveQuery(base.atoms[::-1], (), "shuffled")
        hit = cache.lookup(shuffled)
        assert hit is not None
        assert hit.decomposition.root is not stored.root
        assert check_decomposition(hit.decomposition) == []


class TestLookupStore:
    def test_hit_after_store(self):
        cache = PlanCache(maxsize=8)
        base = cycle_query(4)
        _store_shape(cache, base)
        hit = cache.lookup(renamed_variant(base, seed=7))
        assert hit is not None
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_unknown_shape(self):
        cache = PlanCache(maxsize=8)
        _store_shape(cache, cycle_query(4))
        assert cache.lookup(path_query(4)) is None
        assert cache.misses == 1

    def test_zero_size_disables(self):
        cache = PlanCache(maxsize=0)
        base = cycle_query(4)
        _store_shape(cache, base)
        assert len(cache) == 0
        assert cache.lookup(base) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_lru_eviction_counts(self):
        cache = PlanCache(maxsize=2)
        shapes = [cycle_query(4), path_query(3), book_query(2)]
        for q in shapes:
            _store_shape(cache, q)
        assert len(cache) == 2
        assert cache.evictions == 1
        # the oldest shape (cycle_4) was evicted, the newer two survive
        assert cache.lookup(cycle_query(4)) is None
        assert cache.lookup(book_query(2)) is not None

    def test_lookup_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        _store_shape(cache, cycle_query(4))
        _store_shape(cache, path_query(3))
        assert cache.lookup(cycle_query(4)) is not None  # refresh cycle_4
        _store_shape(cache, book_query(2))  # evicts path_3, not cycle_4
        assert cache.lookup(cycle_query(4)) is not None
        assert cache.lookup(path_query(3)) is None

    def test_info_snapshot(self):
        cache = PlanCache(maxsize=4)
        base = cycle_query(4)
        _store_shape(cache, base)
        cache.lookup(base)
        cache.lookup(path_query(5))
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5
        assert info["size"] == 1


class TestThreadSafety:
    def test_concurrent_lookup_store(self):
        """Hammer one cache from many threads; counters stay consistent
        and no exception escapes."""
        cache = PlanCache(maxsize=16)
        shapes = [cycle_query(4), path_query(3), book_query(2)]
        plans = [decompose(q, mode="heuristic") for q in shapes]
        errors = []

        def worker(tid):
            try:
                for i in range(25):
                    shape = shapes[(tid + i) % len(shapes)]
                    plan = plans[(tid + i) % len(shapes)]
                    if i % 5 == 0:
                        cache.store(
                            shape, plan.decomposition, plan.width, plan.method
                        )
                    cache.lookup(renamed_variant(shape, seed=tid * 100 + i))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = cache.info()
        assert info["hits"] + info["misses"] == 6 * 25


class TestFingerprintBuckets:
    def test_distinct_shapes_share_no_bucket_entry(self):
        cache = PlanCache(maxsize=8)
        a, b = cycle_query(4), cycle_query(6)
        assert fingerprint(a) != fingerprint(b)
        _store_shape(cache, a)
        _store_shape(cache, b)
        assert len(cache) == 2
        hit = cache.lookup(renamed_variant(b, seed=3))
        assert hit is not None and hit.width >= 1

    def test_collision_bucket_falls_through(self):
        """Force a synthetic collision: two non-isomorphic entries under
        one bucket; the certified isomorphism rejects the wrong one."""
        cache = PlanCache(maxsize=8)
        c6 = cycle_query(6)
        result = decompose(c6, mode="heuristic")
        # manually insert under the OTHER shape's fingerprint
        from repro.core.query import ConjunctiveQuery
        from repro.core.atoms import Atom

        two_triangles = ConjunctiveQuery(
            tuple(
                Atom("e", (Variable(a), Variable(b)))
                for a, b in [("A", "B"), ("B", "C"), ("C", "A"),
                             ("D", "E"), ("E", "F"), ("F", "D")]
            ),
            (),
        )
        assert fingerprint(c6) == fingerprint(two_triangles)  # 1-WL blind spot
        cache.store(c6, result.decomposition, result.width, result.method)
        # lookup for the non-isomorphic twin must fall through to a miss
        assert cache.lookup(two_triangles) is None
        assert cache.misses == 1

    def test_duplicate_store_of_isomorphic_shape_dedups(self):
        """Two racing misses of one shape may both call store; the bucket
        keeps a single plan."""
        cache = PlanCache(maxsize=8)
        base = cycle_query(4)
        _store_shape(cache, base)
        _store_shape(cache, renamed_variant(base, seed=9))
        assert len(cache) == 1

    def test_colliding_bucket_never_self_evicts(self):
        """A fingerprint bucket larger than maxsize must not evict the
        entry it just inserted (it may exceed maxsize instead)."""
        from repro.core.atoms import Atom
        from repro.core.query import ConjunctiveQuery

        two_triangles = ConjunctiveQuery(
            tuple(
                Atom("e", (Variable(a), Variable(b)))
                for a, b in [("A", "B"), ("B", "C"), ("C", "A"),
                             ("D", "E"), ("E", "F"), ("F", "D")]
            ),
            (),
        )
        cache = PlanCache(maxsize=1)
        c6 = cycle_query(6)
        assert fingerprint(c6) == fingerprint(two_triangles)
        _store_shape(cache, c6)
        _store_shape(cache, two_triangles)
        assert len(cache) == 2  # collision bucket allowed to overflow
        assert cache.evictions == 0
        assert cache.lookup(c6) is not None
        assert cache.lookup(two_triangles) is not None
