"""Single-flight decomposition dedup in the shared engine.

The serving tier's "exactly one decomposition" guarantee rests on
:meth:`Engine._decomposition_for` collapsing concurrent cold-cache
misses of one fingerprint into one portfolio search.
"""

from __future__ import annotations

import threading
import time

import repro.engine.executor as executor_module
from repro.core.parser import parse_query
from repro.db.database import Database
from repro.engine import Engine


def _db(n: int = 20) -> Database:
    db = Database()
    for i in range(n):
        db.add_fact("e", i, (i + 1) % n)
    return db


def test_concurrent_isomorphic_misses_decompose_once():
    db = _db()
    engine = Engine()
    # Eight renamed-isomorphic shapes, eight threads, one cold cache.
    queries = [
        parse_query(
            f"ans(X{i}, Z{i}) :- e(X{i}, Y{i}), e(Y{i}, Z{i})",
            name=f"q{i}",
        )
        for i in range(8)
    ]
    barrier = threading.Barrier(len(queries))
    results = []
    lock = threading.Lock()

    def run(query):
        barrier.wait(timeout=10.0)
        result = engine.execute(query, db)
        with lock:
            results.append(result)

    threads = [threading.Thread(target=run, args=(q,)) for q in queries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)

    assert len(results) == 8
    assert engine.decompositions == 1
    # Exactly one leader searched; every follower hit the cache.
    assert sum(1 for r in results if not r.cache_hit) == 1
    # All answers agree (isomorphic queries over the same data).
    rows = {r.answer.rows for r in results}
    assert len(rows) == 1 and rows.pop()


def test_first_set_and_count_requests_decompose_once(monkeypatch):
    """The gate keys on the fingerprint alone, as the cache does: the
    first set and the first count request of one shape, racing through a
    slowed search, run it once."""
    search = executor_module.decompose

    def slow_decompose(*args, **kwargs):
        time.sleep(0.2)
        return search(*args, **kwargs)

    monkeypatch.setattr(executor_module, "decompose", slow_decompose)
    db = _db()
    engine = Engine()
    query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z)")
    barrier = threading.Barrier(2)
    results = {}

    def run(semiring):
        barrier.wait(timeout=10.0)
        results[semiring] = engine.execute(query, db, semiring=semiring)

    threads = [
        threading.Thread(target=run, args=(tag,)) for tag in (None, "count")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert engine.decompositions == 1
    assert sorted(r.cache_hit for r in results.values()) == [False, True]
    assert results["count"].answer.total() == len(db.relation("e").rows)
    assert engine._plan_gates == {}


def test_distinct_shapes_do_not_serialise():
    db = _db()
    engine = Engine()
    path2 = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z)", name="p2")
    path3 = parse_query(
        "ans(W, Z) :- e(W, X), e(X, Y), e(Y, Z)", name="p3"
    )
    barrier = threading.Barrier(2)

    def run(query):
        barrier.wait(timeout=10.0)
        engine.execute(query, db)

    threads = [
        threading.Thread(target=run, args=(q,)) for q in (path2, path3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    # Different fingerprints: both decomposed, neither blocked the other.
    assert engine.decompositions == 2


def test_gate_is_cleaned_up_after_search():
    engine = Engine()
    query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z)")
    engine.execute(query, _db())
    assert engine._plan_gates == {}


def test_disabled_cache_still_terminates():
    """With cache_size=0 nothing is ever stored: followers re-lookup,
    miss, and become leaders themselves — every request decomposes, as
    the uncached baseline always did, with no deadlock."""
    db = _db()
    engine = Engine(cache_size=0)
    queries = [
        parse_query(
            f"ans(A{i}, C{i}) :- e(A{i}, B{i}), e(B{i}, C{i})",
            name=f"u{i}",
        )
        for i in range(4)
    ]
    barrier = threading.Barrier(len(queries))

    def run(query):
        barrier.wait(timeout=10.0)
        engine.execute(query, db)

    threads = [threading.Thread(target=run, args=(q,)) for q in queries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert engine.decompositions == 4
    assert engine._plan_gates == {}
