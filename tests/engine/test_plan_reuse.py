"""Plan reuse: a warm request replays the plan compiled for it until the
data it was priced on changes.

The physical plan is a pure function of (query, decomposition, method,
layout policy, database contents).  The engine memoises it on the plan
cache entry per database and stamps it with ``Database.version``; an
effective write bumps the version and forces a compile, a no-op write
or a weight change does not.  A replayed plan must be the plan a fresh
compile would produce — same digest, same rendering — and answers must
not notice the difference.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import repro.engine.cache as cache_module
from repro._errors import BudgetExceeded
from repro.core.parser import parse_query
from repro.db.annotated import naive_annotated_eval
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.semiring import resolve_semiring
from repro.engine import Engine
from repro.engine.plan import compile_plan
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import random_database, renamed_variant
from repro.obs import Tracer, get_registry, metrics_snapshot, tracing
from repro.obs.export import render_metrics

# The shapes and data of the e2e benchmark, from its own generators.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
from e2ebench.workloads import (  # noqa: E402
    FULL,
    AcyclicLarge,
    CyclicBags,
    ServeSmall,
    load,
)


def _counts() -> tuple[float, float]:
    registry = get_registry()
    return (
        registry.counter("plan.compiled").value,
        registry.counter("plan.reused").value,
    )


def _moved(before: tuple[float, float]) -> tuple[float, float]:
    """(compiles, replays) since *before*."""
    compiled, reused = _counts()
    return compiled - before[0], reused - before[1]


def _fresh(engine, query, db, semiring=None):
    """What compiling from scratch gives for the request's decomposition."""
    hit = engine.cache.lookup(
        query, semiring.tag if semiring is not None else "set"
    )
    return compile_plan(
        query, db, hit.decomposition, provenance=hit.method, cache_hit=True,
        layout=engine.layout, semiring=semiring,
    )


def _e2e_requests():
    """(label, query, db, semiring) for every cyclic_bags, acyclic_large
    and serve_small shape — serve_small's renamed variants included."""
    cyclic = CyclicBags(3, FULL["cyclic_bags"])
    acyclic = AcyclicLarge(3, FULL["acyclic_large"])
    serve = ServeSmall(3, FULL["serve_small"])
    out = []
    for workload in (cyclic, acyclic):
        db = load(workload.relations)[0]
        for name, query in workload.shapes.items():
            out.append((f"{workload.name}/{name}", query, db, None))
    count = resolve_semiring("count")
    for name, query in acyclic.shapes.items():
        out.append((f"semiring_count/{name}", query, out[-1][2], count))
    db = load(serve.relations)[0]
    for name, query in serve.shapes.items():
        out.append((f"serve_small/{name}", query, db, None))
    for op in serve.requests[0][:6]:
        out.append((f"serve_small/{op.key}~", parse_query(op.payload), db, None))
    return out


class TestAReplayedPlanIsTheCompiledOne:
    def test_digest_and_rendering_equal_a_fresh_compile(self):
        requests = _e2e_requests()
        with Engine(layout="auto") as engine:
            for label, query, db, semiring in requests:
                first = engine.execute(query, db, semiring=semiring)
                before = _counts()
                again = engine.execute(query, db, semiring=semiring)
                assert _moved(before) == (0, 1), label
                assert again.answer.rows == first.answer.rows, label
                plan = engine.plan(query, db, semiring=semiring)
                assert plan.reused_version == db.version, label
                fresh = _fresh(engine, query, db, semiring)
                assert plan.digest() == fresh.digest(), label
                rendered = plan.render().splitlines()
                assert rendered.pop(1) == (
                    f"plan reused (database version {db.version})"
                ), label
                assert rendered == fresh.render().splitlines(), label

    def test_a_fresh_engine_explains_a_compiled_plan(self):
        query = cycle_query(5)
        db = random_database(query, 75, 150, seed=1)
        with Engine() as engine:
            text = engine.explain(query, db)
            assert "plan reused" not in text
            assert text == _fresh(engine, query, db).render().replace(
                ", cached", "", 1
            )
            engine.execute(query, db)
            assert (
                f"plan reused (database version {db.version})"
                in engine.explain(query, db).splitlines()[1]
            )
            analyzed = engine.explain(query, db, analyze=True)
            assert "plan reused" in analyzed and "grew +" in analyzed


class TestWhatInvalidates:
    def test_an_effective_write_recompiles_and_a_noop_reassert_does_not(self):
        query = path_query(3)
        db = random_database(query, 20, 40, seed=2)
        row = next(iter(db.rows("e")))
        with Engine() as engine:
            before = _counts()
            engine.execute(query, db)
            engine.execute(query, db)
            assert _moved(before) == (1, 1)
            assert not db.add_fact("e", *row)  # re-assert: no-op
            assert not db.remove_fact("e", -1, -1)  # absent: no-op
            before = _counts()
            engine.execute(query, db)
            assert _moved(before) == (0, 1)
            assert db.add_fact("e", -1, -2)
            before = _counts()
            result = engine.execute(query, db)
            assert _moved(before) == (1, 0)
            assert result.answer.rows == naive_join_eval(query, db).rows
            assert engine.plan(query, db).reused_version == db.version

    def test_declaring_a_predicate_recompiles(self):
        """An atom over an unknown predicate estimates to one row, over a
        declared empty one to none: the plan priced before the
        declaration is not replayed after it."""
        query = parse_query("ans(X) :- e(X, Y), f(Y, Z).")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})
        with Engine() as engine:
            unknown = engine.plan(query, db)
            assert "f(Y, Z)[≈1]" in unknown.render()
            db.declare("f", 2)
            before = _counts()
            declared = engine.plan(query, db)
            assert _moved(before) == (1, 0)
            assert "f(Y, Z)[≈0]" in declared.render()
            assert declared.digest() != unknown.digest()
            db.declare("f", 2)
            before = _counts()
            assert not engine.execute(query, db).answer.rows
            assert _moved(before) == (0, 1)

    def test_weights_replay_the_plan_and_answers_follow_them(self):
        query = cycle_query(4).with_head(
            tuple(sorted(cycle_query(4).variables, key=lambda v: v.name)[:2])
        )
        db = random_database(
            query, 10, 30, seed=5, plant_answer=True, weights="cost"
        )
        count, mincost = resolve_semiring("count"), resolve_semiring("mincost")
        with Engine() as engine:
            engine.count(query, db)
            engine.top_k(query, db)
            for predicate in sorted(query.predicates):
                for i, row in enumerate(sorted(db.rows(predicate))):
                    db.set_weight(predicate, row, 1.0 + (7 * i) % 5)
            version = db.version
            before = _counts()
            counted = engine.execute(query, db, semiring="count")
            cheapest = engine.execute(query, db, semiring="mincost")
            assert _moved(before) == (0, 2)
            assert db.version == version
            assert dict(counted.annotations) == dict(
                naive_annotated_eval(query, db, count).annotations
            )
            expected = naive_annotated_eval(query, db, mincost).annotations
            assert {
                row: value[0] for row, value in cheapest.annotations.items()
            } == pytest.approx({row: value[0] for row, value in expected.items()})

    def test_two_databases_at_equal_version_never_share_a_plan(self):
        query = parse_query("ans(A, C) :- r1(A, B), r2(B, C).")
        big, small = [(i, i % 3) for i in range(9)], [(0, 1)]
        one = Database.from_relations({"r1": big, "r2": small})
        two = Database.from_relations({"r1": small, "r2": big})
        assert one.version == two.version
        with Engine() as engine:
            for db in (one, two, one, two):
                result = engine.execute(query, db)
                assert result.answer.rows == naive_join_eval(query, db).rows
            plans = [engine.plan(query, db) for db in (one, two)]
            assert plans[0] is not plans[1]
            assert plans[0].digest() != plans[1].digest()
            for plan, db in zip(plans, (one, two)):
                assert plan.digest() == _fresh(engine, query, db).digest()


class TestWhatTheMemoHolds:
    def test_a_dropped_database_releases_its_plans(self):
        query = cycle_query(4)
        with Engine() as engine:
            db = random_database(query, 10, 20, seed=1)
            engine.execute(query, db)
            entry = engine.cache.lookup(query).entry
            assert len(entry.plans) == 1
            dropped = weakref.ref(db)
            del db
            gc.collect()
            assert dropped() is None
            assert len(entry.plans) == 0

    def test_evicting_the_entry_drops_its_plans(self):
        first, second = cycle_query(4), path_query(3)
        db = random_database(first, 10, 20, seed=1)
        with Engine(cache_size=1) as engine:
            engine.execute(first, db)
            evicted = weakref.ref(engine.cache.lookup(first).entry)
            engine.execute(second, db)
            assert engine.cache.evictions == 1
            gc.collect()
            assert evicted() is None
            before = _counts()
            engine.execute(first, db)
            assert _moved(before) == (1, 0)

    def test_a_disabled_cache_compiles_every_time(self):
        query = cycle_query(4)
        db = random_database(query, 10, 20, seed=1)
        with Engine(cache_size=0) as engine:
            before = _counts()
            for _ in range(3):
                engine.execute(query, db)
            assert _moved(before) == (3, 0)

    def test_explain_without_facts_compiles_every_time(self):
        with Engine() as engine:
            engine.explain(cycle_query(5))
            before = _counts()
            assert "plan reused" not in engine.explain(cycle_query(5))
            assert _moved(before) == (1, 0)

    def test_a_renamed_variant_is_certified_once(self, monkeypatch):
        certified = []
        check = cache_module.check_decomposition

        def spy(hd):
            certified.append(hd.query)
            return check(hd)

        monkeypatch.setattr(cache_module, "check_decomposition", spy)
        base = cycle_query(5)
        variant = renamed_variant(base, seed=7, rename_predicates=False)
        assert variant.atoms != base.atoms
        db = random_database(base, 20, 40, seed=1)
        with Engine() as engine:
            engine.execute(base, db)
            assert certified == []
            for _ in range(5):
                result = engine.execute(variant, db)
                assert result.cache_hit
            assert certified == [variant]
            assert engine.cache.hits == 5 and engine.cache.misses == 1
            assert result.answer.rows == naive_join_eval(variant, db).rows


class TestUnderLoad:
    def test_four_threads_calling_execute_agree_with_naive(self):
        """The serve executor's shape: several threads share one engine,
        each calling ``execute`` on its own share of a mixed workload of
        shapes and renamed variants."""
        shapes = [cycle_query(4), cycle_query(5), path_query(3)]
        db = random_database(shapes[1], 12, 30, seed=4, plant_answer=True)
        queries = []
        for i in range(24):
            shape = shapes[i % 3]
            queries.append(
                renamed_variant(shape, seed=i % 4, rename_predicates=False)
                if i % 2 else shape
            )
        answers: list = []
        errors: list = []
        with Engine() as engine:

            def work(share):
                try:
                    for _ in range(2):
                        for query in share:
                            rows = engine.execute(query, db).answer.rows
                            answers.append((query, rows))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=work, args=(queries[i::4],))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert not errors
        assert len(answers) == 2 * len(queries)
        for query, rows in answers:
            assert rows == naive_join_eval(query, db).rows, query

    def test_concurrent_readers_between_writes_stay_correct(self):
        """Six readers replay at a tight switch interval while a writer
        bumps the version between rounds: every answer matches the
        database it was read from, every request either compiled or
        replayed, and the memo holds one plan for the one key."""
        query = cycle_query(4)
        db = random_database(query, 10, 30, seed=6, plant_answer=True)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Engine() as engine:
                engine.execute(query, db)
                before = _counts()
                for round_ in range(3):
                    expected = naive_join_eval(query, db).rows

                    def read():
                        try:
                            for _ in range(10):
                                got = engine.execute(query, db).answer.rows
                                assert got == expected
                        except Exception as error:  # pragma: no cover
                            errors.append(error)

                    threads = [threading.Thread(target=read) for _ in range(6)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                        assert not thread.is_alive()
                    db.add_fact("e", 100 + round_, 101 + round_)
                assert sum(_moved(before)) == 3 * 6 * 10
                entry = engine.cache.lookup(query).entry
                assert len(entry.plans[db]) == 1
        finally:
            sys.setswitchinterval(interval)
        assert not errors

    def test_a_budget_still_raises_on_the_replay_path(self):
        query = cycle_query(5)
        db = random_database(query, 30, 60, seed=2)
        with Engine() as engine:
            engine.execute(query, db)
            before = _counts()
            with pytest.raises(BudgetExceeded):
                engine.execute(query, db, budget=0.0)
            assert _moved(before) == (0, 1)
            batch = engine.execute_many([query], db=db, budget=0.0)
            assert batch.failures == 1 and batch.results[0].method == "budget"


class TestWhatAReplaySays:
    def test_the_compile_span_is_opened_either_way(self):
        query = cycle_query(5)
        db = random_database(query, 30, 60, seed=2)
        tracer = Tracer()
        with Engine() as engine, tracing(tracer):
            engine.execute(query, db)
            engine.execute(query, db)
        compiled, replayed = [
            s for s in tracer.spans() if s.name == "plan.compile"
        ]
        assert compiled.attrs["reused"] is False
        assert replayed.attrs["reused"] is True
        # (Only ``auto`` prices a plan: a forced layout carries no
        # predictions, fresh or replayed.)
        assert ("predicted_row_ms" in compiled.attrs) == (
            engine.layout == "auto"
        )
        for key in (
            "nodes", "columnar", "predicted_row_ms", "predicted_columnar_ms",
            "width", "layout",
        ):
            assert replayed.attrs.get(key) == compiled.attrs.get(key), key

    def test_the_registry_and_repro_stats_count_both(self):
        query = path_query(2)
        db = random_database(query, 10, 20, seed=1)
        with Engine() as engine:
            before = _counts()
            for _ in range(3):
                engine.execute(query, db)
            assert _moved(before) == (1, 2)
        rendered = render_metrics(metrics_snapshot())
        assert "plan.compiled = " in rendered
        assert "plan.reused = " in rendered

    def test_a_replayed_plan_keeps_its_digest_object(self):
        """The digest is computed once per plan object: the flight
        recorder's per-request digest of a replayed plan is a read."""
        query = cycle_query(4)
        db = random_database(query, 10, 20, seed=1)
        with Engine() as engine:
            engine.execute(query, db)
            engine.execute(query, db)
            plan = engine.plan(query, db)
            assert plan is engine.plan(query, db)
            assert plan.digest() is plan.digest()
            assert replace(plan, reused_version=None).digest() == plan.digest()
