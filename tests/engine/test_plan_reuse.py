"""Plan reuse: a warm request replays the plan compiled for it while the
statistics it was priced on still hold.

The physical plan is a pure function of (query, decomposition, method,
layout policy, semiring) and of the values its compile read through the
cardinality estimator, which it logs.  The engine memoises one plan per
key on the plan-cache entry and replays it on any database on which
every logged read returns the same value: a write (or a declaration)
that changes one compiles afresh, one that changes none — a no-op, a
weight, a relation the plan never read — replays, and so does another
database with other rows but the same statistics.  A replayed plan must
be the plan a fresh compile would produce — same digest, same rendering
— and answers must not notice the difference.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import repro.engine.cache as cache_module
from repro._errors import BudgetExceeded, EvaluationError
from repro.core.parser import parse_query
from repro.db.annotated import naive_annotated_eval
from repro.db.columnar import kernels
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.semiring import resolve_semiring
from repro.db.stats import read
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
    hit = engine.cache.lookup(query)
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


#: The layout ``auto`` resolves every ``_e2e_requests()`` shape to, per
#: kernel set (``repro.db.columnar.kernels()``).  The cost model prices
#: each enumeration join over the child's marginal
#: (``engine/plan.py::_plan_work``); that moved predictions, and must
#: move no shape's pick.  ``semiring_count`` is decided by
#: ``WEIGHTED_MIN_ROWS`` (row without numpy: no weight column), the rest
#: by predicted milliseconds.
_NUMPY_LAYOUTS = {
    "cyclic_bags/cycle4": "columnar",
    "cyclic_bags/cycle5": "columnar",
    "cyclic_bags/book2": "columnar",
    "acyclic_large/path4": "columnar",
    "acyclic_large/path3": "columnar",
    "acyclic_large/star3": "columnar",
    "semiring_count/path4": "columnar",
    "semiring_count/path3": "columnar",
    "semiring_count/star3": "columnar",
    "serve_small/path3": "row",
    "serve_small/star3": "row",
    "serve_small/triangle": "columnar",
    "serve_small/path3~": "row",
    "serve_small/star3~": "row",
    "serve_small/triangle~": "columnar",
}
E2E_LAYOUTS = {
    "numpy": _NUMPY_LAYOUTS,
    "python": {
        **_NUMPY_LAYOUTS,
        "acyclic_large/path3": "row",
        "semiring_count/path4": "row",
        "semiring_count/path3": "row",
        "semiring_count/star3": "row",
    },
}


def test_e2e_shapes_keep_their_layouts():
    with Engine(layout="auto") as engine:
        resolved = {
            label: engine.plan(query, db, semiring=semiring).resolved_layout
            for label, query, db, semiring in _e2e_requests()
        }
    assert resolved == E2E_LAYOUTS[kernels()]


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
                assert plan.reused, label
                fresh = _fresh(engine, query, db, semiring)
                assert plan.digest() == fresh.digest(), label
                rendered = plan.render().splitlines()
                assert rendered.pop(1) == "plan reused", label
                assert rendered == fresh.render().splitlines(), label

    def test_a_plan_replays_on_another_database_loaded_alike(self):
        """Compiled on one database, replayed on a second loaded from the
        same relations: the replay is what a fresh compile on the second
        gives, and its answers are the naive join's."""
        requests = _e2e_requests()
        with Engine(layout="auto") as engine:
            for label, query, db, semiring in requests:
                engine.execute(query, db, semiring=semiring)
                other = Database.from_facts(db.facts())
                before = _counts()
                result = engine.execute(query, other, semiring=semiring)
                assert _moved(before) == (0, 1), label
                plan = engine.plan(query, other, semiring=semiring)
                fresh = _fresh(engine, query, other, semiring)
                assert plan.digest() == fresh.digest(), label
                rendered = plan.render().splitlines()
                assert rendered.pop(1) == "plan reused", label
                assert rendered == fresh.render().splitlines(), label
                assert result.answer.rows == (
                    naive_join_eval(query, other).rows
                ), label
                if semiring is not None:
                    assert dict(result.annotations) == dict(
                        naive_annotated_eval(query, other, semiring).annotations
                    ), label

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
            assert engine.explain(query, db).splitlines()[1] == "plan reused"
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
            assert engine.plan(query, db).reused

    def test_a_write_that_changes_no_logged_read_replays(self):
        """A fact over a relation the plan never read, whose values the
        active domain already holds, moves ``Database.version`` and no
        read: the plan replays."""
        query = path_query(3)
        db = random_database(query, 20, 40, seed=2)
        with Engine() as engine:
            engine.execute(query, db)
            assert db.add_fact("unrelated", next(iter(db.universe)))
            before = _counts()
            result = engine.execute(query, db)
            assert _moved(before) == (0, 1)
            assert result.answer.rows == naive_join_eval(query, db).rows

    def test_a_replay_on_another_active_domain_predicts_what_a_compile_does(
        self,
    ):
        """Pricing reads the active domain after the pipelines are
        planned; the plan logs that read too.  Two databases with the
        same sizes and column distincts and active domains of 600 and
        310 values: the second request compiles, and its predictions
        are a fresh compile's, not the first database's."""
        query = parse_query("ans(A,D) :- r(A,B), s(B,C), t(C,D).")

        def shifted(offset):
            n = range(300)
            return Database.from_relations({
                "r": [(i, i + offset) for i in n],
                "s": [(i + offset, i) for i in n],
                "t": [(i, i + offset) for i in n],
            })

        wide, narrow = shifted(300), shifted(10)
        assert (wide.domain_size(), narrow.domain_size()) == (600, 310)
        with Engine(layout="auto") as engine:
            engine.execute(query, wide)
            assert ("domain",) in dict(engine.plan(query, wide).reads)
            before = _counts()
            engine.execute(query, narrow)
            assert _moved(before) == (1, 0)
            plan = engine.plan(query, narrow)
            fresh = _fresh(engine, query, narrow)
            assert fresh.predicted_row_ms is not None
            assert (plan.predicted_row_ms, plan.predicted_columnar_ms) == (
                fresh.predicted_row_ms, fresh.predicted_columnar_ms
            )

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

    def test_declaring_a_predicate_the_plan_never_read_replays(self):
        query = parse_query("ans(X) :- e(X, Y), f(Y, Z).")
        db = Database.from_relations({"e": [(1, 2)], "f": [(2, 3)]})
        with Engine() as engine:
            engine.execute(query, db)
            db.declare("g", 3)
            before = _counts()
            assert engine.execute(query, db).answer.rows == {(1,)}
            assert _moved(before) == (0, 1)

    def test_replaying_onto_another_arity_raises_the_compile_error(self):
        """The plan read ``e``'s arity: on a database storing ``e`` at
        another arity that read differs, so the request compiles — and
        fails the way a fresh compile fails."""
        query = parse_query("ans(X) :- e(X, Y), e(Y, Z).")
        with Engine() as engine:
            engine.execute(query, Database.from_relations({"e": [(1, 2)]}))
            wide = Database.from_relations({"e": [(1, 2, 3)]})
            with pytest.raises(EvaluationError) as replayed:
                engine.execute(query, wide)
            with pytest.raises(EvaluationError) as fresh:
                _fresh(engine, query, wide)
            assert str(replayed.value) == str(fresh.value)
            assert "arity" in str(fresh.value)

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

    def test_two_databases_with_other_statistics_recompile_on_every_switch(
        self,
    ):
        """One plan per key: alternating two databases whose statistics
        differ compiles on every switch, and each request runs the plan a
        fresh compile on its own database gives."""
        query = parse_query("ans(A, C) :- r1(A, B), r2(B, C).")
        big, small = [(i, i % 3) for i in range(9)], [(0, 1)]
        one = Database.from_relations({"r1": big, "r2": small})
        two = Database.from_relations({"r1": small, "r2": big})
        with Engine() as engine:
            before = _counts()
            for db in (one, two, one, two):
                result = engine.execute(query, db)
                assert result.answer.rows == naive_join_eval(query, db).rows
            assert _moved(before) == (4, 0)
            plans = [engine.plan(query, db) for db in (one, two)]
            assert plans[0] is not plans[1]
            assert plans[0].digest() != plans[1].digest()
            for plan, db in zip(plans, (one, two)):
                assert plan.digest() == _fresh(engine, query, db).digest()

    def test_two_databases_with_other_rows_and_equal_statistics_share_a_plan(
        self,
    ):
        """The second database renames every value of the first: other
        rows, the same sizes, distinct counts and active domain.  It
        replays the first's plan, and both answer as the naive join."""
        query = parse_query("ans(A) :- r1(A, B), r2(B, 4), r1(C, C).")
        rows = {
            "r1": [(i, i % 3) for i in range(9)] + [(5, 5)],
            "r2": [(i % 4, i) for i in range(7)],
        }
        one = Database.from_relations(rows)
        two = Database.from_relations({
            p: [tuple(100 + v for v in row) for row in r]
            for p, r in rows.items()
        })
        assert one.rows("r1") != two.rows("r1")
        with Engine() as engine:
            before = _counts()
            for db in (one, two, one, two):
                result = engine.execute(query, db)
                assert result.answer.rows == naive_join_eval(query, db).rows
            assert _moved(before) == (1, 3)
            assert engine.plan(query, one) is engine.plan(query, two)


#: Shapes whose compiles read every kind of value: presence, sizes,
#: distinct counts (a constant, a repeated variable, a projected part)
#: and the active domain (multi-part bags).
_PROPERTY_QUERIES = [
    parse_query("ans(X) :- r(X, Y), s(Y, Z), r(Z, X)."),
    parse_query("ans(X, Z) :- r(X, 1), s(1, Y), r(Y, Z), s(Z, Z)."),
    parse_query("ans() :- r(A, B), s(B, C), r(C, D), s(D, A)."),
]

_RELATION = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
)


@st.composite
def _database_pairs(draw):
    """Two databases over ``r`` and ``s``: the second drawn
    independently, or the first with its values permuted — other rows,
    often the same statistics."""
    one = {"r": draw(_RELATION), "s": draw(_RELATION)}
    if draw(st.booleans()):
        perm = draw(st.permutations(range(4)))
        two = {
            p: [tuple(perm[v] for v in row) for row in rows]
            for p, rows in one.items()
        }
    else:
        two = {"r": draw(_RELATION), "s": draw(_RELATION)}
    pair = Database.from_relations(one), Database.from_relations(two)
    for db in pair:
        db.declare("r", 2)
        db.declare("s", 2)
    return pair


class TestTheReplayProperty:
    @settings(max_examples=60, deadline=None)
    @given(pair=_database_pairs(), which=st.integers(0, 2))
    def test_whenever_the_logged_reads_agree_the_replay_is_a_fresh_compile(
        self, pair, which
    ):
        query = _PROPERTY_QUERIES[which]
        one, two = pair
        with Engine() as engine:
            engine.execute(query, one)
            compiled = engine.plan(query, one)
            agree = all(read(two, key) == v for key, v in compiled.reads)
            event("reads agree" if agree else "reads differ")
            before = _counts()
            result = engine.execute(query, two)
            assert _moved(before) == ((0, 1) if agree else (1, 0))
            assert result.answer.rows == naive_join_eval(query, two).rows
            if agree:
                fresh = _fresh(engine, query, two)
                assert compiled.digest() == fresh.digest()
                assert engine.plan(query, two).digest() == fresh.digest()


class TestWhatTheMemoHolds:
    def test_a_dropped_database_is_collected_while_its_plan_stays(self):
        """A plan names no database: the one it was compiled on can be
        collected, and a database loaded alike replays the plan."""
        query = cycle_query(4)
        with Engine() as engine:
            db = random_database(query, 10, 20, seed=1)
            engine.execute(query, db)
            entry = engine.cache.lookup(query).entry
            dropped = weakref.ref(db)
            del db
            gc.collect()
            assert dropped() is None
            assert len(entry.plans) == 1
            before = _counts()
            engine.execute(query, random_database(query, 10, 20, seed=1))
            assert _moved(before) == (0, 1)

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
        changes the data between rounds: every answer matches the
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
                assert len(entry.plans) == 1
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
            assert replace(plan, reused=False).digest() == plan.digest()
