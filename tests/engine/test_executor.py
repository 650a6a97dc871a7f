"""Engine facade: correctness vs the naive baseline, amortisation, budgets."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import BudgetExceeded, EvaluationError
from repro.core.parser import parse_query
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.engine import Engine, fingerprint
from repro.engine.plan import compile_plan
from repro.generators.families import cycle_query, path_query, random_query
from repro.generators.workloads import query_workload, random_database
from tests.conftest import small_queries


class TestExecuteCorrectness:
    @settings(max_examples=30, deadline=None)
    @given(
        query=small_queries(),
        db_seed=st.integers(0, 1000),
        plant=st.booleans(),
    )
    def test_matches_naive_on_random_instances(self, query, db_seed, plant):
        """Randomised cross-check: Engine.execute ≡ the naive join, for
        Boolean and full-answer queries alike."""
        db = random_database(
            query, domain_size=5, tuples_per_relation=8,
            seed=db_seed, plant_answer=plant,
        )
        head = tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        query = query.with_head(head)
        engine = Engine()
        result = engine.execute(query, db)
        naive = naive_join_eval(query, db)
        assert result.answer.rows == naive.rows
        assert tuple(result.answer.attributes) == tuple(naive.attributes)

    def test_boolean_result(self):
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        engine = Engine()
        assert engine.execute(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db).boolean
        assert not engine.execute(parse_query("e(X,X)"), db).boolean

    def test_empty_query(self):
        from repro.core.query import ConjunctiveQuery

        engine = Engine()
        result = engine.execute(ConjunctiveQuery((), (), "empty"), Database())
        assert result.boolean  # empty conjunction is vacuously true
        assert result.method == "empty"

    def test_cache_hit_across_renaming(self):
        engine = Engine()
        db1 = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        db2 = Database.from_relations({"f": [(7, 8), (8, 9), (9, 7)]})
        first = engine.execute(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db1)
        second = engine.execute(parse_query("f(A,B), f(B,C), f(C,A)"), db2)
        assert not first.cache_hit and second.cache_hit
        assert engine.decompositions == 1
        assert first.boolean and second.boolean


class TestSchemaMismatch:
    """A query atom whose arity is not its stored relation's fails
    typed, wherever in the decomposition the atom sits: ``d(D,E)`` lands
    in the 5-cycle's multi-part bag, whose compile-time estimates index
    stored columns and used to die of a bare ``IndexError`` first."""

    QUERY = "ans(A) :- a(A,B), b(B,C), c(C,D), d(D,E), e(E,A)."

    @pytest.mark.parametrize("op", ["execute", "explain"])
    @pytest.mark.parametrize("unary", "abcde")
    def test_wrong_arity_is_an_evaluation_error(self, unary, op):
        relations = {p: [(i, (i + 1) % 5) for i in range(5)] for p in "abcde"}
        relations[unary] = [(i,) for i in range(5)]
        db = Database.from_relations(relations)
        with pytest.raises(
            EvaluationError,
            match=rf"atom {unary}\(.*\) has arity 2 but relation "
            rf"'{unary}' has arity 1",
        ):
            getattr(Engine(), op)(parse_query(self.QUERY), db)


class TestAmortizedWorkload:
    def test_hundred_queries_ten_shapes(self):
        """The ISSUE acceptance scenario: ≥100 queries over ≤10 shapes;
        pass two performs zero decomposition searches and every answer
        matches the naive baseline exactly."""
        n_queries, n_shapes = 100, 10
        workload = query_workload(n_queries, n_shapes, seed=1)
        assert len({fingerprint(q) for q in workload}) <= n_shapes
        requests = [
            (q, random_database(q, domain_size=6, tuples_per_relation=10,
                                seed=i, plant_answer=(i % 2 == 0)))
            for i, q in enumerate(workload)
        ]
        engine = Engine(cache_size=32)
        cold = engine.execute_many(requests, workers=1)
        assert cold.failures == 0
        decompositions_after_cold = engine.decompositions
        assert decompositions_after_cold <= n_shapes

        warm = engine.execute_many(requests, workers=4)
        # zero decomposition searches on the second pass — cache hits only
        assert engine.decompositions == decompositions_after_cold
        assert warm.cache_hits == n_queries
        assert warm.cache_misses == 0 and warm.failures == 0
        assert engine.cache.info()["hit_rate"] > 0.5

        for (q, db), result in zip(requests, warm.results):
            naive = naive_join_eval(q, db)
            assert result.answer.rows == naive.rows, q.name

    def test_merged_stats_accumulate(self):
        workload = query_workload(8, 2, seed=9)
        requests = [
            (q, random_database(q, 5, 8, seed=i, plant_answer=True))
            for i, q in enumerate(workload)
        ]
        engine = Engine()
        batch = engine.execute_many(requests, workers=2)
        assert batch.stats.joins == sum(r.stats.joins for r in batch.results)
        assert batch.stats.wall_time == pytest.approx(
            sum(r.stats.wall_time for r in batch.results)
        )
        assert batch.stats.max_intermediate == max(
            r.stats.max_intermediate for r in batch.results
        )
        assert batch.throughput > 0


class TestBudgets:
    def test_exhausted_budget_raises_in_execute(self):
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        with pytest.raises(BudgetExceeded):
            engine.execute(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db, budget=0.0)

    def test_execute_many_records_budget_failures(self):
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        queries = [parse_query("e(X,Y), e(Y,Z), e(Z,X)")]
        batch = engine.execute_many(queries, db=db, budget=0.0)
        assert batch.failures == 1
        assert batch.results[0].error is not None
        assert not batch.results[0].ok

    def test_execute_many_isolates_schema_errors(self):
        """A malformed request (arity mismatch) fails alone; the rest of
        the batch still completes."""
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        queries = [
            parse_query("e(X,Y), e(Y,Z), e(Z,X)"),
            parse_query("e(X,Y,Z)"),  # wrong arity for relation e
            parse_query("e(A,B), e(B,C), e(C,A)"),
        ]
        batch = engine.execute_many(queries, db=db, workers=1)
        assert batch.failures == 1
        assert not batch.results[1].ok and "arity" in batch.results[1].error
        assert batch.results[0].ok and batch.results[0].boolean
        assert batch.results[2].ok and batch.results[2].boolean

    def test_default_budget_from_constructor(self):
        engine = Engine(budget=0.0)
        db = Database.from_relations({"e": [(1, 2)]})
        with pytest.raises(BudgetExceeded):
            engine.execute(parse_query("e(X,Y)"), db)

    def test_queued_requests_keep_their_whole_budget(self):
        """Regression (pool saturation): a request's budget clock must
        start when it begins *executing*, not when the batch is
        submitted.  Two slow requests saturate the 2-thread pool for far
        longer than the whole per-request budget; the fast requests
        queued behind them must still succeed.  The slow requests are
        slow by construction — every base-relation read stalls for two
        budgets — not because the engine happens to be."""
        budget = 0.15

        class StallingDatabase(Database):
            def snapshot(self, predicate):
                time.sleep(2 * budget)
                return super().snapshot(predicate)

        slow_db = StallingDatabase()
        for a in range(50):
            slow_db.add_fact("e", a, (a + 1) % 50)
        slow_query = path_query(3)
        slow_query = slow_query.with_head(
            tuple(sorted(slow_query.variables, key=lambda v: v.name)[:2])
        )
        fast_db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        fast = parse_query("e(X,Y), e(Y,Z), e(Z,X)")

        engine = Engine(mode="heuristic")
        requests = [(slow_query, slow_db)] * 2 + [(fast, fast_db)] * 3
        batch = engine.execute_many(requests, workers=2, budget=budget)

        # The slow head-of-line requests blow their own budgets...
        for result in batch.results[:2]:
            assert not result.ok
            assert "budget" in result.error
        # ...and the batch as a whole ran well past any single budget...
        assert batch.elapsed > budget
        # ...yet every queued request still completed within its own.
        for result in batch.results[2:]:
            assert result.ok, result.error
            assert result.boolean


class TestSequentialOnly:
    """Requests evaluate sequentially; the parallel backends are gone and
    naming one is a typed error, not a silent fallback."""

    REMOVED = "parallel execution backends were removed"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_engine_rejects_a_parallel_backend(self, backend):
        with pytest.raises(ValueError, match=self.REMOVED):
            Engine(backend=backend)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_compile_plan_rejects_a_parallel_backend(self, backend):
        query = parse_query("e(X,Y), e(Y,Z)")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})
        hd = Engine().plan(query, db).decomposition
        with pytest.raises(ValueError, match=self.REMOVED):
            compile_plan(query, db, hd, backend=backend)

    @pytest.mark.parametrize("keyword", ["backend_workers", "shard_threshold"])
    def test_the_shard_knobs_are_gone_from_the_engine(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            Engine(**{keyword: 2})

    def test_shard_threshold_is_read_only(self):
        engine = Engine()
        with pytest.raises(AttributeError):
            engine.shard_threshold = 0
        assert engine.shard_threshold is None

    def test_execute_plan_takes_no_backend(self):
        from repro.engine.plan import execute_plan

        query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_relations({"e": [(1, 2), (2, 3)]})
        plan = Engine().plan(query, db)
        assert execute_plan(plan, db).rows == {(1, 3)}
        with pytest.raises(TypeError, match="backend"):
            execute_plan(plan, db, backend="sequential")

    def test_the_backend_environment_variable_selects_nothing(
        self, monkeypatch
    ):
        """``$REPRO_BACKEND`` once chose the default backend; it is read
        by nothing now, so even a removed backend's name is inert."""
        query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_relations({"e": [(i, i % 7) for i in range(40)]})
        quiet = Engine()
        expected = quiet.execute(query, db).answer.rows
        monkeypatch.setenv("REPRO_BACKEND", "process")
        with Engine() as engine:
            assert engine.execute(query, db).answer.rows == expected
            plan = engine.plan(query, db)
            assert plan.digest() == quiet.plan(query, db).digest()
            assert "backend" not in engine.explain(query, db)

    def test_the_benchmark_keywords_select_nothing(self):
        """``backend="sequential"``, ``workers`` and ``shard_threshold``
        are accepted for the end-to-end benchmark driver and change
        nothing about the plan."""
        query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).")
        db = Database.from_relations({"e": [(i, i % 7) for i in range(40)]})
        engine = Engine(backend="sequential")
        assert engine.shard_threshold is None
        hd = engine.plan(query, db).decomposition
        plain = compile_plan(query, db, hd, layout="auto")
        legacy = compile_plan(
            query, db, hd, backend="sequential", workers=1,
            shard_threshold=engine.shard_threshold, layout="auto",
        )
        assert legacy.digest() == plain.digest()
        assert legacy.render() == plain.render()

    def test_execute_many_runs_requests_concurrently(self):
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        queries = [cycle_query(3, "e"), cycle_query(4, "e")]
        with Engine() as engine:
            batch = engine.execute_many(queries, db=db, workers=2)
        assert all(r.ok for r in batch)
        assert batch.results[0].boolean

    def test_close_is_idempotent_and_the_engine_stays_usable(self):
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        query = parse_query("e(X,Y), e(Y,Z), e(Z,X)")
        with Engine() as engine:
            assert engine.execute(query, db).boolean
        engine.close()
        assert engine.execute(query, db).boolean


class TestExplain:
    def test_explain_renders_plan(self):
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        text = engine.explain(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db)
        assert "width 2" in text
        assert "root" in text
        assert "join tree" in text

    def test_explain_without_database(self):
        engine = Engine()
        text = engine.explain(cycle_query(5))
        assert "width" in text and "boolean" in text

    def test_explain_marks_cached_plans(self):
        engine = Engine()
        engine.explain(cycle_query(5))
        text = engine.explain(cycle_query(5))
        assert "cached" in text


class TestSharedDatabaseBatch:
    def test_bare_queries_need_db(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.execute_many([cycle_query(4)])

    def test_bare_queries_with_shared_db(self):
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1), (1, 3)]})
        queries = [cycle_query(3, "e"), cycle_query(4, "e")]
        batch = engine.execute_many(queries, db=db, workers=1)
        assert len(batch) == 2
        assert all(r.ok for r in batch)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_workload_variants_share_plans(seed):
    """Any renamed workload of one base shape produces exactly one
    decomposition, however many queries run."""
    base = random_query(n_atoms=4, n_variables=5, seed=seed)
    workload = query_workload(6, 1, seed=seed, shapes=[base])
    engine = Engine()
    requests = [
        (q, random_database(q, 4, 6, seed=i, plant_answer=True))
        for i, q in enumerate(workload)
    ]
    batch = engine.execute_many(requests, workers=1)
    assert batch.failures == 0
    assert engine.decompositions == 1
