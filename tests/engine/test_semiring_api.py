"""Engine-level semiring API: count/top_k/provenance/probability, one
plan-cache entry per shape with a compiled plan per semiring, and the
per-semiring request counters."""

import pytest

from repro.core.parser import parse_query
from repro.db import Database
from repro.engine import Engine
from repro.obs import get_registry

PATH2 = "ans(X, Z) :- e(X, Y), e(Y, Z)."
EDGES = [(1, 2), (2, 3), (2, 4), (4, 5), (3, 5)]


@pytest.fixture
def db():
    base = Database.from_relations({"e": EDGES})
    return base


@pytest.fixture
def engine():
    made = Engine()
    yield made
    made.close()


class TestConvenienceMethods:
    def test_count(self, engine, db):
        # (1,3), (1,4), (2,5)×2 derivations.
        assert engine.count(parse_query(PATH2), db) == 4

    def test_count_boolean_query(self, engine, db):
        q = parse_query("ans() :- e(X, Y), e(Y, Z).")
        assert engine.count(q, db) == 4

    def test_top_k_orders_by_cost_and_witnesses_are_real(self, engine, db):
        weighted = Database()
        for u, v in EDGES:
            weighted.add_fact("e", u, v, weight=float(u + v))
        top = engine.top_k(parse_query(PATH2), weighted, k=2)
        assert len(top) == 2
        costs = [cost for _, cost, _ in top]
        assert costs == sorted(costs)
        for row, cost, witness in top:
            assert cost == pytest.approx(
                sum(weighted.weight(p, r) for p, r in witness)
            )

    def test_top_k_rejects_nonpositive_k(self, engine, db):
        with pytest.raises(ValueError):
            engine.top_k(parse_query(PATH2), db, k=0)

    def test_provenance_maps_rows_to_witness_sets(self, engine, db):
        prov = engine.provenance(parse_query(PATH2), db)
        assert set(prov) == {(1, 3), (1, 4), (2, 5)}
        assert len(prov[(2, 5)]) == 2  # via 3 and via 4

    def test_probability_certain_facts(self, engine, db):
        probs = engine.probability(parse_query(PATH2), db)
        assert all(v == pytest.approx(1.0) for v in probs.values())

    def test_set_semantics_result_has_no_annotations(self, engine, db):
        result = engine.execute(parse_query(PATH2), db)
        assert result.semiring is None
        assert result.annotations is None


class TestAnswersDoNotAliasTheDatabase:
    """Regression: the answer of an identity projection shares the
    annotation map ``Database.annotations`` memoises per relation
    version (sharing it is the point — no copy per request), so
    ``result.annotations[row] = 99`` used to turn the next count of
    ``ans(X,Y) :- r(X,Y).`` from 2 into 100."""

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @pytest.mark.parametrize("tag", ["count", "mincost", "prob"])
    def test_annotations_are_read_only(self, layout, tag):
        db = Database.from_relations({"r": [(1, 2), (3, 4)]})
        query = parse_query("ans(X,Y) :- r(X,Y).")
        with Engine(layout=layout) as engine:
            result = engine.execute(query, db, semiring=tag)
            before = dict(result.annotations)
            assert set(before) == {(1, 2), (3, 4)}
            with pytest.raises(TypeError):
                result.annotations[(1, 2)] = 99
            with pytest.raises((TypeError, AttributeError)):
                result.annotations.clear()
            again = engine.execute(query, db, semiring=tag)
            assert dict(again.annotations) == before
            assert engine.count(query, db) == 2

    def test_front_doors_hand_out_private_dicts(self, engine, db):
        query = parse_query("ans(X,Y) :- e(X,Y).")
        probs = engine.probability(query, db)
        probs[(1, 2)] = 0.0
        prov = engine.provenance(query, db)
        prov.clear()
        assert engine.probability(query, db)[(1, 2)] == pytest.approx(1.0)
        assert len(engine.provenance(query, db)) == len(EDGES)
        (row, cost, witness), = engine.top_k(query, db, k=1)
        assert cost == pytest.approx(1.0) and witness == (("e", row),)


class TestExplainSemiring:
    QUERY = "ans(X, Z) :- e(X, Y), e(Y, Z)."

    @pytest.fixture
    def big_db(self):
        import random

        rng = random.Random(7)
        return Database.from_relations(
            {"e": [(rng.randrange(400), rng.randrange(400))
                   for _ in range(2500)]}
        )

    def test_count_plans_render_their_layout(self, big_db):
        from repro.db.columnar import kernels, rides_buffers
        from repro.db.semiring import COUNTING

        query = parse_query(self.QUERY)
        with Engine(layout="auto") as engine:
            set_plan = engine.explain(query, big_db)
            count_plan = engine.explain(query, big_db, semiring="count")
            mincost_plan = engine.explain(query, big_db, semiring="mincost")
        # 2 500 rows: a set request is priced columnar with numpy (row on
        # the pure-Python buffers); a count request is not priced, but
        # its largest input is over the weighted floor.
        set_layout = "columnar" if kernels() == "numpy" else "row"
        assert f"layout auto → {set_layout} (predicted row" in set_plan
        assert "predicted" not in count_plan
        assert ("→ columnar" in count_plan) == rides_buffers(COUNTING)
        # (cost, witness) pairs only fit the row carrier: a row plan.
        assert "columnar" not in mincost_plan

    def test_analyze_runs_the_annotated_request(self, big_db):
        query = parse_query(self.QUERY)
        registry = get_registry()
        counted = registry.counter("semiring.count.engine.requests")
        before = counted.value
        with Engine(layout="auto") as engine:
            text = engine.explain(
                query, big_db, analyze=True, semiring="count"
            )
            rows = len(engine.execute(query, big_db).answer)
        assert counted.value == before + 1
        assert f"{rows} answer row(s)" in text
        assert "actual rows" in text and "sweep" in text


class TestWeightWrites:
    """Regression: weight writes change what ``lift`` returns without
    touching the rows, so they need their own invalidation of the
    annotation maps memoised per relation version."""

    def test_warm_answers_reflect_a_weight_write(self, engine, db):
        query = parse_query(PATH2)
        assert engine.count(query, db) == 4  # warm: maps are memoised
        (row, cost, _), = engine.top_k(query, db, k=1)
        assert cost == pytest.approx(2.0)
        probs = engine.probability(query, db)
        assert probs[(1, 3)] == pytest.approx(1.0)

        # Make every path through 2 expensive except 2 -> 4 -> 5.
        db.set_weight("e", (1, 2), 10.0)
        db.set_weight("e", (2, 3), 10.0)
        (row, cost, witness), = engine.top_k(query, db, k=1)
        assert row == (2, 5) and cost == pytest.approx(2.0)
        assert set(witness) == {("e", (2, 4)), ("e", (4, 5))}
        by_row = {r: c for r, c, _ in engine.top_k(query, db, k=3)}
        assert by_row[(1, 3)] == pytest.approx(20.0)
        assert by_row[(1, 4)] == pytest.approx(11.0)

        # add_fact(weight=) on a present row is a weight-only write too.
        assert not db.add_fact("e", 1, 2, weight=0.5)
        assert engine.probability(query, db)[(1, 4)] == pytest.approx(0.5)
        by_row = {r: c for r, c, _ in engine.top_k(query, db, k=3)}
        assert by_row[(1, 4)] == pytest.approx(1.5)
        assert engine.count(query, db) == 4  # counts ignore weights


class TestPlanCacheSharing:
    def test_one_entry_one_search_one_plan_per_semiring(self, engine, db):
        """The cache keys on the shape alone, the plan memo on the
        semiring too: set, count and mincost on one shape and one
        database version share one entry and one decomposition, and
        each compiles (and then replays) a plan of its own."""
        from repro.db.columnar import kernels, rides_buffers
        from repro.db.semiring import COUNTING, resolve_semiring
        from repro.engine.plan import compile_plan

        query = parse_query(PATH2)
        compiled = get_registry().counter("plan.compiled")
        before = compiled.value
        semirings = (None, "count", "mincost")
        for _ in range(2):
            for semiring in semirings:
                engine.execute(query, db, semiring=semiring)
        assert engine.decompositions == 1 and len(engine.cache) == 1
        assert compiled.value - before == 3
        plans = {s: engine.plan(query, db, semiring=s) for s in semirings}
        assert compiled.value - before == 3
        hit = engine.cache.lookup(query)
        for semiring, plan in plans.items():
            assert plan.reused_version == db.version
            fresh = compile_plan(
                query, db, hit.decomposition, provenance=hit.method,
                cache_hit=True, layout=engine.layout,
                semiring=resolve_semiring(semiring),
            )
            assert plan.digest() == fresh.digest(), semiring
        assert not plans[None].weighted
        assert plans["count"].weighted == rides_buffers(COUNTING)
        if kernels() == "numpy":
            assert plans["count"].weighted
        # (cost, witness) pairs only fit the row carrier.
        assert plans["mincost"].layout == "row"
        assert not plans["mincost"].weighted

    def test_requests_counted_per_semiring(self, db):
        engine = Engine()
        try:
            registry = get_registry()
            query = parse_query(PATH2)

            def reading(tag):
                return registry.counter(
                    f"semiring.{tag}.engine.requests"
                ).value

            base_set, base_count = reading("set"), reading("count")
            engine.execute(query, db)
            engine.execute(query, db, semiring="count")
            engine.execute(query, db, semiring="count")
            assert reading("set") == base_set + 1
            assert reading("count") == base_count + 2
        finally:
            engine.close()
