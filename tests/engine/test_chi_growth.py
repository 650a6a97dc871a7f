"""Cost-chosen χ: a bag's variables grown toward var(λ) when that is cheaper.

Among decompositions of one width χ(p) is free between what connectedness
forces and var(λ(p)).  ``compile_plan`` lets a node that joins several λ
atoms add variables a tree neighbour already holds, prices each candidate
label by the sum of its pipeline's estimated intermediates, and keeps one
only if it is strictly cheaper.  The relabelled tree is still a
decomposition of the same width, every consumer of the plan reads the
same χ, and nothing a request can observe changes but the work it does.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.db.annotated import naive_annotated_eval
from repro.db.database import Database
from repro.db.naive import naive_join_eval
from repro.db.semiring import resolve_semiring
from repro.db.stats import EvalStats
from repro.engine import Engine
from repro.engine import plan as plan_module
from repro.engine.plan import compile_plan, execute_plan
from repro.generators import paper_queries
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    path_query,
)
from repro.generators.workloads import random_database, update_workload
from repro.heuristics import decompose
from repro.heuristics.validate import check_decomposition
from repro.incremental import MaterializedView
from repro.obs import Tracer, get_registry, tracing
from tests.conftest import assert_bag_contract, star_query

# The measured case is the e2e benchmark's `cyclic_bags` data, so the
# tests read it from the benchmark's own generator (never its timings).
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"))
from e2ebench.workloads import FULL, CyclicBags, load  # noqa: E402

SWEEP = [cycle_query(n) for n in range(4, 9)] + [
    book_query(2), book_query(3), clique_query(4), grid_query(3),
    hyperwheel_query(4, 3), paper_queries.q1(), paper_queries.q5(),
]


@pytest.fixture(scope="module", params=[3, 11])
def cyclic_bags(request):
    """``cyclic_bags``' three shapes and database under one seed."""
    workload = CyclicBags(request.param, FULL["cyclic_bags"])
    return workload.shapes, load(workload.relations)[0]


@pytest.fixture
def engine():
    with Engine() as made:
        yield made


def _grown(plan):
    return {bag.node.predicate: bag.grown for bag in plan.bags if bag.grown}


def _literal_plan(monkeypatch, query, db, hd, **options):
    """The plan over the cached χ labels: the same compile with the
    search switched off (here, in the test — production has no switch)."""
    with monkeypatch.context() as patch:
        patch.setattr(plan_module, "_grow_chi", lambda *args: {})
        return compile_plan(query, db, hd, **options)


class TestTheMeasuredCase:
    def test_cycle5_grows_d_into_exactly_one_node(self, engine, cyclic_bags):
        shapes, db = cyclic_bags
        plan = engine.plan(shapes["cycle5"], db)
        assert list(_grown(plan).values()) == [("D",)], plan.render()
        (node,) = [bag for bag in plan.bags if bag.grown]
        join_order = [part.atom for part in node.parts]
        assert {a.predicate for a in join_order} == {"c5b", "c5c", "c5d"}
        assert {
            part.atom.predicate for part in node.parts if part.covered
        } == {"c5c"}
        # No product left: every step shares a variable with the
        # steps before it.
        joined = set(join_order[0].variables)
        for atom in join_order[1:]:
            assert atom.variables & joined, str(node)
            joined |= atom.variables
        assert plan.width == 2

    def test_the_grown_bag_is_a_path_join_not_a_product(
        self, engine, cyclic_bags, monkeypatch
    ):
        shapes, db = cyclic_bags
        query = shapes["cycle5"]
        engine.execute(query, db)
        hd = engine.cache.lookup(query).decomposition
        grown, literal = EvalStats(), EvalStats()
        execute_plan(compile_plan(query, db, hd), db, stats=grown)
        execute_plan(
            _literal_plan(monkeypatch, query, db, hd), db, stats=literal
        )
        # 11 690 → 880 rows under seed 3: the product of the two λ atoms
        # against a three-atom path.
        assert literal.max_intermediate > 10_000
        assert grown.max_intermediate * 10 < literal.max_intermediate
        assert grown.total_tuples_produced * 2 < literal.total_tuples_produced

    def test_book2_and_cycle4_grow_nothing(self, engine, cyclic_bags):
        """The regression against blind saturation.  Growing χ toward
        var(λ) everywhere is not free: on this data adding P0 to
        ``book_2``'s second page doubles the request (3.4 → 6.2 ms: its
        bag is estimated at ≈ 0 rows behind a 1 727-row intermediate)
        and saturating ``cycle4`` costs 6 %.  Both candidates are priced
        — and rejected."""
        shapes, db = cyclic_bags
        for name in ("book2", "cycle4"):
            plan = engine.plan(shapes[name], db)
            assert not _grown(plan), plan.render()
            assert all("+" not in str(bag) for bag in plan.bags)
            considered = [priced for priced in plan.candidates if priced]
            assert considered, plan.render()
            for priced in considered:
                costs = dict(priced)
                assert all(costs[()] <= cost for cost in costs.values())


class TestTheChoice:
    def test_the_chosen_label_is_the_cheapest_one_priced(self, engine):
        priced = 0
        for query in SWEEP:
            db = random_database(query, 75, 150, seed=1)
            plan = engine.plan(query, db)
            for bag, candidates in zip(plan.bags, plan.candidates):
                if not candidates:
                    assert not bag.grown
                    continue
                priced += 1
                costs = dict(candidates)
                assert candidates[0][0] == ()  # the literal label
                assert costs[bag.grown] == min(costs.values())
                assert costs[bag.grown] <= costs[()]
                if bag.grown:  # only a strictly cheaper label replaces it
                    assert costs[bag.grown] < costs[()]
        assert priced

    def test_acyclic_plans_and_compiles_without_a_database_skip_the_search(
        self, engine, monkeypatch
    ):
        def entered(*args):
            raise AssertionError("the χ search ran")

        monkeypatch.setattr(plan_module, "_grow_chi", entered)
        counter = get_registry().counter("plan.chi_grown")
        before = counter.value
        for query in (path_query(4), star_query(3)):
            db = random_database(query, 30, 60, seed=1)
            plan = engine.plan(query, db)
            assert plan.width == 1
            assert all(
                not bag.grown and not priced
                for bag, priced in zip(plan.bags, plan.candidates)
            )
        for query in (cycle_query(5), book_query(2)):
            plan = engine.plan(query, None)
            assert all(
                not bag.grown and not priced
                for bag, priced in zip(plan.bags, plan.candidates)
            )
        assert counter.value == before

    def test_the_cached_decomposition_is_never_touched(self, engine):
        query = cycle_query(5)
        db = random_database(query, 75, 150, seed=0)
        engine.execute(query, db)
        stored = engine.cache.lookup(query).decomposition
        labels = [(n.chi, n.lam) for n in stored.nodes]
        plan = engine.plan(query, db)
        assert _grown(plan)
        assert [(n.chi, n.lam) for n in stored.nodes] == labels
        grown_chi = [n.chi for n in plan.decomposition.nodes]
        assert grown_chi != [chi for chi, _ in labels]
        # Bags, join tree and the carried decomposition read one χ.
        for bag, p in zip(plan.bags, plan.decomposition.nodes):
            assert set(bag.chi) == {v.name for v in p.chi}
            assert set(bag.chi) == {v.name for v in bag.node.variables}
            assert bag.node in plan.join_tree.nodes

    def test_a_normal_form_decomposition_has_nothing_to_grow(self):
        """Definition 5.1(3) — var(λ(s)) ∩ χ(r) ⊆ χ(s) — with condition 4
        of Definition 4.1 is the always-grow end of the range: what the
        exact search returns leaves no variable a neighbour holds
        outside χ."""
        for query in SWEEP[:4] + [book_query(2), paper_queries.q5()]:
            hd = decompose(query, mode="exact").decomposition
            assert hd.validate() == []
            db = random_database(query, 40, 80, seed=2)
            plan = compile_plan(query, db, hd)
            assert all(not priced for priced in plan.candidates)
            assert plan.decomposition.validate() == []
            assert plan.width == hd.width


def test_grown_plans_stay_decompositions_and_never_do_more_work(monkeypatch):
    """The 12-shape × 6-seed sweep at 150 rows: every compiled plan's
    decomposition passes the GHTD checker at the cached width — and all
    four conditions of Definition 4.1 whenever the cached one did —,
    answers are unchanged, and Σ rows produced is down on the shapes
    that grew and up on none."""
    fell = grown_hds = 0
    for query in SWEEP:
        hd = decompose(query).decomposition
        was_hd = not hd.complete().validate()
        for seed in range(6):
            db = random_database(query, 75, 150, seed=seed)
            plan = compile_plan(query, db, hd, layout="auto")
            literal = _literal_plan(monkeypatch, query, db, hd, layout="auto")
            assert not _grown(literal)
            assert check_decomposition(plan.decomposition) == []
            assert plan.decomposition.width == plan.width == hd.width
            if was_hd:
                assert plan.decomposition.validate() == []
                grown_hds += bool(_grown(plan))
            ours, theirs = EvalStats(), EvalStats()
            answer = execute_plan(plan, db, stats=ours)
            assert set(answer.rows) == set(
                execute_plan(literal, db, stats=theirs).rows
            )
            assert ours.total_tuples_produced <= theirs.total_tuples_produced
            assert ours.max_intermediate <= theirs.max_intermediate
            if _grown(plan):
                assert ours.total_tuples_produced < theirs.total_tuples_produced
                fell += 1
            else:
                assert list(map(str, plan.bags)) == list(
                    map(str, literal.bags)
                )
    assert fell >= 24  # cycle_5 … cycle_8, every seed
    assert grown_hds  # condition 4 was at stake, not vacuously kept


class TestEveryConsumerReadsTheSameChi:
    @pytest.fixture
    def cycle5(self, cyclic_bags):
        shapes, db = cyclic_bags
        return shapes["cycle5"], db

    def test_the_bag_contract_holds_on_the_grown_plan(self, engine, cycle5):
        query, db = cycle5
        engine.execute(query, db)
        hd = engine.cache.lookup(query).decomposition
        assert assert_bag_contract(query, db, hd) > 0

    @pytest.mark.parametrize("layout", ["row", "columnar", "auto"])
    def test_count_and_top_k_agree_with_naive_evaluation(self, layout):
        query = cycle_query(5)
        query = query.with_head(
            tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        )
        db = random_database(
            query, 20, 40, seed=5, plant_answer=True, weights="cost"
        )
        with Engine(layout=layout) as engine:
            assert _grown(engine.plan(query, db))
            counted = engine.execute(query, db, semiring="count")
            expected = naive_annotated_eval(
                query, db, resolve_semiring("count")
            )
            assert dict(counted.annotations) == dict(expected.annotations)
            assert engine.count(query, db) == expected.total()
            cheapest = naive_annotated_eval(
                query, db, resolve_semiring("mincost")
            )
            best = engine.top_k(query, db, k=5)
            assert best
            for row, cost, _ in best:
                assert cost == pytest.approx(cheapest.annotation(row)[0])
            assert [cost for _, cost, _ in best] == pytest.approx(
                sorted(
                    value[0] for value in cheapest.annotations.values()
                )[: len(best)]
            )
            assert (
                engine.execute(query, db).answer.rows
                == naive_join_eval(query, db).rows
            )

    def test_a_view_over_the_grown_plan_equals_recompute(self, engine):
        query = cycle_query(5).with_head(
            tuple(sorted(cycle_query(5).variables, key=lambda v: v.name)[:2])
        )
        db = random_database(query, 15, 30, seed=3)
        plan = engine.plan(query, db)
        assert _grown(plan), plan.render()
        view = MaterializedView(query, db, plan)
        assert view.answers().rows == naive_join_eval(query, db).rows
        stream = update_workload(
            db, n_batches=8, batch_size=6, delete_ratio=0.4,
            reinsert_ratio=0.5, seed=4,
        )
        for delta in stream:
            db.apply(delta)
            view.apply(delta)
            assert view.answers().rows == naive_join_eval(query, db).rows
            assert view.answers().rows == engine.execute(query, db).answer.rows


class TestExplainableChoice:
    def test_rendering_and_digest_tell_a_grown_plan_from_a_literal_one(
        self, engine, cyclic_bags
    ):
        shapes, db = cyclic_bags
        query = shapes["cycle5"]
        plan = engine.plan(query, db)
        literal = replace(
            plan,
            bags=tuple(bag._replace(grown=()) for bag in plan.bags),
        )
        assert "π[B, C, +D, E]" in plan.render()
        assert "+D" not in literal.render().split("χ per node")[0]
        assert plan.digest() != literal.digest()

    def test_explain_names_the_rejected_candidates_and_their_cost(
        self, engine, cyclic_bags
    ):
        shapes, db = cyclic_bags
        text = engine.explain(shapes["cycle5"], db)
        (chose,) = [
            line for line in text.splitlines() if ": grew +D ≈" in line
        ]
        assert "rejected literal χ ≈" in chose
        kept = [
            line for line in text.splitlines() if ": kept literal χ ≈" in line
        ]
        assert kept and all("rejected +" in line for line in kept)
        analyzed = engine.explain(shapes["cycle5"], db, analyze=True)
        assert "π[B, C, +D, E]" in analyzed and "grew +D" in analyzed
        # A plan that priced nothing says nothing.
        acyclic = path_query(3)
        assert "χ per node" not in engine.explain(
            acyclic, random_database(acyclic, 20, 40, seed=1)
        )

    def test_spans_and_the_registry_count_the_grown_variables(
        self, engine, cyclic_bags
    ):
        shapes, shared = cyclic_bags
        db = Database.from_facts(shared.facts())  # this test writes
        query = shapes["cycle5"]
        engine.execute(query, db)
        counter = get_registry().counter("plan.chi_grown")
        before = counter.value
        engine.execute(query, db)  # replays the plan: no compile, no count
        assert counter.value == before
        # An effective write outside the query's relations, over a value
        # already in the active domain, changes no read the plan logged:
        # it replays.  A new value grows the active domain, which the
        # plan did read: it is compiled again and counted again.
        db.add_fact("unrelated", next(iter(db.universe)))
        engine.execute(query, db)
        assert counter.value == before
        db.add_fact("unrelated", "a value no relation holds")
        tracer = Tracer()
        with tracing(tracer):
            engine.execute(query, db)
        assert counter.value - before == 1
        (compiled,) = [s for s in tracer.spans() if s.name == "plan.compile"]
        assert compiled.attrs["reused"] is False
        bags = [s for s in tracer.spans() if s.name == "plan.bag"]
        assert sorted(s.attrs["grown"] for s in bags) == [0, 0, 0, 1]
        assert all("filters" in s.attrs for s in bags)
