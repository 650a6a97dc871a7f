"""Engine / plan layout policy: row | columnar | auto.

A plan has *one* layout.  ``auto`` resolves it at compile time to the
layout whose predicted milliseconds are fewer — the plan's operators
priced by the fitted per-operator costs of ``OPERATOR_COSTS`` for the
kernels that loaded; bag materialisation then puts every bag on that
carrier and records which one each took in the ``plan.layout_*``
counters.  Annotated requests follow the same policy when their
semiring's values can ride a weight column, and compile row plans
otherwise.  Whatever the layout, the answers are the naive evaluator's.
"""

import dataclasses
import random
import re

import pytest

from repro.core.parser import parse_query
from repro.db import Database
from repro.db import columnar as columnar_mod
from repro.db.annotated import naive_annotated_eval
from repro.db.columnar import LAYOUTS
from repro.db.naive import naive_join_eval
from repro.db.semiring import COUNTING, MINCOST
from repro.engine import Engine
from repro.engine.plan import compile_plan
from repro.generators.families import book_query, clique_query, cycle_query
from repro.generators.workloads import random_database
from repro.obs import get_registry
from tests.conftest import ran_operators


@pytest.fixture()
def big_db():
    rng = random.Random(5)
    db = Database()
    for _ in range(4000):
        db.add_fact("e", rng.randrange(500), rng.randrange(500))
    for _ in range(2500):
        db.add_fact("f", rng.randrange(500), rng.randrange(500))
    return db


@pytest.fixture()
def small_db():
    db = Database()
    for i in range(20):
        db.add_fact("e", i, i + 1)
        db.add_fact("f", i + 1, i)
    return db


QUERY = "ans(X,Z) :- e(X,Y), f(Y,Z)."


def _big_layout() -> str:
    """What ``auto`` makes of ``QUERY`` over ``big_db``: a path join of
    4 000 and 2 500 rows runs several times faster in the numpy kernels
    and slower on the pure-Python buffers (19 vs 23 ms)."""
    return "columnar" if columnar_mod.kernels() == "numpy" else "row"


def _counters() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("plan.layout_row", 0),
        counters.get("plan.layout_columnar", 0),
    )


def _bags_of(engine, query, db, **kwargs) -> tuple[float, float]:
    """(row bags, columnar bags) one request materialised."""
    row, col = _counters()
    engine.execute(query, db, **kwargs)
    row_after, col_after = _counters()
    return row_after - row, col_after - col


class TestEngineLayout:
    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            Engine(layout="bogus")

    def test_default_follows_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAYOUT", "columnar")
        assert Engine().layout == "columnar"
        monkeypatch.delenv("REPRO_LAYOUT")
        assert Engine().layout == "auto"

    def test_layouts_agree(self, big_db):
        query = parse_query(QUERY)
        base = Engine(layout="row").execute(query, big_db)
        for layout in ("columnar", "auto"):
            got = Engine(layout=layout).execute(query, big_db)
            assert got.answer.rows == base.answer.rows

    def test_explain_says_what_decided_the_layout(self, big_db, small_db):
        """The header prints both predictions and names the cheaper
        layout: over ``big_db`` (4 000 / 2 500 rows) the path join is
        columnar with numpy and row on the pure-Python buffers; over
        ``small_db`` (20 rows) every kernel's fixed cost shows: row."""
        query = parse_query(QUERY)
        tag = re.compile(
            r"layout auto → (row|columnar) \(predicted row (\d+\.\d\d) ms, "
            r"columnar (\d+\.\d\d) ms\)\]$"
        )
        for db, expected in ((big_db, _big_layout()), (small_db, "row")):
            engine = Engine(layout="auto")
            header = engine.explain(query, db).splitlines()[0]
            picked, row_ms, col_ms = tag.search(header).groups()
            plan = engine.plan(query, db)
            assert picked == plan.resolved_layout == expected
            assert (row_ms, col_ms) == (
                f"{plan.predicted_row_ms:.2f}",
                f"{plan.predicted_columnar_ms:.2f}",
            )
            cheaper = plan.predicted_columnar_ms < plan.predicted_row_ms
            assert picked == ("columnar" if cheaper else "row")
        # A forced layout has nothing to explain, and no node is marked.
        text = Engine(layout="columnar").explain(query, big_db)
        assert text.splitlines()[0].endswith("layout columnar]")
        assert "[columnar]" not in text and "nodes columnar" not in text
        row_text = Engine(layout="row").explain(query, big_db)
        assert "layout" not in row_text.splitlines()[0]

    def test_forced_columnar_takes_small_plans_too(self, small_db):
        query = parse_query(QUERY)
        engine = Engine(layout="columnar")
        plan = engine.plan(query, small_db)
        assert (plan.layout, plan.resolved_layout) == ("columnar", "columnar")
        assert _bags_of(engine, query, small_db) == (0, 2)

    def test_digest_distinguishes_layouts(self, big_db):
        query = parse_query(QUERY)
        digests = {
            layout: Engine(layout=layout).plan(query, big_db).digest()
            for layout in LAYOUTS
        }
        assert digests["row"] != digests["columnar"]
        # The digest names the physical plan: ``auto`` ran one of the two.
        assert digests["auto"] == digests[_big_layout()]

    def test_layout_counters_recorded(self, big_db):
        query = parse_query(QUERY)
        assert _bags_of(Engine(layout="columnar"), query, big_db)[1] > 0
        assert _bags_of(Engine(layout="row"), query, big_db)[0] > 0

    def test_semiring_requests_agree_across_layouts(self, big_db):
        query = parse_query(QUERY)
        engine = Engine(layout="columnar")
        row_total = Engine(layout="row").count(query, big_db)
        assert engine.count(query, big_db) == row_total
        assert engine.plan(query, big_db).resolved_layout == "columnar"


class TestAutoResolvesOncePerPlan:
    """``auto`` prices what the plan's operators will touch, under each
    layout, and answers for the whole plan."""

    @staticmethod
    def _two_relations(n_e: int, n_f: int) -> Database:
        db = Database()
        for i in range(n_e):
            db.add_fact("e", i, i % 7)
        for i in range(n_f):
            db.add_fact("f", i % 7, i)
        return db

    def test_the_cheaper_prediction_decides(self):
        query = parse_query(QUERY)
        engine = Engine(layout="auto")
        small = self._two_relations(20, 12)
        plan = engine.plan(query, small)
        assert plan.predicted_row_ms < plan.predicted_columnar_ms
        assert (plan.layout, plan.resolved_layout) == ("auto", "row")
        assert _bags_of(engine, query, small) == (2, 0)
        # A triangle's bag joins atoms: columnar on either kernel set.
        triangle = _triangle()
        large = random_database(triangle, 500, 1000, seed=1)
        plan = engine.plan(triangle, large)
        assert plan.predicted_columnar_ms < plan.predicted_row_ms
        assert (plan.layout, plan.resolved_layout) == ("auto", "columnar")
        # Its single-atom node is laid out like the plan it is part of.
        assert len(plan.bags) == 2
        assert _bags_of(engine, triangle, large) == (0, 2)
        # A tie keeps the row layout, whose per-call overhead is lower.
        tied = dataclasses.replace(
            plan, predicted_row_ms=1.0, predicted_columnar_ms=1.0
        )
        assert tied.resolved_layout == "row"
        assert tied.predicted_ms == 1.0

    @pytest.mark.parametrize("text", [
        "ans(W,Z) :- r(W,X), s(X,Y), t(Y,Z).",  # no bag holds W and Z
        "ans(W) :- r(W,X), s(X,Y), t(Y,Z).",  # rooted at r's bag
        "ans(A) :- r(A,B), s(A,C), t(A,D).",
        "ans(Y,W) :- r(W,X), s(X,Y), t(Y,Z), u(Z,V).",
        "ans() :- r(W,X), s(X,Y), t(Y,Z).",
        "ans(A,C) :- r(A,B), s(B,C), t(C,D), u(D,A).",
    ])
    def test_the_model_prices_the_operators_the_sweep_runs(
        self, monkeypatch, text
    ):
        """The time model prices the program the interpreter runs: with
        every semijoin priced at 1 ms and every enumeration join at 1 s
        (and nothing else at all), a set request's prediction counts the
        operators its sweep then runs.  Count and min-cost requests, on
        either layout, run their plan's annotated program.  Every
        operator run is one ``sweep.*`` span and one counted operator."""
        from repro.db.yannakakis import Join, Semijoin
        from repro.engine import plan as plan_mod
        from repro.obs import Tracer, tracing

        def price(kind):
            fixed = {"semijoin": 1e3, "join": 1e6}.get(kind.rstrip("2"), 0.0)
            return fixed, 0.0

        fitted = columnar_mod.OPERATOR_COSTS[columnar_mod.kernels()]
        table = {kind: price(kind) for kind in fitted["row"]}
        monkeypatch.setattr(plan_mod, "OPERATOR_COSTS", {
            columnar_mod.kernels(): {"row": table, "columnar": table}
        })
        query = parse_query(text)
        db = random_database(
            query, 30, 60, seed=4, plant_answer=True, weights="cost"
        )
        requests = [("auto", None)] + [
            (layout, semiring)
            for layout in ("row", "columnar")
            for semiring in (COUNTING, MINCOST)
        ]
        for layout, semiring in requests:
            engine = Engine(layout=layout)
            with tracing(Tracer()) as tracer, ran_operators() as ran:
                result = engine.execute(query, db, semiring=semiring)
            plan = engine.plan(query, db, semiring=semiring)
            assert plan.reused
            program = plan.program(annotated=semiring is not None)
            assert tuple(ran) == program.ops
            semijoins = sum(type(op) is Semijoin for op in ran)
            joins = sum(type(op) is Join for op in ran)
            spans = [s.name for s in tracer.spans()]
            assert semijoins == spans.count("sweep.semijoin")
            assert semijoins == result.stats.semijoins
            assert joins == spans.count("sweep.join")
            if semiring is None:
                assert plan.predicted_row_ms == pytest.approx(
                    semijoins + 1e3 * joins
                )

    def test_a_forced_layout_is_not_priced(self, big_db):
        query = parse_query(QUERY)
        for layout in ("row", "columnar"):
            engine = Engine(layout=layout)
            plan = engine.plan(query, big_db)
            assert plan.resolved_layout == layout
            assert plan.predicted_row_ms is plan.predicted_columnar_ms is None
            assert plan.predicted_ms is None
            analyzed = engine.explain(query, big_db, analyze=True)
            assert "predicted" not in analyzed
            assert re.search(r"^plan execute \d+\.\d{3}ms$", analyzed, re.M)

    def test_a_weighted_plan_is_laid_out_by_its_largest_input(self):
        """A count request (values on a weight column, numpy loaded) is
        not priced: ``auto`` compares the largest relation its pipelines
        touch with ``WEIGHTED_MIN_ROWS``, and the header says so."""
        query = parse_query(QUERY)
        engine = Engine(layout="auto")
        floor = columnar_mod.WEIGHTED_MIN_ROWS
        for n_e, expected in ((floor - 1, "row"), (floor, "columnar")):
            db = self._two_relations(n_e, 12)
            plan = engine.plan(query, db, semiring=COUNTING)
            header = engine.explain(query, db, semiring=COUNTING)
            if not columnar_mod.rides_buffers(COUNTING):
                # The pure-Python buffers hold no weight column: row plan.
                assert (plan.layout, plan.weighted) == ("row", False)
                assert "layout" not in header.splitlines()[0]
                continue
            assert plan.weighted and plan.largest_input == n_e
            assert plan.predicted_row_ms is None
            assert (plan.layout, plan.resolved_layout) == ("auto", expected)
            sign = "≥" if expected == "columnar" else "<"
            assert (
                f"layout auto → {expected} (weight column, largest pipeline "
                f"input ≈ {n_e} rows {sign} {floor})]"
            ) in header
            # The 12-row relation is laid out like the plan it is part of.
            bags = _bags_of(engine, query, db, semiring=COUNTING)
            assert bags == ((2, 0) if expected == "row" else (0, 2))

    @pytest.mark.skipif(
        not columnar_mod.rides_buffers(COUNTING),
        reason="a weighted plan needs numpy's weight column",
    )
    def test_a_weighted_plan_with_a_bag_of_no_parts(self):
        """An empty-χ unit leaf has no parts: the largest input is taken
        over its estimate too, so the weighted ``auto`` plan compiles
        and answers."""
        from repro.core.hypertree import HTNode, HypertreeDecomposition
        from repro.engine.plan import execute_plan

        query = parse_query("ans(X) :- e(X,Y), e(Y,Z).")
        root = HTNode(query.variables, query.atoms, (HTNode((), ()),))
        hd = HypertreeDecomposition(query, root)
        db = random_database(query, 5, 10, seed=0)
        plan = compile_plan(query, db, hd, layout="auto", semiring=COUNTING)
        assert plan.weighted and any(not bag.parts for bag in plan.bags)
        assert plan.largest_input == max(
            est for bag in plan.bags
            for est in (bag.est, *(part.est for part in bag.parts))
        )
        assert plan.resolved_layout == "row"  # 10 rows
        answer = execute_plan(plan, db, semiring=COUNTING)
        expected = naive_annotated_eval(query, db, COUNTING)
        assert dict(answer.annotations) == dict(expected.annotations)

    def test_a_bag_that_joins_atoms_is_priced_by_its_joins(self):
        """``book_2`` at the end-to-end benchmark's size: every relation
        is under 256 rows and both pages estimate to a handful, yet the
        page bags join two atoms and filter by a third on two variables
        — priced by those joins, the plan is columnar."""
        query = book_query(2)
        db = random_database(query, 107, 215, seed=1)
        engine = Engine(layout="auto")
        plan = engine.plan(query, db)
        joined = [bag for bag in plan.bags if len(bag.parts) > 1]
        assert joined and all(bag.est < 32 for bag in joined)
        assert max(
            part.est for bag in plan.bags for part in bag.parts
        ) < 256
        assert plan.resolved_layout == "columnar"
        assert _bags_of(engine, query, db) == (0, len(plan.bags))

    @pytest.mark.parametrize("tuples", [40, 300])
    @pytest.mark.parametrize("semiring", [None, "count", "mincost"])
    def test_a_plan_never_mixes_carriers(self, tuples, semiring):
        engine = Engine(layout="auto")
        for query in (cycle_query(5), book_query(2), clique_query(4)):
            db = random_database(
                query, max(4, tuples // 2), tuples, seed=3,
                weights="cost" if semiring == "mincost" else None,
            )
            row, col = _bags_of(engine, query, db, semiring=semiring)
            assert row + col == len(engine.plan(query, db).bags)
            assert not (row and col), (query.name, row, col)

    def test_compile_span_carries_both_predictions(self, big_db):
        from repro.obs import Tracer, tracing

        tracer = Tracer()
        engine = Engine(layout="auto")
        with tracing(tracer):
            engine.execute(parse_query(QUERY), big_db)
        (compiled,) = [s for s in tracer.spans() if s.name == "plan.compile"]
        plan = engine.plan(parse_query(QUERY), big_db)
        assert compiled.attrs["layout"] == "auto"
        assert "layout_rows" not in compiled.attrs
        assert compiled.attrs["predicted_row_ms"] == round(
            plan.predicted_row_ms, 4
        )
        assert compiled.attrs["predicted_columnar_ms"] == round(
            plan.predicted_columnar_ms, 4
        )
        columnar = _big_layout() == "columnar"
        assert compiled.attrs["nodes"] == 2
        assert compiled.attrs["columnar"] == (2 if columnar else 0)
        bags = [s for s in tracer.spans() if s.name == "plan.bag"]
        assert {s.attrs["layout"] for s in bags} == {_big_layout()}

    @pytest.mark.parametrize("tuples", [60, 250, 1000])
    @pytest.mark.parametrize("shape", ["path3", "star3", "path4"])
    def test_without_numpy_acyclic_plans_stay_row(
        self, monkeypatch, shape, tuples
    ):
        """On the pure-Python buffers an acyclic plan loses up to ≈ 1 000
        rows per relation and further (the crossover sweep's acyclic
        cells run 0.6-0.85x columnar there), so ``auto`` keeps it row —
        under the pure-Python table, whatever the numpy table says."""
        query = parse_query(CROSSOVER_SHAPES[shape], name=shape)
        db = random_database(query, max(4, tuples // 2), tuples, seed=2)
        monkeypatch.setattr(columnar_mod, "_np", None)
        plan = Engine(layout="auto").plan(query, db)
        assert plan.resolved_layout == "row"


#: The acyclic request shapes of ``benchmarks/bench_columnar.py``'s
#: crossover sweep.
CROSSOVER_SHAPES = {
    "path3": "ans(A,D) :- r(A,B), s(B,C), t(C,D).",
    "star3": "ans(A) :- r(A,B), s(A,C), t(A,D).",
    "path4": "ans(A,E) :- r(A,B), s(B,C), t(C,D), u(D,E).",
}


def _triangle():
    return parse_query("ans(A,B) :- r(A,B), s(B,C), t(C,A).")


def _headed(query, k: int = 2):
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


SHAPES = {
    "cycle_4": lambda: _headed(cycle_query(4)),
    "cycle_5": lambda: _headed(cycle_query(5)),
    "cycle_6": lambda: _headed(cycle_query(6)),
    "book_2": lambda: _headed(book_query(2)),
    "triangle": _triangle,
    "clique_4": lambda: _headed(clique_query(4)),
}


class TestLayoutsAgainstTheNaiveEvaluator:
    """Every shape whose bags join several atoms × every layout × set,
    counting and min-cost semantics, at sizes where ``auto`` picks row,
    where it picks columnar, and between (120 tuples, where a largest
    input still far under 256 rows no longer decides): the answers are
    ``db/naive.py``'s.  The same matrix runs once more on the
    pure-Python kernels, numpy switched off (the CI legs without numpy
    run all of it there)."""

    @pytest.fixture(scope="class")
    def engines(self):
        built = {layout: Engine(layout=layout) for layout in LAYOUTS}
        yield built
        for engine in built.values():
            engine.close()

    @pytest.mark.parametrize("tuples", [30, 120, 300])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_differential(self, engines, shape, tuples):
        self._check(engines, shape, tuples)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_differential_without_numpy(self, monkeypatch, shape):
        monkeypatch.setattr(columnar_mod, "_np", None)
        engines = {layout: Engine(layout=layout) for layout in LAYOUTS}
        self._check(engines, shape, 120)

    @staticmethod
    def _check(engines, shape, tuples):
        query = SHAPES[shape]()
        db = random_database(
            query, max(4, tuples // 2), tuples, seed=11,
            plant_answer=True, weights="cost",
        )
        expected_rows = naive_join_eval(query, db).rows
        expected = {
            "count": naive_annotated_eval(query, db, COUNTING).annotations,
            "mincost": naive_annotated_eval(query, db, MINCOST).annotations,
        }
        for layout, engine in engines.items():
            assert engine.execute(query, db).answer.rows == expected_rows
            counted = engine.execute(query, db, semiring="count")
            assert counted.annotations == expected["count"], layout
            cheapest = engine.execute(query, db, semiring="mincost")
            assert set(cheapest.annotations) == set(expected["mincost"])
            for row, (cost, _) in cheapest.annotations.items():
                assert cost == pytest.approx(expected["mincost"][row][0])


class TestCompilePlanLayout:
    def test_compile_plan_validates_layout(self, small_db):
        from repro.heuristics.portfolio import decompose

        query = parse_query(QUERY)
        hd = decompose(query).decomposition
        with pytest.raises(ValueError, match="layout"):
            compile_plan(query, small_db, hd, layout="wide")

    def test_compile_plan_defaults_to_row(self, small_db):
        from repro.heuristics.portfolio import decompose

        query = parse_query(QUERY)
        hd = decompose(query).decomposition
        plan = compile_plan(query, small_db, hd)
        assert (plan.layout, plan.resolved_layout) == ("row", "row")
