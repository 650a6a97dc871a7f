"""Engine / plan layout policy: row | columnar | auto.

A plan has *one* layout.  ``auto`` resolves it at compile time from the
largest relation any node's pipeline touches — a part's estimate or the
bag's — against ``COLUMNAR_MIN_ROWS``; bag materialisation then puts
every bag on that carrier and records which one each took in the
``plan.layout_*`` counters.  Annotated requests follow the same policy
when their semiring's values can ride a weight column, and compile row
plans otherwise.  Whatever the layout, the answers are the naive
evaluator's.
"""

import random

import pytest

from repro.core.parser import parse_query
from repro.db import Database
from repro.db.annotated import naive_annotated_eval
from repro.db.columnar import COLUMNAR_MIN_ROWS, LAYOUTS
from repro.db.naive import naive_join_eval
from repro.db.semiring import COUNTING, MINCOST
from repro.engine import Engine
from repro.engine.plan import compile_plan
from repro.generators.families import book_query, clique_query, cycle_query
from repro.generators.workloads import random_database
from repro.obs import get_registry


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
        query = parse_query(QUERY)
        header = Engine(layout="auto").explain(query, big_db).splitlines()[0]
        assert (
            "layout auto → columnar (largest pipeline input ≈ 3972 rows "
            f"≥ {COLUMNAR_MIN_ROWS})"
        ) in header
        header = Engine(layout="auto").explain(query, small_db).splitlines()[0]
        assert (
            "layout auto → row (largest pipeline input ≈ 20 rows "
            f"< {COLUMNAR_MIN_ROWS})"
        ) in header
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
        assert digests["auto"] == digests["columnar"]

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
    """``auto`` looks at what the pipelines read, not what they yield,
    and answers for the whole plan."""

    @staticmethod
    def _two_relations(n_e: int, n_f: int) -> Database:
        db = Database()
        for i in range(n_e):
            db.add_fact("e", i, i % 7)
        for i in range(n_f):
            db.add_fact("f", i % 7, i)
        return db

    def test_the_largest_input_decides_at_the_threshold(self):
        query = parse_query(QUERY)
        engine = Engine(layout="auto")
        under = self._two_relations(COLUMNAR_MIN_ROWS - 1, 12)
        plan = engine.plan(query, under)
        assert plan.layout_rows == COLUMNAR_MIN_ROWS - 1
        assert (plan.layout, plan.resolved_layout) == ("auto", "row")
        assert _bags_of(engine, query, under) == (2, 0)
        at = self._two_relations(COLUMNAR_MIN_ROWS, 12)
        plan = engine.plan(query, at)
        assert plan.layout_rows == COLUMNAR_MIN_ROWS
        assert (plan.layout, plan.resolved_layout) == ("auto", "columnar")
        # The 12-row relation is laid out like the plan it is part of.
        assert _bags_of(engine, query, at) == (0, 2)

    def test_a_small_bag_behind_large_inputs_is_columnar(self):
        """``book_2``: both pages estimate to a handful of rows, joined
        from relations over the threshold."""
        query = book_query(2)
        n = COLUMNAR_MIN_ROWS + 40
        db = random_database(query, n, n, seed=1)
        engine = Engine(layout="auto")
        plan = engine.plan(query, db)
        joined = [np for np in plan.node_plans if len(np.join_order) > 1]
        assert joined and all(
            np.estimated_rows < COLUMNAR_MIN_ROWS / 8 for np in joined
        )
        assert all(
            max(np.atom_estimates) >= COLUMNAR_MIN_ROWS for np in joined
        )
        assert plan.resolved_layout == "columnar"
        assert _bags_of(engine, query, db) == (0, len(plan.node_plans))

    @pytest.mark.parametrize("tuples", [40, COLUMNAR_MIN_ROWS + 40])
    @pytest.mark.parametrize("semiring", [None, "count", "mincost"])
    def test_a_plan_never_mixes_carriers(self, tuples, semiring):
        engine = Engine(layout="auto")
        for query in (cycle_query(5), book_query(2), clique_query(4)):
            db = random_database(
                query, max(4, tuples // 2), tuples, seed=3,
                weights="cost" if semiring == "mincost" else None,
            )
            row, col = _bags_of(engine, query, db, semiring=semiring)
            assert row + col == len(engine.plan(query, db).node_plans)
            assert not (row and col), (query.name, row, col)

    def test_compile_span_carries_the_deciding_estimate(self, big_db):
        from repro.obs import Tracer, tracing

        tracer = Tracer()
        with tracing(tracer):
            Engine(layout="auto").execute(
                parse_query(QUERY), big_db
            )
        (compiled,) = [s for s in tracer.spans() if s.name == "plan.compile"]
        assert compiled.attrs["layout"] == "auto"
        assert compiled.attrs["layout_rows"] == 3972
        assert compiled.attrs["columnar"] == compiled.attrs["nodes"] == 2
        bags = [s for s in tracer.spans() if s.name == "plan.bag"]
        assert {s.attrs["layout"] for s in bags} == {"columnar"}


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
    counting and min-cost semantics, below and above the ``auto``
    threshold of the numpy kernels: the answers are ``db/naive.py``'s.
    (The CI legs without numpy run the same matrix on the pure-Python
    kernels.)"""

    @pytest.fixture(scope="class")
    def engines(self):
        built = {layout: Engine(layout=layout) for layout in LAYOUTS}
        yield built
        for engine in built.values():
            engine.close()

    @pytest.mark.parametrize("tuples", [30, 300])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_differential(self, engines, shape, tuples):
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
