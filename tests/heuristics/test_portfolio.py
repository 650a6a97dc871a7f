"""Acceptance tests for the portfolio ``decompose()`` facade.

These encode the subsystem's contract:

* ``mode="heuristic"`` returns a checker-valid decomposition for every
  generator family and every paper query;
* on the paper queries the heuristic width is within +1 of the exact
  hypertree-width;
* ``mode="auto"`` never returns a worse width than ``mode="exact"`` when
  the exact search completes within budget;
* an exhausted budget degrades gracefully (``auto``) or raises cleanly
  (``exact``);
* the heuristic modes are bracket-driven: nothing is searched below the
  lower bound, and the searches skipped could not have won.
"""

import sys

import pytest

from repro._errors import BudgetExceeded
from repro.core.detkdecomp import hypertree_width
from repro.core.hypergraph import query_hypergraph
from repro.core.query import ConjunctiveQuery
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    path_query,
    random_query,
)
from repro.generators.paper_queries import all_named_queries, qn
from repro.heuristics import (
    MODES,
    check_decomposition,
    decompose,
    greedy_upper_bound,
    improve_ordering,
    lower_bound,
)
from repro.obs import Tracer, get_registry, tracing

FAMILY_CORPUS = [
    cycle_query(4),
    cycle_query(8),
    path_query(6),
    clique_query(4),
    clique_query(6),
    grid_query(3),
    hyperwheel_query(4, 4),
    hyperwheel_query(6, 5),
    book_query(3),
    book_query(6),
    qn(3),
    qn(6),
    random_query(6, 7, 3, seed=21),
    random_query(8, 9, 3, seed=22),
    random_query(5, 6, 4, seed=23, connected=False),
]


class TestHeuristicMode:
    @pytest.mark.parametrize("query", FAMILY_CORPUS, ids=lambda q: q.name)
    def test_families_validate(self, query):
        result = decompose(query, mode="heuristic")
        assert check_decomposition(result.decomposition) == []
        assert result.width == result.decomposition.width
        assert result.lower <= result.width

    def test_paper_queries_validate_and_close(self, paper_corpus):
        for name, q in paper_corpus.items():
            result = decompose(q, mode="heuristic")
            assert check_decomposition(result.decomposition) == [], name
            hw, _ = hypertree_width(q)
            assert result.width <= hw + 1, (name, result.width, hw)

    def test_result_renders(self, query_q5):
        result = decompose(query_q5, mode="heuristic")
        assert "width" in str(result)
        assert result.decomposition.render()


class TestExactMode:
    def test_matches_hypertree_width(self, paper_corpus):
        for name, q in paper_corpus.items():
            result = decompose(q, mode="exact")
            hw, _ = hypertree_width(q)
            assert result.width == hw, name
            assert result.optimal
            assert check_decomposition(result.decomposition) == []


class TestAutoMode:
    def test_never_worse_than_exact(self, paper_corpus):
        corpus = dict(paper_corpus)
        corpus["cycle_7"] = cycle_query(7)
        corpus["clique_5"] = clique_query(5)
        corpus["grid_3"] = grid_query(3)
        for seed in range(6):
            q = random_query(6, 7, 3, seed=400 + seed)
            corpus[q.name] = q
        for name, q in corpus.items():
            exact = decompose(q, mode="exact")
            auto = decompose(q, mode="auto")
            assert auto.width <= exact.width, name
            assert check_decomposition(auto.decomposition) == [], name

    def test_closed_bracket_skips_exact(self, query_q1):
        """Q1 is cyclic (lb=2) with heuristic width 2: the bracket closes
        and the heuristic result is optimal without any exact search."""
        result = decompose(query_q1, mode="auto")
        assert result.optimal
        assert result.width == 2
        assert result.method.startswith("heuristic")

    def test_budget_fallback(self):
        q = grid_query(5)  # far beyond the exact search at this budget
        result = decompose(q, mode="auto", budget=0.2)
        assert not result.optimal
        assert "budget fallback" in result.method
        assert check_decomposition(result.decomposition) == []
        assert result.lower <= result.width


class TestBudgetsAndErrors:
    def test_exact_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            decompose(grid_query(5), mode="exact", budget=0.2)

    def test_unknown_mode_rejected(self, query_q1):
        with pytest.raises(ValueError, match="unknown mode"):
            decompose(query_q1, mode="bogus")

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            decompose(ConjunctiveQuery((), ()), mode="heuristic")

    def test_modes_constant(self):
        assert set(MODES) == {"exact", "heuristic", "auto"}


class TestHypergraphInput:
    def test_hypergraph_is_bridged(self, query_q5):
        h = query_hypergraph(query_q5)
        result = decompose(h, mode="heuristic")
        assert check_decomposition(result.decomposition) == []
        assert result.width == 2

    def test_hypergraph_auto_matches_query_width(self, query_q1):
        h = query_hypergraph(query_q1)
        assert decompose(h, mode="auto").width == decompose(
            query_q1, mode="auto"
        ).width


# The e2e benchmark's cold shapes whose greedy width meets the lower bound.
CLOSED_BRACKET = (
    [cycle_query(n) for n in range(4, 17)]
    + [book_query(pages) for pages in (2, 3, 4, 5)]
    + [clique_query(4), clique_query(5)]
    + [hyperwheel_query(n, a) for n, a in ((4, 3), (5, 4), (6, 4), (8, 3))]
    + [all_named_queries()[f"Q{i}"] for i in range(1, 6)]
)

# Greedy width 3 over lower bound 2, and the local search reaches 2
# (the first is the e2e benchmark's ``rand_14_12_109``).
LOCAL_SEARCH_WINS = [
    random_query(14, 12, seed=109),
    random_query(13, 10, seed=201),
]


def improve_rounds_counter():
    return get_registry().counter("decompose.improve_rounds")


class TestBracketFirst:
    @pytest.mark.parametrize("query", CLOSED_BRACKET, ids=lambda q: q.name)
    def test_closed_bracket_never_enters_the_local_search(
        self, query, monkeypatch
    ):
        def entered(*args, **kwargs):
            raise AssertionError("local search entered on a closed bracket")

        monkeypatch.setattr(
            "repro.heuristics.portfolio.improve_ordering", entered
        )
        full_scan = greedy_upper_bound(query)
        for mode in ("auto", "heuristic"):
            result = decompose(query, mode=mode)
            assert result.optimal and result.width == result.lower
            assert result.method == f"heuristic[{full_scan.method}]"
            assert (
                result.decomposition.render()
                == full_scan.decomposition.render()
            )

    @pytest.mark.parametrize(
        "query",
        FAMILY_CORPUS
        + [
            random_query(5 + i % 9, 5 + i % 7, 2 + i % 3, seed=500 + i)
            for i in range(50)
        ],
        ids=lambda q: q.name,
    )
    def test_skipped_search_could_not_have_won(self, query):
        """The skip is sound against the search it skips: 40 rounds from
        the greedy ordering never get below the lower bound."""
        ub = greedy_upper_bound(query)
        _, width = improve_ordering(query, ub.order, rounds=40)
        assert lower_bound(query) <= width <= ub.width

    def test_open_bracket_still_reaches_the_exact_search(self):
        before = improve_rounds_counter().value
        result = decompose(grid_query(3), mode="auto")
        assert result.method == "exact[k=2]" and result.optimal
        # The local search ran its whole cap without closing the bracket.
        assert improve_rounds_counter().value - before == 40

    @pytest.mark.parametrize(
        "query", LOCAL_SEARCH_WINS, ids=lambda q: q.name
    )
    def test_local_search_stops_at_the_round_that_reaches_lower(self, query):
        ub = greedy_upper_bound(query)
        assert (ub.width, lower_bound(query)) == (3, 2)
        before = improve_rounds_counter().value
        with tracing(Tracer()) as tracer:
            result = decompose(query, mode="auto")
        ran = int(improve_rounds_counter().value - before)
        assert result.width == 2 and result.optimal
        assert result.method == f"heuristic[{ub.method}+improve]"
        assert 0 < ran < 40
        assert improve_ordering(query, ub.order, rounds=ran - 1)[1] == 3
        assert improve_ordering(query, ub.order, rounds=ran)[1] == 2
        (span,) = tracer.find("decompose.heuristic")
        assert span.attrs["lower"] == 2 and span.attrs["rounds"] == ran
        assert span.attrs["orderings"] == 3

    @pytest.mark.parametrize(
        "query",
        [cycle_query(8), grid_query(3), LOCAL_SEARCH_WINS[0]],
        ids=lambda q: q.name,
    )
    @pytest.mark.parametrize("mode", ["auto", "heuristic"])
    def test_one_primal_graph_per_call(self, query, mode, monkeypatch):
        from repro.graphs.primal import primal_graph

        built = []

        def counting(q):
            built.append(q)
            return primal_graph(q)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.heuristics") and hasattr(
                module, "primal_graph"
            ):
                monkeypatch.setattr(module, "primal_graph", counting)
        decompose(query, mode=mode)
        assert len(built) == 1
