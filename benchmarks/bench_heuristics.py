"""Heuristic decomposition subsystem benchmarks.

Times the polynomial ordering pipeline against the exponential exact
search on growing families — the scaling argument for the portfolio: the
heuristic keeps sub-second latency on instances where ``k-decomp`` blows
up, while matching its width on the paper corpus.
"""

import pytest

from repro.core.detkdecomp import hypertree_width
from repro.generators.families import (
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
)
from repro.generators.paper_queries import q5
from repro.heuristics import (
    decompose,
    ghtd_from_ordering,
    greedy_upper_bound,
    is_valid_ghtd,
)
from repro.obs import get_registry


@pytest.mark.parametrize("n", [10, 30, 60])
def test_heuristic_cycles(benchmark, n):
    q = cycle_query(n)
    ub = benchmark(greedy_upper_bound, q)
    assert ub.width == 2
    benchmark.extra_info["atoms"] = n
    benchmark.extra_info["width"] = ub.width


@pytest.mark.parametrize("n", [4, 6, 8])
def test_heuristic_grids(benchmark, n):
    q = grid_query(n)
    ub = benchmark(greedy_upper_bound, q)
    assert is_valid_ghtd(ub.decomposition)
    benchmark.extra_info["atoms"] = len(q.atoms)
    benchmark.extra_info["width"] = ub.width


@pytest.mark.parametrize("n", [6, 10])
def test_heuristic_cliques(benchmark, n):
    q = clique_query(n)
    ub = benchmark(greedy_upper_bound, q)
    assert is_valid_ghtd(ub.decomposition)
    benchmark.extra_info["width"] = ub.width


def test_heuristic_hyperwheel(benchmark):
    q = hyperwheel_query(8, 5)
    ub = benchmark(greedy_upper_bound, q)
    assert ub.width <= 3
    benchmark.extra_info["width"] = ub.width


def test_single_ordering_q5(benchmark):
    q = q5()
    hd = benchmark(ghtd_from_ordering, q)
    assert hd.width == 2


def test_portfolio_auto_q5(benchmark):
    """The full auto portfolio on the paper's running example: heuristic
    bracket plus the (here tiny) exact confirmation."""
    q = q5()
    result = benchmark(decompose, q, mode="auto")
    assert result.width == 2 and result.optimal


def test_portfolio_closed_bracket_cycle60(benchmark):
    """A closed bracket is not searched: the greedy width of a long cycle
    meets the lower bound, so the local search runs no round.  The gate is
    that count, not a time."""
    q = cycle_query(60)
    rounds = get_registry().counter("decompose.improve_rounds")
    before = rounds.value
    result = benchmark(decompose, q, mode="auto")
    assert result.width == 2 and result.optimal
    assert rounds.value == before
    benchmark.extra_info["atoms"] = 60


def test_exact_vs_heuristic_cycle12(benchmark):
    """Headline comparison: exact time recorded alongside the heuristic
    benchmark so the JSON shows the gap on one mid-size instance."""
    import time

    q = cycle_query(12)
    started = time.monotonic()
    exact_width, _ = hypertree_width(q)
    exact_seconds = time.monotonic() - started
    result = benchmark(decompose, q, mode="heuristic")
    assert result.width == exact_width == 2
    benchmark.extra_info["exact_seconds"] = round(exact_seconds, 4)
