"""Tests for treewidth (exact DP + heuristics) and derived graphs (§6)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.paper_queries import qn
from repro.graphs.primal import (
    connected_components,
    graph_from_edges,
    is_clique,
    primal_graph,
    subgraph,
    variable_atom_incidence_graph,
)
from repro.graphs.treewidth import (
    _subset_dp,
    degeneracy_lower_bound,
    exact_treewidth,
    greedy_order,
    treewidth,
    treewidth_upper_bound,
    triangulated_clique_number,
    width_of_order,
)


def _cycle(n):
    return graph_from_edges([(i, (i + 1) % n) for i in range(n)])


def _clique(n):
    return graph_from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


def _grid(n):
    edges = []
    for x in range(n):
        for y in range(n):
            if x + 1 < n:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < n:
                edges.append(((x, y), (x, y + 1)))
    return graph_from_edges(edges)


class TestKnownValues:
    def test_empty_graph(self):
        assert exact_treewidth({}) == 0

    def test_single_vertex(self):
        assert exact_treewidth({1: set()}) == 0

    def test_tree_has_treewidth_1(self):
        g = graph_from_edges([(1, 2), (2, 3), (2, 4), (4, 5)])
        assert exact_treewidth(g) == 1

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_cycle_treewidth_2(self, n):
        assert exact_treewidth(_cycle(n)) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_clique_treewidth_n_minus_1(self, n):
        assert exact_treewidth(_clique(n)) == n - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_grid_treewidth_n(self, n):
        assert exact_treewidth(_grid(n)) == n

    def test_disconnected_takes_max(self):
        g = graph_from_edges([(1, 2), (3, 4), (4, 5), (5, 3)])
        assert exact_treewidth(g) == 2

    def test_too_large_raises(self):
        with pytest.raises(ValueError):
            exact_treewidth(_clique(8), max_vertices=5)


class TestHeuristics:
    def test_order_covers_all_vertices(self):
        g = _grid(3)
        for heuristic in ("min_fill", "min_degree"):
            order = greedy_order(g, heuristic)
            assert sorted(order, key=repr) == sorted(g, key=repr)

    def test_width_of_order_upper_bounds_exact(self):
        g = _grid(3)
        for heuristic in ("min_fill", "min_degree"):
            assert width_of_order(g, greedy_order(g, heuristic)) >= exact_treewidth(g)

    def test_min_fill_optimal_on_cycle(self):
        g = _cycle(7)
        assert width_of_order(g, greedy_order(g, "min_fill")) == 2

    def test_triangulated_clique_number_is_width_plus_1(self):
        g = _cycle(6)
        assert triangulated_clique_number(g) == 3

    def test_treewidth_dispatcher_large_graph(self):
        g = _cycle(30)  # beyond the exact limit
        assert treewidth(g, exact_limit=10) >= 2


class TestBracketFirst:
    """``exact_treewidth`` answers from its bounds when they meet and
    runs the subset DP otherwise; the unbounded DP is the oracle."""

    def test_an_open_bracket_runs_the_dp(self):
        g = _grid(3)
        assert degeneracy_lower_bound(g) < treewidth_upper_bound(g)
        assert exact_treewidth(g) == _subset_dp(g) == 3

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=5_000),
        p=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_equals_the_unbounded_dp(self, n, seed, p):
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = graph_from_edges(edges, range(n))
        assert exact_treewidth(g) == _subset_dp(g)


class TestBoundsSandwich:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=5_000),
        p=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_lower_exact_upper(self, n, seed, p):
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = graph_from_edges(edges, range(n))
        tw = exact_treewidth(g)
        assert degeneracy_lower_bound(g) <= tw <= treewidth_upper_bound(g)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    def test_matches_networkx_sandwich(self, n, seed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        g = graph_from_edges(edges, range(n))
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        ub, _ = nx.algorithms.approximation.treewidth_min_fill_in(G)
        assert exact_treewidth(g) <= ub


class TestDerivedGraphs:
    def test_primal_graph_of_qn(self):
        q = qn(3)
        g = primal_graph(q)
        # X1..X3 form a clique; each Yi attaches to all X's.
        assert is_clique(g, ["X1", "X2", "X3"])
        assert g["Y1"] == {"X1", "X2", "X3"}

    def test_vaig_bipartite(self):
        q = qn(2)
        g = variable_atom_incidence_graph(q)
        for node, nbrs in g.items():
            kind = node[0]
            assert all(other[0] != kind for other in nbrs)

    def test_vaig_treewidth_qn(self):
        """Theorem 6.2: tw(VAIG(Qn)) = n."""
        for n in (2, 3, 4):
            assert exact_treewidth(variable_atom_incidence_graph(qn(n))) == n

    def test_connected_components(self):
        g = graph_from_edges([(1, 2)], vertices=[3])
        assert len(connected_components(g)) == 2

    def test_subgraph(self):
        g = graph_from_edges([(1, 2), (2, 3)])
        sg = subgraph(g, [1, 2])
        assert sg == {1: {2}, 2: {1}}
