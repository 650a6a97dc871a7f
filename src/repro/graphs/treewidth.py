"""Treewidth: exact subset dynamic programming plus classic heuristics.

The paper compares hypertree-width against the treewidth of the query's
primal graph and of its variable-atom incidence graph (§6, Theorem 6.2).
We implement treewidth from scratch:

* :func:`exact_treewidth` — bracket first: a component whose degeneracy
  lower bound meets its min-fill / min-degree upper bound has that
  treewidth, and only the others run the
  Bodlaender–Fomin–Koster–Kratsch–Thilikos subset DP over elimination
  prefixes: for a prefix set ``S`` already eliminated,
  ``tw(S) = min_{v∈S} max(tw(S−v), q(S−v, v))`` where ``q(S', v)``
  counts the vertices outside ``S' ∪ {v}`` reachable from ``v`` through
  ``S'`` (the degree of ``v`` at its elimination point).  Exponential in
  ``|V|``; guarded to ≤ 22 vertices.
* :func:`greedy_order` / :func:`width_of_order` — min-fill and min-degree
  elimination heuristics giving upper bounds (and the triangulations used
  by the tree-clustering baseline in :mod:`repro.csp.methods`).
* :func:`degeneracy_lower_bound` — the maximum-minimum-degree bound.

All functions treat each connected component independently where valid.
"""

from __future__ import annotations

from typing import Hashable, Literal, Sequence

from .primal import Graph, connected_components, subgraph

HeuristicName = Literal["min_fill", "min_degree"]


def _index_graph(graph: Graph) -> tuple[list[Hashable], list[int]]:
    """Vertices in fixed order plus bitmask adjacency."""
    vertices = sorted(graph, key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    masks = [0] * len(vertices)
    for v, nbrs in graph.items():
        for w in nbrs:
            masks[index[v]] |= 1 << index[w]
    return vertices, masks


def _reachable_through(
    masks: list[int], n: int, eliminated: int, v: int
) -> int:
    """Bitmask of vertices outside ``eliminated ∪ {v}`` reachable from *v*
    via paths whose interior lies in *eliminated* (``q(S', v)``)."""
    seen = 1 << v
    frontier = masks[v] & ~seen
    result = 0
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        if seen & bit:
            continue
        seen |= bit
        i = bit.bit_length() - 1
        if eliminated >> i & 1:
            frontier |= masks[i] & ~seen
        else:
            result |= bit
    return result


def exact_treewidth(graph: Graph, max_vertices: int = 22) -> int:
    """Exact treewidth; every component has ≤ *max_vertices* vertices.

    The treewidth of a graph is the maximum over its connected components,
    each solved independently: by its bounds when they meet, else by the
    subset DP (O(2ⁿ·n²·poly)).
    """
    if not graph:
        return 0
    best = 0
    for comp in connected_components(graph):
        best = max(best, _exact_component(subgraph(graph, comp), max_vertices))
    return best


def _exact_component(graph: Graph, max_vertices: int) -> int:
    n = len(graph)
    if n > max_vertices:
        raise ValueError(
            f"exact treewidth limited to {max_vertices} vertices "
            f"(got {n}); use greedy_order for an upper bound"
        )
    upper = treewidth_upper_bound(graph)
    if degeneracy_lower_bound(graph) == upper:  # a closed bracket
        return upper
    return _subset_dp(graph)


def _subset_dp(graph: Graph) -> int:
    """The subset DP over elimination prefixes, unbounded: the treewidth
    of *graph* with no help from its bounds."""
    n = len(graph)
    if n <= 1:
        return 0
    _, masks = _index_graph(graph)
    full = (1 << n) - 1

    # dp[S] = best achievable "max elimination degree" when eliminating the
    # vertices of S first (in some internal order).
    dp = {0: 0}
    for popcount in range(1, n + 1):
        next_dp: dict[int, int] = {}
        for s, width in dp.items():
            remaining = full & ~s
            bits = remaining
            while bits:
                bit = bits & -bits
                bits ^= bit
                v = bit.bit_length() - 1
                degree = bin(_reachable_through(masks, n, s, v)).count("1")
                new_width = max(width, degree)
                t = s | bit
                old = next_dp.get(t)
                if old is None or new_width < old:
                    next_dp[t] = new_width
        dp = next_dp
        # Prune dominated states lazily: keep as-is (states already minimal
        # per subset by the min() above).
    return dp[full]


def eliminate_vertex(
    work: dict[Hashable, set[Hashable]], v: Hashable
) -> list[Hashable]:
    """Eliminate *v* from the working adjacency *work* in place: turn its
    neighbourhood into a clique (fill), then remove *v*.  Returns the
    neighbours of *v* at elimination time (its elimination bag minus *v*).

    Shared by the greedy treewidth heuristics here and the ordering→bag
    pipeline of :mod:`repro.heuristics.ordering_decomp`.
    """
    nbrs = list(work[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            work[a].add(b)
            work[b].add(a)
    for a in nbrs:
        work[a].discard(v)
    del work[v]
    return nbrs


def greedy_order(
    graph: Graph, heuristic: HeuristicName = "min_fill"
) -> list[Hashable]:
    """A full elimination order by the min-fill or min-degree heuristic."""
    work: dict[Hashable, set[Hashable]] = {
        v: set(nbrs) for v, nbrs in graph.items()
    }
    order: list[Hashable] = []
    while work:
        if heuristic == "min_degree":
            chosen = min(work, key=lambda v: (len(work[v]), repr(v)))
        elif heuristic == "min_fill":

            def fill(v: Hashable) -> int:
                nbrs = list(work[v])
                missing = 0
                for i, a in enumerate(nbrs):
                    for b in nbrs[i + 1 :]:
                        if b not in work[a]:
                            missing += 1
                return missing

            chosen = min(work, key=lambda v: (fill(v), len(work[v]), repr(v)))
        else:  # pragma: no cover - guarded by Literal type
            raise ValueError(f"unknown heuristic {heuristic!r}")
        eliminate_vertex(work, chosen)
        order.append(chosen)
    return order


def width_of_order(graph: Graph, order: Sequence[Hashable]) -> int:
    """The width of an elimination order (an upper bound on treewidth)."""
    work: dict[Hashable, set[Hashable]] = {
        v: set(nbrs) for v, nbrs in graph.items()
    }
    width = 0
    for v in order:
        width = max(width, len(eliminate_vertex(work, v)))
    return width


def treewidth_upper_bound(graph: Graph) -> int:
    """Best of the min-fill and min-degree heuristic widths."""
    if not graph:
        return 0
    return min(
        width_of_order(graph, greedy_order(graph, "min_fill")),
        width_of_order(graph, greedy_order(graph, "min_degree")),
    )


def degeneracy_lower_bound(graph: Graph) -> int:
    """Maximum-minimum-degree (degeneracy) lower bound on treewidth."""
    work: dict[Hashable, set[Hashable]] = {
        v: set(nbrs) for v, nbrs in graph.items()
    }
    best = 0
    while work:
        v = min(work, key=lambda u: (len(work[u]), repr(u)))
        best = max(best, len(work[v]))
        for a in work[v]:
            work[a].discard(v)
        del work[v]
    return best


def treewidth(graph: Graph, exact_limit: int = 18) -> int:
    """Treewidth — exact when every component is small enough, otherwise
    the best heuristic upper bound (flagged by comparing with
    :func:`degeneracy_lower_bound` in callers that need certainty)."""
    if not graph:
        return 0
    total = 0
    for comp in connected_components(graph):
        sub = subgraph(graph, comp)
        if len(sub) <= exact_limit:
            total = max(total, _exact_component(sub, exact_limit))
        else:
            total = max(total, treewidth_upper_bound(sub))
    return total


def triangulated_clique_number(graph: Graph) -> int:
    """Max clique size of the min-fill triangulation = tree-clustering
    width (Dechter–Pearl [12]); equals heuristic width + 1."""
    if not graph:
        return 0
    return width_of_order(graph, greedy_order(graph, "min_fill")) + 1
