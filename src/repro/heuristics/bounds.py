"""Fast width bounds bracketing the exact ``k``-decomp search.

Upper bounds come from the ordering pipeline of
:mod:`repro.heuristics.ordering_decomp`: each portfolio ordering yields a
checker-valid GHTD whose width upper-bounds the *generalized*
hypertree-width ``ghw(Q)`` (and is typically a good starting guess for
``hw(Q)`` too, since ``ghw ≤ hw ≤ 3·ghw + 1``).

Lower bounds on ``hw(Q)`` (all trivial-but-sound, per the paper's
structure theory):

* ``hw ≥ 1`` always, and ``hw ≥ 2`` iff the query is cyclic
  (Theorem 4.5: acyclicity ⟺ hw = 1);
* any decomposition of width ``w`` over atoms of arity ≤ ``r`` induces a
  tree decomposition of the primal graph with bags ``χ(p) ⊆ var(λ(p))``
  of size ≤ ``w·r``, hence ``tw(G(Q)) + 1 ≤ w·r`` and
  ``hw ≥ ⌈(tw_lb + 1) / r⌉`` for any treewidth lower bound ``tw_lb`` —
  we use the degeneracy (max-min-degree) bound of
  :func:`repro.graphs.treewidth.degeneracy_lower_bound`.

Both bounds also hold for ``ghw``, so the pair ``(lower, upper)``
brackets the achievable width of *any* decomposition this library can
produce, which is exactly what the portfolio needs to prune the exact
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.acyclicity import is_acyclic
from ..core.hypertree import HypertreeDecomposition
from ..core.query import ConjunctiveQuery
from ..graphs.primal import Graph, primal_graph
from ..graphs.treewidth import degeneracy_lower_bound
from .ordering_decomp import CoverTable, ghtd_from_ordering
from .orderings import ORDERING_METHODS, elimination_ordering


@dataclass(frozen=True)
class UpperBound:
    """A witnessed width upper bound: the decomposition *is* the proof.

    ``order`` is the elimination ordering that produced it, so downstream
    consumers (the local search) can start from it without recomputing;
    ``orderings`` counts the portfolio orderings built to find it.
    """

    width: int
    method: str
    decomposition: HypertreeDecomposition
    order: tuple
    orderings: int


def greedy_upper_bound(
    query: ConjunctiveQuery,
    methods: tuple[str, ...] = ORDERING_METHODS,
    graph: Graph | None = None,
    table: CoverTable | None = None,
    lower: int = 0,
) -> UpperBound:
    """The best ordering-heuristic GHTD over the portfolio *methods*.

    *lower* is a sound lower bound on the width, if the caller has one:
    the portfolio stops at the first ordering that meets it.  No later
    ordering could be strictly narrower, so the winner is the one the
    full scan returns.
    """
    if not query.atoms:
        raise ValueError("cannot bound the width of an empty query")
    if graph is None:
        graph = primal_graph(query)
    if table is None:
        table = CoverTable(query.atoms)
    best: tuple[HypertreeDecomposition, str, list] | None = None
    for built, method in enumerate(methods, 1):
        order = elimination_ordering(graph, method)
        hd = ghtd_from_ordering(query, order=order, graph=graph, table=table)
        if best is None or hd.width < best[0].width:
            best = hd, method, order
            if hd.width <= lower:
                break
    assert best is not None
    hd, method, order = best
    return UpperBound(hd.width, method, hd, tuple(order), built)


def acyclicity_lower_bound(query: ConjunctiveQuery) -> int:
    """1 for acyclic queries, 2 otherwise (Theorem 4.5)."""
    return 1 if is_acyclic(query) else 2


def degree_lower_bound(
    query: ConjunctiveQuery, graph: Graph | None = None
) -> int:
    """``⌈(degeneracy(G(Q)) + 1) / max-arity⌉`` — the treewidth-transfer
    bound described in the module docstring.  *graph* is the query's
    primal graph, when the caller already holds it."""
    if not query.atoms:
        return 0
    max_vars = max(len(a.variables) for a in query.atoms)
    if max_vars == 0:
        return 1
    if graph is None:
        graph = primal_graph(query)
    degeneracy = degeneracy_lower_bound(graph)
    return max(1, math.ceil((degeneracy + 1) / max_vars))


def lower_bound(query: ConjunctiveQuery, graph: Graph | None = None) -> int:
    """The best trivial lower bound on ``hw(Q)`` (and on ``ghw(Q)``)."""
    if not query.atoms:
        return 0
    return max(
        acyclicity_lower_bound(query), degree_lower_bound(query, graph)
    )
