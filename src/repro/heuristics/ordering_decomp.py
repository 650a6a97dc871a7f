"""From a vertex elimination ordering to a generalized hypertree decomposition.

The classic two-step pipeline of practical decomposers (detkdecomp's
successors, the PACE-2019 solvers):

1. eliminating the primal-graph vertices along an ordering yields a *tree
   decomposition*: the bag of ``v`` is ``{v} ∪ N(v)`` at elimination time,
   and ``v``'s bag hangs below the bag of its earliest-eliminated remaining
   neighbour;
2. each bag χ is λ-labelled by a **greedy set cover** with query atoms,
   giving a *generalized* hypertree decomposition (GHTD) — conditions 1–3
   of Definition 4.1 hold, the descent condition 4 is deliberately not
   enforced (``ghw ≤ hw``, so these widths are still upper bounds on
   nothing less than ghw and serve as starting points for the exact
   ``k``-decomp search).

Bags that are subsets of their parent's bag are spliced away, which never
changes the width but keeps trees small.  The result is the ordinary
:class:`repro.core.hypertree.HypertreeDecomposition` type so that every
existing renderer, completion, and evaluation path applies; validity in
the GHTD sense is checked by :mod:`repro.heuristics.validate`.
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, Sequence

from .._errors import DecompositionError
from ..core.atoms import Atom, Variable
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.query import ConjunctiveQuery
from ..graphs.primal import Graph, primal_graph
from ..graphs.treewidth import eliminate_vertex
from .orderings import elimination_ordering


def bags_from_ordering(
    graph: Graph, order: Sequence[Hashable]
) -> tuple[dict[Hashable, frozenset[Hashable]], dict[Hashable, list[Hashable]], list[Hashable]]:
    """Eliminate *graph* along *order*; return ``(bags, children, roots)``.

    ``bags[v]`` is ``{v} ∪ N(v)`` at the moment ``v`` is eliminated;
    ``children`` maps each vertex to the vertices whose bags hang below it;
    ``roots`` holds one vertex per connected component (the component's
    last-eliminated vertex).  Bags contained in their parent's bag are
    spliced out, so the returned maps may cover fewer vertices than
    *order*.
    """
    if set(order) != set(graph):
        raise DecompositionError(
            "elimination ordering does not enumerate the graph's vertices"
        )
    position = {v: i for i, v in enumerate(order)}
    work: dict[Hashable, set[Hashable]] = {
        v: set(nbrs) for v, nbrs in graph.items()
    }
    bags: dict[Hashable, frozenset[Hashable]] = {}
    parent: dict[Hashable, Hashable] = {}
    roots: list[Hashable] = []
    for v in order:
        nbrs = eliminate_vertex(work, v)
        bags[v] = frozenset(nbrs) | {v}
        if nbrs:
            parent[v] = min(nbrs, key=lambda u: (position[u], repr(u)))
        else:
            roots.append(v)

    children: dict[Hashable, list[Hashable]] = {v: [] for v in bags}
    for v, p in parent.items():
        children[p].append(v)

    # Contract tree edges whose endpoint bags are comparable (width is
    # untouched; node count and rendering improve).  Elimination trees
    # produce both directions: a leaf's bag may repeat its parent's, and
    # the last vertices of a component produce shrinking root chains.
    changed = True
    while changed:
        changed = False
        for v in list(bags):
            p = parent.get(v)
            if p is None:
                continue
            if bags[v] <= bags[p]:  # v is redundant: splice it out
                children[p].remove(v)
                for c in children[v]:
                    parent[c] = p
                    children[p].append(c)
                del bags[v], children[v], parent[v]
                changed = True
            elif bags[p] <= bags[v]:  # v absorbs its parent
                grand = parent.get(p)
                children[p].remove(v)
                for c in children[p]:
                    parent[c] = v
                    children[v].append(c)
                if grand is None:
                    roots[roots.index(p)] = v
                    del parent[v]
                else:
                    children[grand].remove(p)
                    children[grand].append(v)
                    parent[v] = grand
                del bags[p], children[p]
                parent.pop(p, None)
                changed = True
    return bags, children, roots


class CoverTable:
    """A query's atoms indexed for :func:`greedy_cover`, built once.

    The atoms are sorted by rendering (stably, so atoms that render alike
    keep their body order) and each carries its variable set as a bitmask
    over the query's variable *names* — the vertices of the primal graph,
    so an elimination bag needs no translation.  Position is then the
    greedy cover's tie-break and a gain is one ``&`` and a popcount: the
    cover chosen is the one the definition gives, without re-rendering and
    re-collecting every atom at every step of every bag.
    """

    __slots__ = ("atoms", "masks", "bit")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms: list[Atom] = sorted(atoms, key=str)
        self.bit: dict[str, int] = {}
        self.masks: list[int] = []
        for a in self.atoms:
            mask = 0
            for t in a.terms:
                if isinstance(t, Variable):
                    mask |= self.bit.setdefault(t.name, 1 << len(self.bit))
            self.masks.append(mask)

    def cover(self, names: Collection[str]) -> list[Atom]:
        """The greedy cover of the variables named *names*, in the order
        its atoms were chosen."""
        bit = self.bit
        uncovered = 0
        try:
            for name in names:
                uncovered |= bit[name]
        except KeyError:
            missing = ", ".join(sorted(n for n in names if n not in bit))
            raise DecompositionError(
                f"variables {{{missing}}} are not covered by any atom"
            ) from None
        # Every bit belongs to some atom, so each step gains at least one.
        live = [(m, i) for i, m in enumerate(self.masks) if m & uncovered]
        chosen: list[Atom] = []
        while uncovered:
            best, best_gain = -1, 0
            for m, i in live:
                gain = (m & uncovered).bit_count()
                if gain > best_gain:  # strict: the earliest position wins
                    best, best_gain = i, gain
            chosen.append(self.atoms[best])
            uncovered &= ~self.masks[best]
        return chosen


def greedy_cover(
    target: Iterable[Variable], atoms: Sequence[Atom] | CoverTable
) -> frozenset[Atom]:
    """A greedy set cover of *target* by atom variable sets.

    Repeatedly picks the atom covering the most still-uncovered variables
    (ties broken by rendering, for determinism).  Raises
    :class:`DecompositionError` if some target variable occurs in no atom.
    Callers covering many targets with one query's atoms pass its
    :class:`CoverTable` as *atoms*.
    """
    table = atoms if isinstance(atoms, CoverTable) else CoverTable(atoms)
    return frozenset(table.cover([v.name for v in target]))


def _query_bags(
    query: ConjunctiveQuery,
    order: Sequence[Hashable] | None,
    method: str,
    graph: Graph | None,
) -> tuple[dict, dict, list]:
    if graph is None:
        graph = primal_graph(query)
    if order is None:
        order = elimination_ordering(graph, method)
    return bags_from_ordering(graph, order)


def ghtd_from_ordering(
    query: ConjunctiveQuery,
    order: Sequence[Hashable] | None = None,
    method: str = "min_fill",
    graph: Graph | None = None,
    table: CoverTable | None = None,
) -> HypertreeDecomposition:
    """Build a GHTD of *query* from an elimination ordering.

    *order* enumerates the primal-graph vertices (variable **names**); when
    omitted it is computed by the named ordering heuristic.  *graph* and
    *table* let callers that already hold the query's primal graph and
    :class:`CoverTable` (the bounds/improve/portfolio pipeline) avoid
    rebuilding them.  The result always satisfies GHTD conditions 1–3
    (asserted by the property tests through
    :mod:`repro.heuristics.validate`).
    """
    if not query.atoms:
        raise ValueError("cannot decompose an empty query")
    if table is None:
        table = CoverTable(query.atoms)
    variable_of = {v.name: v for v in query.variables}
    bags, children, roots = _query_bags(query, order, method, graph)

    if not bags:  # variable-free query: one trivial node
        return HypertreeDecomposition(
            query, HTNode(frozenset(), {query.atoms[0]})
        )

    # Build HTNodes bottom-up (children before parents) without recursion:
    # the elimination structure can be a long chain.
    built: dict[Hashable, HTNode] = {}
    for root in roots:
        stack: list[tuple[Hashable, bool]] = [(root, False)]
        while stack:
            v, expanded = stack.pop()
            if expanded:
                built[v] = HTNode(
                    (variable_of[name] for name in bags[v]),
                    table.cover(bags[v]),
                    (built[c] for c in children[v]),
                )
                continue
            stack.append((v, True))
            stack.extend((c, False) for c in children[v])

    root_node = built[roots[0]]
    if len(roots) > 1:
        root_node.children = root_node.children + tuple(
            built[r] for r in roots[1:]
        )
    return HypertreeDecomposition(query, root_node)


def ordering_width(
    query: ConjunctiveQuery,
    order: Sequence[Hashable],
    graph: Graph | None = None,
    table: CoverTable | None = None,
) -> int:
    """The GHTD width induced by *order* (max greedy-cover size over bags).

    Cheaper than :func:`ghtd_from_ordering` — no tree objects are built —
    and used as the objective of the :mod:`repro.heuristics.improve` local
    search (which passes *graph* and *table* to skip rebuilding the primal
    graph and the cover table every round).
    """
    if not query.atoms:
        raise ValueError("cannot decompose an empty query")
    if table is None:
        table = CoverTable(query.atoms)
    bags, _, _ = _query_bags(query, order, "min_fill", graph)
    if not bags:
        return 1
    return max(len(table.cover(bag)) for bag in bags.values())
