"""Structural fingerprints of query hypergraphs (the plan-cache key).

A hypertree decomposition depends on a query only through its hypergraph
``H(Q)`` (§2.1, Appendix A): atoms contribute their variable *sets*, and
neither variable names, predicate names, constants, nor atom order
matter.  Two queries whose hypergraphs are isomorphic can therefore share
one decomposition — the regime a plan cache exploits on repeated traffic.

:func:`fingerprint` computes a canonical key by colour refinement (1-WL)
on the variable–edge incidence structure: variables and edges exchange
colour multisets until the partition stabilises, and the key hashes the
stable colour histogram.  Isomorphic queries always collide; since 1-WL
is not a complete isomorphism test, *non*-isomorphic queries may rarely
collide too, which is why the cache certifies every hit with an explicit
isomorphism from :func:`shape_isomorphism` before transporting a plan.

:func:`shape_isomorphism` finds a variable bijection mapping one query's
edge multiset onto another's, by colour-guided backtracking over edges.
A step cap keeps pathological symmetric instances from stalling the
engine — exceeding it reports "no isomorphism found", which the cache
treats as a miss (correct, merely unamortised).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Sequence

from ..core.atoms import Variable
from ..core.query import ConjunctiveQuery

#: Backtracking-step budget for :func:`shape_isomorphism`.  Queries are
#: small (tens of atoms) and colours prune hard, so real workloads use a
#: tiny fraction of this; the cap only guards adversarial symmetry.
_ISO_STEP_LIMIT = 200_000


def _edges_of(query: ConjunctiveQuery) -> list[frozenset[Variable]]:
    """The hypergraph edge multiset: one variable set per body atom."""
    return [a.variables for a in query.atoms]


def refine_colors(
    edges: Sequence[frozenset[Variable]],
) -> tuple[dict[Variable, int], list[int]]:
    """Stable colour refinement of the variable–edge incidence structure.

    Returns ``(variable → colour, edge colours by position)``.  Colours
    are canonical class ids — isomorphic inputs receive identical colour
    multisets — assigned by ranking each round's signatures, so they are
    comparable *across* queries.
    """
    variables = sorted({v for e in edges for v in e})
    incident: dict[Variable, list[int]] = {v: [] for v in variables}
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)

    var_color = {v: 0 for v in variables}
    edge_color = [len(e) for e in edges]

    for _ in range(len(variables) + len(edges) + 1):
        edge_sig = [
            (edge_color[i], tuple(sorted(var_color[v] for v in e)))
            for i, e in enumerate(edges)
        ]
        edge_rank = {sig: r for r, sig in enumerate(sorted(set(edge_sig)))}
        new_edge_color = [edge_rank[sig] for sig in edge_sig]

        var_sig = {
            v: (var_color[v], tuple(sorted(new_edge_color[i] for i in incident[v])))
            for v in variables
        }
        var_rank = {
            sig: r for r, sig in enumerate(sorted(set(var_sig.values())))
        }
        new_var_color = {v: var_rank[var_sig[v]] for v in variables}

        stable = (
            len(set(new_edge_color)) == len(set(edge_color))
            and len(set(new_var_color.values())) == len(set(var_color.values()))
        )
        var_color, edge_color = new_var_color, new_edge_color
        if stable:
            break
    return var_color, edge_color


def fingerprint(query: ConjunctiveQuery) -> str:
    """A canonical structural key: equal for isomorphic query shapes.

    Invariant under variable renaming, predicate renaming, constant
    changes, and atom permutation.  Stable across processes (keyed
    hashing via blake2b, not Python's salted ``hash``).

    A query is immutable, so the key is computed once per query object
    and kept beside its other derived values (``variables``,
    ``predicates``): a request reads it for the cache lookup, the
    single-flight gate and the store.
    """
    derived = vars(query)
    key = derived.get("_fingerprint")
    if key is None:
        edges = _edges_of(query)
        var_color, edge_color = refine_colors(edges)
        payload = repr(
            (
                len(edges),
                sorted((edge_color[i], len(e)) for i, e in enumerate(edges)),
                sorted(var_color.values()),
            )
        )
        key = derived["_fingerprint"] = hashlib.blake2b(
            payload.encode(), digest_size=12
        ).hexdigest()
    return key


def shape_isomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> dict[Variable, Variable] | None:
    """A variable bijection carrying ``H(source)`` onto ``H(target)``.

    The returned map sends each source variable to a distinct target
    variable such that the source edge multiset maps exactly onto the
    target edge multiset.  Returns ``None`` when the shapes differ (or
    the step cap is hit — safe for the cache, which then just misses).
    """
    s_edges = _edges_of(source)
    t_edges = _edges_of(target)
    if len(s_edges) != len(t_edges):
        return None
    s_vc, s_ec = refine_colors(s_edges)
    t_vc, t_ec = refine_colors(t_edges)
    if sorted(s_ec) != sorted(t_ec) or sorted(s_vc.values()) != sorted(
        t_vc.values()
    ):
        return None

    # Candidate target edges per colour; source edges ordered by colour
    # rarity (most constrained first), then connectivity to already-placed
    # edges so the variable map fills in early.
    by_color: dict[int, list[int]] = {}
    for j, c in enumerate(t_ec):
        by_color.setdefault(c, []).append(j)
    rarity = {c: len(js) for c, js in by_color.items()}

    order: list[int] = []
    placed_vars: set[Variable] = set()
    remaining = set(range(len(s_edges)))
    while remaining:
        best = min(
            remaining,
            key=lambda i: (
                -len(s_edges[i] & placed_vars),
                rarity[s_ec[i]],
                -len(s_edges[i]),
                i,
            ),
        )
        order.append(best)
        placed_vars.update(s_edges[best])
        remaining.discard(best)

    steps = 0
    used = [False] * len(t_edges)
    varmap: dict[Variable, Variable] = {}
    inverse: dict[Variable, Variable] = {}

    def assign_edge(position: int) -> bool:
        nonlocal steps
        if position == len(order):
            return True
        i = order[position]
        edge = s_edges[i]
        for j in by_color[s_ec[i]]:
            if used[j] or t_ec[j] != s_ec[i] or len(t_edges[j]) != len(edge):
                continue
            steps += 1
            if steps > _ISO_STEP_LIMIT:
                return False
            for extension in _edge_matchings(edge, t_edges[j], varmap, inverse,
                                             s_vc, t_vc):
                for sv, tv in extension:
                    varmap[sv] = tv
                    inverse[tv] = sv
                used[j] = True
                if assign_edge(position + 1):
                    return True
                used[j] = False
                for sv, tv in extension:
                    del varmap[sv]
                    del inverse[tv]
                if steps > _ISO_STEP_LIMIT:
                    return False
        return False

    if assign_edge(0):
        return dict(varmap)
    return None


def _edge_matchings(edge, t_edge, varmap, inverse, s_vc, t_vc):
    """All consistent ways to extend *varmap* so that *edge* maps onto
    *t_edge*: mapped variables must land inside *t_edge*, and the
    unmapped ones pair off with *t_edge*'s unclaimed variables of equal
    colour (yielded as the list of new assignments)."""
    free_source = []
    claimed_targets = set()
    for v in edge:
        if v in varmap:
            if varmap[v] not in t_edge:
                return
            claimed_targets.add(varmap[v])
        else:
            free_source.append(v)
    # Sorted: *t_edge* is a set, and on a shape with automorphisms its
    # iteration order would pick which automorph the search returns.
    free_target = sorted(
        w for w in t_edge if w not in claimed_targets and w not in inverse
    )
    if len(free_source) != len(free_target) or len(edge) != len(t_edge):
        return
    if not free_source:
        yield []
        return
    free_source.sort()
    for perm in itertools.permutations(free_target):
        if all(s_vc[sv] == t_vc[tv] for sv, tv in zip(free_source, perm)):
            yield list(zip(free_source, perm))
