"""Local search over elimination orderings (width improvement).

Ordering heuristics are greedy and myopic; a cheap local search around a
starting ordering often shaves a unit or two of width.  Following the
scramble strategy of practical solvers (frasmt's ``improve_scramble``),
each round perturbs a random interval of the ordering, re-runs the
bag/greedy-cover pipeline of :mod:`repro.heuristics.ordering_decomp`, and
keeps the perturbation iff the width did not get worse (accepting equal
widths lets the walk drift across plateaus).

The search is deterministic for a fixed ``seed`` — reproducibility is a
design rule of this library (experiments cite exact widths) — and
budget-aware through an optional ``time.monotonic()`` deadline.  A caller
holding a sound lower bound on the width passes it as ``lower``: the
search stops at the round that reaches it, since no later round could do
better.
"""

from __future__ import annotations

import random
import time
from typing import Hashable, Sequence

from ..core.query import ConjunctiveQuery
from ..graphs.primal import Graph, primal_graph
from .ordering_decomp import CoverTable, ordering_width


class Improved(tuple):
    """What :func:`improve_ordering` returns: the pair ``(best order, its
    width)``, carrying as ``rounds`` how many scramble rounds actually ran
    (fewer than asked once the width reaches ``lower`` or the deadline
    passes)."""

    rounds: int

    def __new__(cls, order: list[Hashable], width: int, rounds: int):
        self = super().__new__(cls, (order, width))
        self.rounds = rounds
        return self


def improve_ordering(
    query: ConjunctiveQuery,
    order: Sequence[Hashable],
    rounds: int = 60,
    interval: int = 8,
    seed: int = 0,
    deadline: float | None = None,
    graph: Graph | None = None,
    table: CoverTable | None = None,
    lower: int = 1,
) -> Improved:
    """Scramble-interval local search; returns ``(best order, its width)``.

    *order* must enumerate the query's primal-graph vertices.  The input
    order is never mutated.  With ``rounds=0`` this is just
    :func:`repro.heuristics.ordering_decomp.ordering_width` on *order*.
    The primal graph and the cover table are built once per call, or not
    at all when the caller passes the *graph* and *table* it holds.  No
    round runs once the width is down to *lower*.
    """
    if graph is None:
        graph = primal_graph(query)
    if table is None:
        table = CoverTable(query.atoms)
    current = list(order)
    best_width = ordering_width(query, current, graph=graph, table=table)
    ran = 0
    rng = random.Random(seed)
    window = min(interval, len(current))
    limit = len(current) - window
    while ran < rounds and best_width > lower:
        if deadline is not None and time.monotonic() > deadline:
            break
        ran += 1
        start = rng.randint(0, limit) if limit > 0 else 0
        saved = current[start : start + window]
        segment = saved[:]
        rng.shuffle(segment)
        current[start : start + window] = segment
        width = ordering_width(query, current, graph=graph, table=table)
        if width <= best_width:
            best_width = width
        else:
            current[start : start + window] = saved
    return Improved(current, best_width, ran)
