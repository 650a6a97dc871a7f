"""The portfolio facade: one ``decompose()`` call, three strategies.

This is the subsystem's public entry point and the seam that future
scaling work (SAT backends, parallel portfolios, decomposition caches)
plugs into.  The three modes:

* ``"exact"`` — the paper's ``k-decomp`` search
  (:func:`repro.core.detkdecomp.hypertree_width`), optimal hypertree
  width, exponential in the width;
* ``"heuristic"`` — the ordering pipeline plus local search, polynomial
  time, checker-certified GHTD, width within a small additive gap of
  optimal in practice;
* ``"auto"`` (default) — heuristics first: their width becomes the upper
  end of the exact search's ``k`` range and the trivial lower bounds the
  lower end, so the exact search starts as tight as possible; if the
  bracket is already closed the heuristic answer ships immediately, and
  if the exact search exhausts its ``budget`` the best checker-validated
  heuristic decomposition is returned instead of failing.

Both heuristic modes are bracket-driven: the lower bound is computed
first, on the one primal graph the call builds, and every search below it
— further portfolio orderings, local-search rounds, exact ``k`` — runs
only while its width could still come down.

Every returned decomposition — including exact ones — passes the
independent :mod:`repro.heuristics.validate` checker before it leaves
this module.

>>> from repro.generators.paper_queries import q1
>>> result = decompose(q1(), mode="auto")
>>> result.width, result.optimal
(2, True)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

from .._errors import BudgetExceeded
from ..core.canonical import canonical_query
from ..core.detkdecomp import Strategy, decompose_k, hypertree_width
from ..core.hypergraph import Hypergraph
from ..core.hypertree import HypertreeDecomposition
from ..core.query import ConjunctiveQuery
from ..graphs.primal import Graph, primal_graph
from ..obs import current_tracer, get_registry
from .bounds import greedy_upper_bound, lower_bound
from .improve import improve_ordering
from .ordering_decomp import CoverTable, ghtd_from_ordering
from .validate import assert_valid

Mode = Literal["exact", "heuristic", "auto"]

MODES: tuple[str, ...] = ("exact", "heuristic", "auto")


@dataclass(frozen=True)
class PortfolioResult:
    """What :func:`decompose` returns: the decomposition plus provenance.

    ``optimal`` means the portfolio *proved* that no hypertree
    decomposition of smaller width exists (either the exact search found
    this width, or every smaller ``k`` was refuted, or the width meets a
    lower bound).  A budget fallback is never marked optimal.
    """

    decomposition: HypertreeDecomposition
    width: int
    mode: str
    method: str
    optimal: bool
    lower: int
    upper: int
    elapsed: float

    def __str__(self) -> str:
        tag = "optimal" if self.optimal else f"bounds [{self.lower}, {self.width}]"
        return (
            f"width {self.width} via {self.method} ({tag}, "
            f"{self.elapsed:.3f}s)"
        )


def _heuristic(
    query: ConjunctiveQuery,
    seed: int,
    improve_rounds: int,
    deadline: float | None,
    graph: Graph,
    lower: int,
) -> tuple[HypertreeDecomposition, str, int, int]:
    """Best ordering-pipeline GHTD: portfolio of orderings + local search.

    The cover table is built once and shared by every ordering and every
    round; the winning ordering is the local search's starting point.
    Nothing is searched below *lower*: the portfolio stops at the first
    ordering that meets it and the local search runs only while the
    bracket is open.  Also returns what was searched: the number of
    orderings built and of local-search rounds run.
    """
    table = CoverTable(query.atoms)
    ub = greedy_upper_bound(query, graph=graph, table=table, lower=lower)
    hd, method = ub.decomposition, f"heuristic[{ub.method}]"
    rounds = 0
    if improve_rounds > 0 and ub.width > lower:
        found = improve_ordering(
            query,
            ub.order,
            rounds=improve_rounds,
            seed=seed,
            deadline=deadline,
            graph=graph,
            table=table,
            lower=lower,
        )
        rounds = found.rounds
        better_order, better_width = found
        if better_width < ub.width:
            hd = ghtd_from_ordering(
                query, order=better_order, graph=graph, table=table
            )
            method = f"heuristic[{ub.method}+improve]"
    return hd, method, ub.orderings, rounds


def decompose(
    query: ConjunctiveQuery | Hypergraph,
    mode: Mode = "auto",
    budget: float | None = None,
    seed: int = 0,
    improve_rounds: int = 40,
    strategy: Strategy = "relevant",
) -> PortfolioResult:
    """Decompose a query (or hypergraph, via its canonical query).

    Parameters
    ----------
    query:
        A :class:`ConjunctiveQuery`, or a :class:`Hypergraph` which is
        first bridged through the Appendix-A canonical query.
    mode:
        ``"exact"``, ``"heuristic"`` or ``"auto"`` (see module docstring).
    budget:
        Wall-clock seconds for the *search* phases.  In ``"auto"`` mode an
        exhausted budget degrades to the heuristic result; in ``"exact"``
        mode it raises :class:`repro._errors.BudgetExceeded`.
    seed:
        Seed of the (deterministic) ordering local search.
    improve_rounds:
        Cap on the local-search rounds run while the heuristic width is
        above the lower bound; 0 disables the improvement phase.
    strategy:
        Candidate-pool strategy forwarded to the exact search.
    """
    if isinstance(query, Hypergraph):
        query = canonical_query(query)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    if not query.atoms:
        raise ValueError("cannot decompose an empty query")

    started = time.monotonic()
    deadline = started + budget if budget is not None else None
    tracer = current_tracer()
    search_span = tracer.span("decompose", mode=mode, query=query.name)

    def result(
        hd: HypertreeDecomposition,
        method: str,
        optimal: bool,
        lower: int,
        upper: int,
    ) -> PortfolioResult:
        assert_valid(hd, context=method)
        elapsed = time.monotonic() - started
        search_span.set(method=method, width=hd.width, optimal=optimal)
        registry = get_registry()
        registry.counter("decompose.calls").inc()
        registry.histogram("decompose.seconds").observe(elapsed)
        return PortfolioResult(
            decomposition=hd,
            width=hd.width,
            mode=mode,
            method=method,
            optimal=optimal,
            lower=lower,
            upper=upper,
            elapsed=elapsed,
        )

    with search_span:
        if mode == "exact":
            with tracer.span("decompose.exact", strategy=strategy):
                width, hd = hypertree_width(
                    query, strategy=strategy, deadline=deadline
                )
            return result(hd, "exact", True, width, width)

        graph = primal_graph(query)
        lower = lower_bound(query, graph)
        with tracer.span(
            "decompose.heuristic", seed=seed, lower=lower
        ) as hspan:
            hd, method, orderings, rounds = _heuristic(
                query, seed, improve_rounds, deadline, graph, lower
            )
            hspan.set(
                method=method, width=hd.width,
                orderings=orderings, rounds=rounds,
            )
        get_registry().counter("decompose.improve_rounds").inc(rounds)
        if mode == "heuristic":
            return result(hd, method, hd.width <= lower, lower, hd.width)

        # auto: heuristic width closes the bracket from above, trivial
        # bounds from below; the exact search only has to scan the open
        # interval.
        upper = hd.width
        if upper <= lower:
            return result(hd, method, True, lower, upper)
        try:
            for k in range(lower, upper):
                with tracer.span(
                    "decompose.exact_k", k=k, strategy=strategy
                ) as kspan:
                    exact_hd = decompose_k(
                        query, k, strategy=strategy, deadline=deadline
                    )
                    kspan.set(found=exact_hd is not None)
                if exact_hd is not None:
                    return result(exact_hd, f"exact[k={k}]", True, k, upper)
        except BudgetExceeded:
            return result(
                hd, f"{method}, budget fallback", False, lower, upper
            )
        # Every k < upper was refuted: hw(Q) ≥ upper, so the heuristic
        # decomposition's width is unbeatable by any hypertree
        # decomposition.
        return result(hd, f"{method}, refuted k<{upper}", True, upper, upper)
