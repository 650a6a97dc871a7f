"""Heuristic decomposition subsystem: orderings, bounds, and the portfolio.

The exact ``k-decomp`` search of :mod:`repro.core.detkdecomp` is
exponential in the width; this package supplies its practical complement —
polynomial-time ordering-based construction of generalized hypertree
decompositions, greedy upper and trivial lower width bounds, local-search
improvement, an independent validity checker, and the
:func:`decompose` portfolio facade that combines heuristics with the
exact algorithm under a time budget.

Typical use::

    from repro.heuristics import decompose

    result = decompose(query, mode="auto", budget=5.0)
    print(result.width, result.optimal)
    print(result.decomposition.render())
"""

from .bounds import (
    UpperBound,
    acyclicity_lower_bound,
    degree_lower_bound,
    greedy_upper_bound,
    lower_bound,
)
from .improve import improve_ordering
from .ordering_decomp import (
    CoverTable,
    bags_from_ordering,
    ghtd_from_ordering,
    greedy_cover,
    ordering_width,
)
from .orderings import (
    ORDERING_METHODS,
    all_orderings,
    elimination_ordering,
    query_orderings,
)
from .portfolio import MODES, PortfolioResult, decompose
from .validate import assert_valid, check_decomposition, is_valid_ghtd

__all__ = [
    "CoverTable",
    "MODES",
    "ORDERING_METHODS",
    "PortfolioResult",
    "UpperBound",
    "acyclicity_lower_bound",
    "all_orderings",
    "assert_valid",
    "bags_from_ordering",
    "check_decomposition",
    "decompose",
    "degree_lower_bound",
    "elimination_ordering",
    "ghtd_from_ordering",
    "greedy_cover",
    "greedy_upper_bound",
    "improve_ordering",
    "is_valid_ghtd",
    "lower_bound",
    "ordering_width",
    "query_orderings",
]
