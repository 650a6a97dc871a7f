"""Baseline evaluation strategies (the "NP-complete in general" side).

Two baselines bracket the decomposition-guided evaluator,
:class:`repro.engine.Engine`, in experiments E15/E16, and are the
references the tests check it against:

* :func:`naive_join_eval` — materialise the join of all body atoms
  left-to-right.  On cyclic queries the intermediates can blow up
  exponentially in the query size (``O(n^{|atoms|})`` in database size),
  which is exactly the behaviour the paper's decompositions avoid.
* :func:`backtracking_eval` — the CSP-style search over substitutions
  (depth-first over variables, checking each atom as soon as bound).
  Polynomial space, exponential time in the worst case.
"""

from __future__ import annotations

from typing import Iterator

from ..core.atoms import Atom, Variable
from ..core.query import ConjunctiveQuery
from .binding import BoundQuery
from .database import Database
from .relation import Relation, Value
from .stats import EvalStats


def naive_join_eval(
    query: ConjunctiveQuery,
    db: Database,
    stats: EvalStats | None = None,
) -> Relation:
    """Left-deep natural join of all bound atoms, projected onto the head.

    Returns the answer relation; for a Boolean query the result has an
    empty schema and is non-empty iff the query is true.
    """
    stats = stats if stats is not None else EvalStats()
    bound = BoundQuery.bind(query, db)
    atoms = list(query.atoms)
    if not atoms:
        return Relation((), frozenset({()}), "ans")
    current = stats.record(bound.relations[atoms[0]])
    for atom in atoms[1:]:
        current = current.join(bound.relations[atom])
        stats.joins += 1
        stats.record(current)
    answer = current.project(query.head_names, name="ans")
    stats.projections += 1
    return stats.record(answer)


def naive_boolean_eval(
    query: ConjunctiveQuery, db: Database, stats: EvalStats | None = None
) -> bool:
    """Boolean version of :func:`naive_join_eval`."""
    return bool(naive_join_eval(query.as_boolean(), db, stats))


def _substitutions(
    query: ConjunctiveQuery, db: Database, stats: EvalStats
) -> Iterator[dict[Variable, Value]]:
    """Depth-first enumeration of satisfying substitutions θ (§2.1).

    Atoms are ordered greedily: at each step pick the atom sharing the
    most variables with those already bound (a lightweight connectivity
    heuristic; with none shared, the smallest relation first).
    """
    bound = BoundQuery.bind(query, db)
    remaining = list(query.atoms)
    order: list[Atom] = []
    seen_vars: set[Variable] = set()
    while remaining:
        remaining.sort(
            key=lambda a: (
                -len(a.variables & seen_vars),
                len(bound.relations[a]),
            )
        )
        chosen = remaining.pop(0)
        order.append(chosen)
        seen_vars.update(chosen.variables)

    def extend(
        index: int, assignment: dict[Variable, Value]
    ) -> Iterator[dict[Variable, Value]]:
        if index == len(order):
            yield dict(assignment)
            return
        atom = order[index]
        rel = bound.relations[atom]
        attr_vars = [Variable(a) for a in rel.attributes]
        for row in rel.rows:
            stats.total_tuples_produced += 1
            conflict = False
            added: list[Variable] = []
            for var, value in zip(attr_vars, row):
                if var in assignment:
                    if assignment[var] != value:
                        conflict = True
                        break
                else:
                    assignment[var] = value
                    added.append(var)
            if not conflict:
                yield from extend(index + 1, assignment)
            for var in added:
                del assignment[var]

    yield from extend(0, {})


def backtracking_eval(
    query: ConjunctiveQuery, db: Database, stats: EvalStats | None = None
) -> bool:
    """Boolean evaluation by backtracking search over substitutions."""
    stats = stats if stats is not None else EvalStats()
    for _ in _substitutions(query, db, stats):
        return True
    return False


def backtracking_answers(
    query: ConjunctiveQuery,
    db: Database,
    stats: EvalStats | None = None,
    limit: int | None = None,
) -> Relation:
    """All answers (projections of satisfying substitutions onto the head)
    by backtracking; *limit* caps enumeration for benchmarks.  A Boolean
    query (empty head) has at most the one answer ``()``, so its search
    stops at the first satisfying substitution."""
    stats = stats if stats is not None else EvalStats()
    head = query.head_names
    head_vars = [Variable(a) for a in head]
    if not head:
        limit = 1
    rows: set[tuple] = set()
    for theta in _substitutions(query, db, stats):
        rows.add(tuple(theta[v] for v in head_vars))
        if limit is not None and len(rows) >= limit:
            break
    return Relation(head, frozenset(rows), "ans")
