"""CSP solvers: backtracking baseline vs the paper's decomposition route.

* :func:`solve_backtracking` — chronological backtracking with MRV and
  forward checking; the classical exponential-time baseline.
* :func:`solve_via_decomposition` — the paper's pipeline: translate to a
  Boolean CQ (§6 equivalence), plan it with an
  :class:`~repro.engine.Engine` (a cached hypertree decomposition compiled
  into Lemma 4.6 bags), run the plan's bag operators and the Yannakakis
  full reducer over its join tree as one program, then read a solution
  off the reduced bags top-down (every reduced tuple extends to a
  solution, so no backtracking is needed).  Isomorphic constraint
  hypergraphs share one decomposition through the engine's plan cache.

For bounded-hypertree-width constraint classes the second route is
polynomial (Corollary 5.19 via the CSP equivalence) — experiment E17/E15
material.
"""

from __future__ import annotations

import time

from ..db.stats import EvalStats
from ..db.yannakakis import REDUCED, RunContext, run_program, sweep_program
from ..engine.executor import Engine
from .problem import CSPInstance, Value


def solve_backtracking(
    csp: CSPInstance, stats: EvalStats | None = None
) -> dict[str, Value] | None:
    """One solution by MRV + forward-checking backtracking, or ``None``."""
    stats = stats if stats is not None else EvalStats()
    candidates: dict[str, set[Value]] = {
        v: set(csp.domain_of[v]) for v in csp.variables
    }

    def consistent(v: str, assignment: dict[str, Value]) -> bool:
        for c in csp.constraints_of_variable[v]:
            if all(u in assignment for u in c.scope):
                stats.total_tuples_produced += 1
                if not c.satisfied_by(assignment):
                    return False
        return True

    def prune(v: str, assignment: dict[str, Value]) -> list[tuple[str, Value]] | None:
        """Forward-check neighbours of v; return removals or None on wipeout."""
        removed: list[tuple[str, Value]] = []
        for c in csp.constraints_of_variable[v]:
            unbound = [u for u in c.scope if u not in assignment]
            if len(unbound) != 1:
                continue
            u = unbound[0]
            for value in list(candidates[u]):
                assignment[u] = value
                ok = c.satisfied_by(assignment)
                del assignment[u]
                if not ok:
                    candidates[u].discard(value)
                    removed.append((u, value))
            if not candidates[u]:
                for var, val in removed:
                    candidates[var].add(val)
                return None
        return removed

    def search(assignment: dict[str, Value]) -> dict[str, Value] | None:
        if len(assignment) == len(csp.variables):
            return dict(assignment)
        v = min(
            (u for u in csp.variables if u not in assignment),
            key=lambda u: (len(candidates[u]), u),
        )
        for value in sorted(candidates[v], key=repr):
            assignment[v] = value
            if consistent(v, assignment):
                removed = prune(v, assignment)
                if removed is not None:
                    result = search(assignment)
                    if result is not None:
                        return result
                    for var, val in removed:
                        candidates[var].add(val)
            del assignment[v]
        return None

    if any(not candidates[v] for v in csp.variables):
        return None
    return search({})


def solve_via_decomposition(
    csp: CSPInstance,
    engine: Engine | None = None,
    stats: EvalStats | None = None,
) -> dict[str, Value] | None:
    """One solution via hypertree decomposition + Yannakakis full reducer.

    *engine* plans the CSP's query (a fresh :class:`Engine` when
    ``None``); its ``budget`` bounds the search, the bags and the
    reducer.  Unconstrained variables (outside every scope) are assigned
    their first domain value.  Returns ``None`` iff the CSP is
    unsatisfiable.
    """
    stats = stats if stats is not None else EvalStats()
    query = csp.to_query()
    if not query.atoms:
        if any(not csp.domain_of[v] for v in csp.variables):
            return None
        return {v: csp.domain_of[v][0] for v in csp.variables}
    engine = engine if engine is not None else Engine()
    deadline = (
        time.monotonic() + engine.budget if engine.budget is not None else None
    )
    db = csp.to_database()
    plan = engine.plan(query, db)
    jt = plan.join_tree
    # The plan's bags, then the full reducer over them: one program.
    sweep = sweep_program(jt, REDUCED)
    reduced = run_program(
        sweep._replace(ops=plan.program().bags + sweep.ops), {}, stats,
        RunContext(db, plan.resolved_layout == "columnar", None, deadline),
    )
    if any(not reduced[node] for node in jt.nodes):
        return None

    # Top-down extraction: pick any root tuple, then a compatible tuple at
    # each child.  Full reduction guarantees a compatible tuple exists.
    assignment: dict[str, Value] = {}

    def descend(node) -> bool:
        rel = reduced[node]
        for row in sorted(rel.rows, key=repr):
            candidate = dict(zip(rel.attributes, row))
            if all(
                assignment.get(a, candidate[a]) == candidate[a]
                for a in rel.attributes
            ):
                assignment.update(candidate)
                break
        else:  # pragma: no cover - impossible after full reduction
            return False
        return all(descend(child) for child in jt.children(node))

    if not descend(jt.root):
        return None
    for v in csp.variables:
        if v not in assignment:
            domain = csp.domain_of[v]
            if not domain:
                return None
            assignment[v] = domain[0]
    if not csp.check(assignment):  # pragma: no cover - consistency guard
        raise AssertionError("decomposition solver produced a non-solution")
    return assignment


def count_solutions_backtracking(csp: CSPInstance, limit: int = 10**6) -> int:
    """Exhaustive solution count (tests/benchmarks on small instances)."""
    count = 0
    variables = list(csp.variables)

    def search(index: int, assignment: dict[str, Value]) -> None:
        nonlocal count
        if count >= limit:
            return
        if index == len(variables):
            count += 1
            return
        v = variables[index]
        for value in csp.domain_of[v]:
            assignment[v] = value
            if all(
                not all(u in assignment for u in c.scope)
                or c.satisfied_by(assignment)
                for c in csp.constraints_of_variable[v]
            ):
                search(index + 1, assignment)
            del assignment[v]

    search(0, {})
    return count
