"""Constraint satisfaction problems and the CQ ⟷ CSP equivalence (§6).

The paper (following Kolaitis–Vardi [29] and [19]) treats BCQ evaluation
and CSP solving as the same problem: deciding the existence of a
homomorphism between two finite structures.  This module provides a
concrete CSP representation and the two translations:

* ``to_query`` / ``to_database`` — a CSP instance becomes a Boolean
  conjunctive query (one atom per constraint scope) over a database
  holding the allowed tuples;
* ``from_query`` — a query plus database becomes a CSP whose constraints
  are the bound atom relations.

Structural decomposition baselines operate on the CSP's hypergraph, which
coincides with the query hypergraph under this translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Mapping, Sequence

from .._errors import EvaluationError
from ..core.atoms import Atom, Variable
from ..core.hypergraph import Hypergraph
from ..core.query import ConjunctiveQuery
from ..db.binding import BoundQuery
from ..db.database import Database

Value = Hashable


@dataclass(frozen=True)
class Constraint:
    """A constraint: a variable scope plus its allowed tuples."""

    scope: tuple[str, ...]
    allowed: frozenset[tuple[Value, ...]]
    name: str = "c"

    def __post_init__(self) -> None:
        arity = len(self.scope)
        if len(set(self.scope)) != arity:
            raise EvaluationError(
                f"constraint {self.name} has a repeated variable in its "
                f"scope {self.scope}"
            )
        for row in self.allowed:
            if len(row) != arity:
                raise EvaluationError(
                    f"constraint {self.name}: tuple {row} does not match "
                    f"scope {self.scope}"
                )

    def satisfied_by(self, assignment: Mapping[str, Value]) -> bool:
        """True iff the (total over the scope) assignment is allowed."""
        return tuple(assignment[v] for v in self.scope) in self.allowed


@dataclass(frozen=True)
class CSPInstance:
    """A CSP: variables, finite domains and positive constraints."""

    domains: tuple[tuple[str, tuple[Value, ...]], ...]
    constraints: tuple[Constraint, ...]
    name: str = "csp"

    @staticmethod
    def of(
        domains: Mapping[str, Sequence[Value]],
        constraints: Iterable[Constraint],
        name: str = "csp",
    ) -> "CSPInstance":
        return CSPInstance(
            tuple((v, tuple(dom)) for v, dom in domains.items()),
            tuple(constraints),
            name,
        )

    @cached_property
    def domain_of(self) -> dict[str, tuple[Value, ...]]:
        return dict(self.domains)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.domains)

    @cached_property
    def constraints_of_variable(self) -> dict[str, tuple[Constraint, ...]]:
        table: dict[str, list[Constraint]] = {v: [] for v in self.variables}
        for c in self.constraints:
            for v in c.scope:
                table[v].append(c)
        return {v: tuple(cs) for v, cs in table.items()}

    # -- translations -------------------------------------------------------
    def to_query(self) -> ConjunctiveQuery:
        """The Boolean conjunctive query of this CSP (one atom per
        constraint; satisfiable iff the query is true on
        :meth:`to_database`)."""
        body = tuple(
            Atom(f"{c.name}_{i}", tuple(Variable(v) for v in c.scope))
            for i, c in enumerate(self.constraints)
        )
        return ConjunctiveQuery(body, (), self.name)

    def to_database(self) -> Database:
        """The database of allowed tuples matching :meth:`to_query`.

        Unary domain constraints are *not* added as atoms: a constraint
        keeps only the tuples whose every value lies in its scope
        variable's domain, and a variable outside every constraint scope
        is unconstrained and handled by the solver directly.
        """
        db = Database()
        domains = {v: frozenset(dom) for v, dom in self.domains}
        for i, c in enumerate(self.constraints):
            predicate = f"{c.name}_{i}"
            # Declared first so an unsatisfiable (empty) constraint
            # still defines its relation.
            db.declare(predicate, len(c.scope))
            scope = [domains[v] for v in c.scope]
            for row in c.allowed:
                if all(value in dom for value, dom in zip(row, scope)):
                    db.add_fact(predicate, *row)
        return db

    def hypergraph(self) -> Hypergraph:
        """The constraint hypergraph (= query hypergraph of
        :meth:`to_query`)."""
        return Hypergraph.from_edges(
            {f"{c.name}_{i}": c.scope for i, c in enumerate(self.constraints)},
            extra_vertices=[
                v
                for v in self.variables
                if not any(v in c.scope for c in self.constraints)
            ],
        )

    def check(self, assignment: Mapping[str, Value]) -> bool:
        """Is *assignment* (total) a solution?"""
        for v in self.variables:
            if assignment.get(v) not in self.domain_of[v]:
                return False
        return all(c.satisfied_by(assignment) for c in self.constraints)


def from_query(query: ConjunctiveQuery, db: Database) -> CSPInstance:
    """The CSP whose solutions are the satisfying substitutions of the
    Boolean query over *db* (Kolaitis–Vardi equivalence, §6)."""
    bound = BoundQuery.bind(query.as_boolean(), db)
    universe = tuple(sorted(db.universe, key=repr))
    domains = {v.name: universe for v in sorted(query.variables, key=str)}
    constraints = []
    for i, atom in enumerate(query.atoms):
        rel = bound.relations[atom]
        constraints.append(
            Constraint(rel.attributes, frozenset(rel.rows), f"{atom.predicate}{i}")
        )
    return CSPInstance.of(domains, constraints, query.name)


def graph_coloring(
    edges: Sequence[tuple[str, str]], colors: int, name: str = "coloring"
) -> CSPInstance:
    """k-colouring as a binary CSP (a classic cyclic workload for the
    examples and for experiment E17)."""
    palette = tuple(range(colors))
    vertices = sorted({v for e in edges for v in e})
    allowed = frozenset(
        (a, b) for a in palette for b in palette if a != b
    )
    constraints = [
        Constraint((u, v), allowed, "ne") for u, v in edges
    ]
    return CSPInstance.of({v: palette for v in vertices}, constraints, name)
