"""Conjunctive queries in rule form (paper §2.1).

A conjunctive query is a rule ``ans(u) :- r1(u1), ..., rn(un)``.  A *Boolean*
conjunctive query (BCQ) has a variable-free head; per the paper we allow the
head to be omitted entirely when specifying a BCQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .._errors import SchemaError
from .atoms import Atom, Constant, Term, Variable, variables_of


@dataclass(frozen=True)
class ConjunctiveQuery:
    """An immutable conjunctive query ``ans(u) :- body``.

    Attributes
    ----------
    body:
        The tuple of body atoms, ``atoms(Q)`` in the paper.  Duplicate
        atoms are collapsed (the paper treats the body as a set of atoms).
    head_terms:
        The argument list ``u`` of the head atom.  Empty for Boolean
        queries.  Every head variable must occur in the body (safety).
    name:
        Optional human-readable name used in rendering and experiment
        tables (e.g. ``"Q5"``).
    """

    body: tuple[Atom, ...]
    head_terms: tuple[Term, ...] = ()
    name: str = "Q"

    def __post_init__(self) -> None:
        # Collapse duplicates while preserving first-occurrence order, so
        # that `atoms(Q)` behaves as a set but rendering stays stable.
        seen: dict[Atom, None] = {}
        for a in self.body:
            seen.setdefault(a, None)
        object.__setattr__(self, "body", tuple(seen))
        missing = self.head_variables - self.variables
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise SchemaError(
                f"unsafe query {self.name}: head variables {{{names}}} "
                "do not occur in the body"
            )

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def atoms(self) -> tuple[Atom, ...]:
        """``atoms(Q)``: the body atoms, in stable order."""
        return self.body

    @cached_property
    def variables(self) -> frozenset[Variable]:
        """``var(Q)``: all variables occurring in the body."""
        return variables_of(self.body)

    @cached_property
    def head_variables(self) -> frozenset[Variable]:
        """The variables occurring in the head (empty for BCQs)."""
        return frozenset(t for t in self.head_terms if isinstance(t, Variable))

    @cached_property
    def head_names(self) -> tuple[str, ...]:
        """The answer schema: distinct head-variable names, first
        occurrence first.  A repeated head variable is one named column
        (evaluation is attribute-named; a duplicated column carries no
        information), and a head constant is none."""
        return tuple(
            dict.fromkeys(
                t.name for t in self.head_terms if isinstance(t, Variable)
            )
        )

    @property
    def is_boolean(self) -> bool:
        """True iff the head contains no variables (paper §2.1)."""
        return not self.head_variables

    @cached_property
    def predicates(self) -> frozenset[str]:
        """The relation names referenced by the body."""
        return frozenset(a.predicate for a in self.body)

    @cached_property
    def arities(self) -> dict[str, int]:
        """Predicate name -> arity.  Raises if a predicate is used with
        inconsistent arities (the database schema would be ambiguous)."""
        result: dict[str, int] = {}
        for a in self.body:
            prev = result.setdefault(a.predicate, a.arity)
            if prev != a.arity:
                raise SchemaError(
                    f"predicate {a.predicate!r} used with arities "
                    f"{prev} and {a.arity} in query {self.name}"
                )
        return result

    def atoms_with_variable(self, v: Variable) -> tuple[Atom, ...]:
        """All body atoms in which variable *v* occurs."""
        return tuple(a for a in self.body if v in a.variables)

    # ------------------------------------------------------------------
    # Constructors / transforms
    # ------------------------------------------------------------------
    @staticmethod
    def boolean(atoms: Iterable[Atom], name: str = "Q") -> "ConjunctiveQuery":
        """Build a Boolean conjunctive query from body atoms."""
        return ConjunctiveQuery(tuple(atoms), (), name)

    def with_head(self, terms: Sequence[Term]) -> "ConjunctiveQuery":
        """Return a copy of this query with the given head argument list."""
        return ConjunctiveQuery(self.body, tuple(terms), self.name)

    def as_boolean(self) -> "ConjunctiveQuery":
        """Drop the head: the Boolean version of this query."""
        if self.is_boolean and not self.head_terms:
            return self
        return ConjunctiveQuery(self.body, (), self.name)

    def renamed(self, mapping: dict[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to body and head (``Qθ``)."""
        new_body = tuple(a.rename(mapping) for a in self.body)
        new_head = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t
            for t in self.head_terms
        )
        return ConjunctiveQuery(new_body, new_head, self.name)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head_args = ", ".join(str(t) for t in self.head_terms)
        return f"ans({head_args}) :- {body}."

    def __repr__(self) -> str:
        return f"<ConjunctiveQuery {self.name}: {self}>"

    def __len__(self) -> int:
        return len(self.body)

    def __hash__(self) -> int:
        return hash((self.body, self.head_terms))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self.body == other.body and self.head_terms == other.head_terms


# ----------------------------------------------------------------------
# Constant elimination
# ----------------------------------------------------------------------
def eliminate_constants(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Replace every constant occurrence by a fresh variable.

    The paper's decomposition notions (§3.1 note) ignore constants: for the
    *structural* analysis each constant position behaves like a fresh
    variable occurring nowhere else.  This helper makes that normalisation
    explicit so that the decomposition algorithms can assume constant-free
    bodies.  (Evaluation in :mod:`repro.db` keeps constants and handles them
    via selections instead.)
    """
    counter = 0
    new_body: list[Atom] = []
    for a in query.body:
        new_terms: list[Term] = []
        for t in a.terms:
            if isinstance(t, Constant):
                counter += 1
                new_terms.append(Variable(f"_c{counter}"))
            else:
                new_terms.append(t)
        new_body.append(Atom(a.predicate, tuple(new_terms)))
    return ConjunctiveQuery(tuple(new_body), (), query.name)
