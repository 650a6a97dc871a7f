"""Terms and atoms of conjunctive queries (paper §2.1).

The paper adopts the logical representation of relational databases: a
conjunctive query is a datalog rule whose body is a conjunction of atoms
``r(u_1, ..., u_k)`` over terms that are either *variables* or *constants*.

This module provides the three immutable building blocks:

* :class:`Variable` — a named logical variable (``X``, ``Pers1``, ...),
* :class:`Constant` — an atomic domain value,
* :class:`Atom`     — a predicate name applied to a tuple of terms.

All three are hashable value objects, so they can be used freely in the
set-heavy algorithms of the rest of the library ([V]-components, separators,
decomposition labels, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Union


@dataclass(frozen=True, slots=True, order=True)
class Variable:
    """A logical variable, identified by its name.

    Two :class:`Variable` objects with the same name are equal; queries are
    therefore free to construct variables on the fly rather than interning
    them.
    """

    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True, order=True)
class Constant:
    """An atomic domain value appearing in a query or a database tuple."""

    value: Hashable

    def __str__(self) -> str:  # pragma: no cover - trivial
        return repr(self.value) if isinstance(self.value, str) else str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


#: A term is either a variable or a constant (paper §2.1).
Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """Return ``True`` iff *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


@dataclass(frozen=True, slots=True)
class Atom:
    """An atom ``predicate(t_1, ..., t_k)`` in the body of a query.

    ``Atom`` is a pure value: equality and hashing are structural over the
    predicate name and the term tuple.  Two syntactically identical atoms in
    a query body are the same atom (the paper treats ``atoms(Q)`` as a set).

    Attributes
    ----------
    predicate:
        The relation name this atom refers to.
    terms:
        The ordered argument list.  Arity is ``len(terms)``.
    variables:
        ``var(A)``: the set of variables occurring in this atom (derived
        from ``terms``, not a constructor argument).
    """

    predicate: str
    terms: tuple[Term, ...]
    # Memoised at construction: an atom is a dict key of every sweep, of
    # the join tree and of the estimator, and ``var(A)`` is read per
    # tree edge.  Neither takes part in equality, ``repr`` or pickling.
    _hash: int = field(init=False, repr=False, compare=False)
    variables: frozenset[Variable] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "_hash", hash((self.predicate, self.terms)))
        object.__setattr__(
            self,
            "variables",
            frozenset(t for t in self.terms if isinstance(t, Variable)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The hash of a ``str`` is per-process, so the memo must not
        # travel: the receiving side constructs, and so recomputes.
        return Atom, (self.predicate, self.terms)

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.terms)

    @property
    def constants(self) -> frozenset[Constant]:
        """The set of constants occurring in this atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def rename(self, mapping: dict[Variable, Term]) -> "Atom":
        """Return a copy with variables substituted according to *mapping*.

        Variables absent from *mapping* are kept unchanged.  This implements
        the atom part of a substitution ``Aθ`` from §2.1.
        """
        new_terms = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.terms
        )
        return Atom(self.predicate, new_terms)

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.predicate}({args})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.terms!r})"


def atom(predicate: str, *terms: Term | str | int) -> Atom:
    """Convenience constructor for atoms.

    String arguments that start with an uppercase letter or underscore are
    interpreted as variables (the datalog convention); everything else is
    wrapped as a :class:`Constant`.

    >>> atom("enrolled", "S", "C", "R")
    Atom('enrolled', (Variable('S'), Variable('C'), Variable('R')))
    >>> atom("age", "X", 42).terms[1]
    Constant(42)
    """
    converted: list[Term] = []
    for t in terms:
        if isinstance(t, (Variable, Constant)):
            converted.append(t)
        elif isinstance(t, str) and t and (t[0].isupper() or t[0] == "_"):
            converted.append(Variable(t))
        else:
            converted.append(Constant(t))
    return Atom(predicate, tuple(converted))


def variables_of(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """``var(R)`` for a set of atoms ``R`` (paper §2.1).

    Returns the union of ``var(A)`` over all atoms ``A`` in *atoms*.
    """
    result: set[Variable] = set()
    for a in atoms:
        result.update(a.variables)
    return frozenset(result)
