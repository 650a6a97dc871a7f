"""Datalog programs with negation (substrate for Appendix B).

Appendix B reduces "hw(Q) ≤ k" to the evaluation of a *weakly stratified*
Datalog program — a program whose negation is not stratified by predicates
but whose atom-level dependencies are well-founded.  This module provides
the program representation plus predicate-level dependency analysis; the
evaluation semantics (semi-naive least model, stratified negation, and the
well-founded semantics via the alternating fixpoint of Van Gelder, Ross &
Schlipf [42]) live in :mod:`repro.datalog.engine`, which runs each rule's
positive body as a conjunctive query through :class:`repro.engine.Engine`.
A predicate has one arity across a program and its EDB; evaluation
rejects a second one with :class:`~repro._errors.SchemaError`.

Terms reuse :class:`repro.core.atoms.Variable` / ``Constant`` / ``Atom``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .._errors import DatalogError
from ..core.atoms import Atom, Variable


@dataclass(frozen=True)
class Literal:
    """A body literal: an atom, possibly negated."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Rule:
    """A rule ``head :- body``.  Facts are rules with empty bodies.

    Safety: every head variable and every variable of a negative literal
    must occur in a positive body literal.
    """

    head: Atom
    body: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        positive_vars: set[Variable] = set()
        for lit in self.body:
            if lit.positive:
                positive_vars.update(lit.atom.variables)
        unsafe = set(self.head.variables) - positive_vars
        for lit in self.body:
            if not lit.positive:
                unsafe |= lit.atom.variables - positive_vars
        if unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise DatalogError(
                f"unsafe rule {self}: variables {{{names}}} do not occur "
                "positively"
            )

    @property
    def positive_body(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.body if l.positive)

    @property
    def negative_body(self) -> tuple[Literal, ...]:
        return tuple(l for l in self.body if not l.positive)

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- " + ", ".join(str(l) for l in self.body) + "."


@dataclass(frozen=True)
class Program:
    """A finite set of rules."""

    rules: tuple[Rule, ...]

    @staticmethod
    def of(rules: Iterable[Rule]) -> "Program":
        return Program(tuple(rules))

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by some rule head."""
        return frozenset(r.head.predicate for r in self.rules)

    @cached_property
    def body_predicates(self) -> frozenset[str]:
        result: set[str] = set()
        for r in self.rules:
            for lit in r.body:
                result.add(lit.atom.predicate)
        return frozenset(result)

    @cached_property
    def dependency_edges(self) -> frozenset[tuple[str, str, bool]]:
        """(head_pred, body_pred, positive?) edges between IDB predicates."""
        edges: set[tuple[str, str, bool]] = set()
        for r in self.rules:
            for lit in r.body:
                if lit.atom.predicate in self.idb_predicates:
                    edges.add((r.head.predicate, lit.atom.predicate, lit.positive))
        return frozenset(edges)

    def stratification(self) -> list[frozenset[str]] | None:
        """Predicate strata (bottom first), or ``None`` if not stratified.

        A program is stratified iff no negative edge lies on a dependency
        cycle.  Computed by iterated longest-path-style level assignment:
        ``level(p) ≥ level(q)`` for positive edges p→q and
        ``level(p) ≥ level(q) + 1`` for negative ones; divergence beyond
        ``|preds|`` levels signals a negative cycle.
        """
        predicates = sorted(self.idb_predicates)
        level = {p: 0 for p in predicates}
        bound = len(predicates) + 1
        for _ in range(bound * bound + 1):
            changed = False
            for head, body, positive in self.dependency_edges:
                required = level[body] + (0 if positive else 1)
                if level[head] < required:
                    level[head] = required
                    if level[head] > bound:
                        return None
                    changed = True
            if not changed:
                break
        else:
            return None
        strata: dict[int, set[str]] = {}
        for p, l in level.items():
            strata.setdefault(l, set()).add(p)
        return [frozenset(strata[l]) for l in sorted(strata)]

    @property
    def is_stratified(self) -> bool:
        return self.stratification() is not None

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def rule(head: Atom, *body: Literal | Atom) -> Rule:
    """Convenience constructor: bare atoms in *body* are positive literals."""
    literals = tuple(
        l if isinstance(l, Literal) else Literal(l, True) for l in body
    )
    return Rule(head, literals)


def neg(atom: Atom) -> Literal:
    """A negated body literal."""
    return Literal(atom, False)
