"""Conjunctive-query containment and the paper's "equivalent problems".

Section 1.1 lists the decision problems that are logspace-interreducible
with Boolean CQ evaluation: *query containment* ``Q1 ⊑ Q2``, the
*tuple-of-query* problem, clause subsumption, and CSP.  The paper's
results therefore transfer: containment is tractable whenever the
*right-hand* query has bounded hypertree-width (§1.4, statement on
``Q1 ⊑ Q2`` with ``hw(Q2) ≤ k``).

The classical Chandra–Merlin machinery implemented here:

* :func:`canonical_database` — freeze ``Q1``'s variables into constants;
  the body becomes a database ``DB(Q1)`` (the canonical instance);
* ``Q1 ⊑ Q2``  iff  the frozen head of ``Q1`` is an answer of ``Q2`` on
  ``DB(Q1)``  iff  there is a homomorphism ``Q2 → Q1``;
* :func:`homomorphism` — an explicit witness mapping, found by evaluating
  ``Q2`` with *all* its variables in the head (so the decomposition
  pipeline, not blind search, does the work).

:func:`contains` and the other deciders evaluate through :func:`answers`
(also behind ``repro evaluate``): ``method="decomposition"`` is the
paper's tractable route, an :class:`~repro.engine.Engine` request; it is
cross-validated against the :mod:`repro.db.naive` baselines in the
tests and experiment E19.
"""

from __future__ import annotations

from typing import Mapping

from .._errors import EvaluationError
from ..core.atoms import Constant, Term, Variable
from ..core.query import ConjunctiveQuery
from ..db.database import Database
from ..db.naive import backtracking_answers, naive_join_eval
from ..db.relation import Relation
from ..db.stats import EvalStats
from ..engine.executor import Engine

# Shared by every call: isomorphic queries decompose once.  Each decider
# builds a fresh canonical database, so its requests still compile cold.
_ENGINE = Engine()


def answers(
    query: ConjunctiveQuery,
    db: Database,
    method: str = "decomposition",
    stats: EvalStats | None = None,
) -> Relation:
    """*query*'s answers on *db* by *method*: ``"decomposition"`` (an
    engine request), ``"naive"`` or ``"backtracking"`` (the baselines)."""
    if method == "naive":
        return naive_join_eval(query, db, stats)
    if method == "backtracking":
        return backtracking_answers(query, db, stats)
    if method != "decomposition":
        raise ValueError(f"unknown evaluation method {method!r}")
    return _ENGINE.execute(query, db, stats=stats).answer


class _Frozen:
    """A frozen variable: a constant private to one canonical database."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"~{self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Frozen) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("_Frozen", self.name))


def freeze_term(term: Term):
    """The canonical-database image of a term: constants stay themselves,
    variables freeze to private markers."""
    if isinstance(term, Constant):
        return term.value
    return _Frozen(term.name)


def canonical_database(query: ConjunctiveQuery) -> Database:
    """``DB(Q)``: the body of *query* read as ground facts, with variables
    frozen to fresh constants (Chandra–Merlin)."""
    db = Database()
    for atom in query.atoms:
        db.add_fact(atom.predicate, *(freeze_term(t) for t in atom.terms))
    return db


def _compatible_heads(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> None:
    if len(q1.head_terms) != len(q2.head_terms):
        raise EvaluationError(
            f"containment undefined: head arities differ "
            f"({len(q1.head_terms)} vs {len(q2.head_terms)})"
        )


def contains(
    q2: ConjunctiveQuery,
    q1: ConjunctiveQuery,
    method: str = "decomposition",
    stats: EvalStats | None = None,
) -> bool:
    """Decide ``Q1 ⊑ Q2`` (every answer of Q1 is an answer of Q2).

    Arguments follow the paper's reading direction: ``contains(q2, q1)``
    asks whether *q2* contains *q1*.  Both queries may share predicate
    names with different bodies; only q1's predicates materialise.

    The decision reduces to evaluating ``Q2`` over the canonical database
    of ``Q1`` and checking that the frozen head tuple of ``Q1`` is among
    the answers — tractable when ``hw(Q2)`` is bounded (§1.4).
    """
    _compatible_heads(q1, q2)
    db = canonical_database(q1)
    for atom in q2.atoms:
        if not db.has_predicate(atom.predicate):
            return False  # Q2 uses a relation Q1's body never populates
        if db.arity(atom.predicate) != atom.arity:
            raise EvaluationError(
                f"predicate {atom.predicate!r} used with different arities "
                "in the two queries"
            )
    # Ground Q2's head against Q1's frozen head, then decide the BCQ.
    target = tuple(freeze_term(t) for t in q1.head_terms)
    substitution: dict[Variable, Term] = {}
    for term, value in zip(q2.head_terms, target):
        if isinstance(term, Constant):
            if term.value != value:
                return False
        else:
            bound = substitution.get(term)
            if bound is not None and bound != Constant(value):
                return False
            substitution[term] = Constant(value)
    grounded = q2.renamed(substitution).as_boolean()
    return bool(answers(grounded, db, method, stats))


def equivalent(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, method: str = "decomposition"
) -> bool:
    """``Q1 ≡ Q2``: mutual containment."""
    return contains(q2, q1, method) and contains(q1, q2, method)


def homomorphism(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    method: str = "decomposition",
) -> dict[Variable, Term] | None:
    """A homomorphism ``source → target`` (mapping source variables to
    target terms so every source atom lands in target's body), or ``None``.

    This is the §6 homomorphism problem; by Chandra–Merlin it witnesses
    ``target ⊑ source`` for Boolean queries.
    """
    head = tuple(sorted(source.variables, key=lambda v: v.name))
    asked = source.as_boolean().with_head(head)
    db = canonical_database(target)
    for atom in asked.atoms:
        if not db.has_predicate(atom.predicate) or db.arity(
            atom.predicate
        ) != atom.arity:
            return None
    found = answers(asked, db, method)
    if not found:
        return None
    row = min(found.rows, key=repr)

    def unfreeze(value) -> Term:
        if isinstance(value, _Frozen):
            return Variable(value.name)
        return Constant(value)

    return {v: unfreeze(value) for v, value in zip(head, row)}


def is_homomorphism(
    mapping: Mapping[Variable, Term],
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
) -> bool:
    """Check a homomorphism witness: every mapped source atom must occur
    in target's body (constants map to themselves)."""
    target_atoms = set(target.atoms)
    for atom in source.atoms:
        image = atom.rename(dict(mapping))
        if image not in target_atoms:
            return False
    return True


def tuple_of_query(
    query: ConjunctiveQuery,
    db: Database,
    values: tuple,
    method: str = "decomposition",
) -> bool:
    """The tuple-of-query problem (§1.1): does *values* belong to the
    answer of *query* on *db*?

    Implemented by substituting the tuple into the head (turning the query
    Boolean) rather than materialising all answers.
    """
    head_vars = [t for t in query.head_terms if isinstance(t, Variable)]
    if len(values) != len(query.head_terms):
        raise EvaluationError(
            f"tuple arity {len(values)} does not match head arity "
            f"{len(query.head_terms)}"
        )
    substitution: dict[Variable, Term] = {}
    for term, value in zip(query.head_terms, values):
        if isinstance(term, Constant):
            if term.value != value:
                return False
        else:
            bound = substitution.get(term)
            if bound is not None and bound != Constant(value):
                return False
            substitution[term] = Constant(value)
    grounded = query.renamed(substitution).as_boolean()
    return bool(answers(grounded, db, method))
