"""Datalog evaluation: semi-naive least models, stratified negation, and
the well-founded semantics (Appendix B substrate).

Three layers:

* :func:`least_model` — bottom-up semi-naive evaluation of the positive
  part; negative literals are tested against a *frozen* interpretation
  supplied by the caller (empty by default).  This is the operator
  ``Γ_P(J)`` of the alternating-fixpoint characterisation of the
  well-founded semantics.
* :func:`stratified_model` — evaluates stratum by stratum when the
  program is stratified.
* :func:`well_founded_model` — Van Gelder–Ross–Schlipf alternating
  fixpoint: ``U₀ = ∅``, ``V₀ = Γ(U₀)``, ``U_{i+1} = Γ(V_i)``,
  ``V_{i+1} = Γ(U_{i+1})``; ``U`` converges to the true facts from below
  and ``V`` from above; facts in ``V − U`` are undefined.  For weakly
  stratified programs — e.g. the Appendix-B hw(Q) ≤ k program, whose
  negation descends along the strict-subset order on components — the
  model is total (``U = V``), matching the paper's remark that the program
  has a total well-founded model computable in polynomial time.

Each rule body is a conjunctive query, and each least-model round runs
it as one :class:`~repro.engine.Engine` request over a working
:class:`~repro.db.database.Database` holding the EDB, every derived
predicate ``p`` and its *delta* ``Δp`` — the facts ``p`` gained in the
previous round.  Semi-naive evaluation renames one positive body atom to
its delta predicate, so the delta is data in the working database, not
an argument of the evaluator.  The boundary type is :data:`Facts`,
``dict[str, set[tuple]]`` (predicate → ground tuples).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.atoms import Atom, Constant, Variable
from ..core.query import ConjunctiveQuery
from ..db.database import Database
from ..engine.executor import Engine
from ..incremental.delta import Delta
from .program import Program, Rule

Facts = dict[str, set[tuple]]

# Shared by every call: each rule-body shape decomposes once, and every
# later round and well-founded Γ call reuses the cached decomposition.
_ENGINE = Engine()


def _copy_facts(facts: Mapping[str, Iterable[tuple]]) -> Facts:
    return {p: set(rows) for p, rows in facts.items()}


def _ground(atom: Atom, binding: dict[Variable, object]) -> tuple:
    return tuple(
        t.value if isinstance(t, Constant) else binding[t] for t in atom.terms
    )


def _derive(
    rule: Rule, body: tuple[Atom, ...], db: Database, frozen: Facts
) -> set[tuple]:
    """The head tuples *rule* derives with its positive literals read as
    *body* (the rule's atoms, one of them possibly renamed to a delta
    predicate); negative literals succeed iff their ground tuple is
    absent from *frozen*."""
    negatives = [lit.atom for lit in rule.negative_body]
    head = tuple(dict.fromkeys(
        t
        for a in (rule.head, *negatives)
        for t in a.terms
        if isinstance(t, Variable)
    ))
    answer = _ENGINE.execute(ConjunctiveQuery(body, head), db).answer
    derived: set[tuple] = set()
    for row in answer.rows:
        binding = dict(zip(head, row))
        if not any(
            _ground(a, binding) in frozen.get(a.predicate, ())
            for a in negatives
        ):
            derived.add(_ground(rule.head, binding))
    return derived


def least_model(
    program: Program,
    edb: Mapping[str, Iterable[tuple]],
    frozen: Mapping[str, Iterable[tuple]] | None = None,
) -> Facts:
    """Semi-naive least fixpoint of the positive part of *program* over
    *edb*, with negation evaluated against the fixed interpretation
    *frozen* (i.e. the operator ``Γ_P(frozen)``).

    Returns all facts (EDB ∪ derived IDB).  A predicate used at two
    arities raises :class:`~repro._errors.SchemaError`.
    """
    frozen_facts = _copy_facts(frozen) if frozen is not None else {}
    db = Database.from_relations(edb)
    for r in program.rules:
        for a in (r.head, *(lit.atom for lit in r.body)):
            db.declare(a.predicate, a.arity)
    # No predicate of the working database starts with the prefix, so no
    # delta name collides with one a rule or the EDB mentions.
    prefix = "Δ"
    while any(p.startswith(prefix) for p in db.predicates()):
        prefix += "Δ"
    delta_of = {p: prefix + p for p in program.idb_predicates}
    for p, name in delta_of.items():
        db.declare(name, db.arity(p))

    # Round 0 evaluates every rule over the full relations; each later
    # round, for every positive literal whose predicate gained facts,
    # reads that literal from its delta.
    bodies = [
        tuple(lit.atom for lit in r.positive_body) for r in program.rules
    ]
    requests = list(zip(program.rules, bodies))
    while requests:
        fresh: Facts = {}
        for r, body in requests:
            fresh.setdefault(r.head.predicate, set()).update(
                _derive(r, body, db, frozen_facts)
            )
        # One batch: the fresh facts go into p and Δp, the old Δp goes.
        changes = {
            name: dict.fromkeys(db.rows(name), -1)
            for name in delta_of.values()
        }
        for p, rows in fresh.items():
            rows -= db.rows(p)
            changes[p] = dict.fromkeys(rows, 1)
            changes[delta_of[p]].update(changes[p])
        db.apply(Delta(changes))
        requests = [
            (r, body[:i] + (Atom(delta_of[a.predicate], a.terms),)
             + body[i + 1:])
            for r, body in zip(program.rules, bodies)
            for i, a in enumerate(body)
            if a.predicate in delta_of
            and db.cardinality(delta_of[a.predicate])
        ]
    return {p: set(db.rows(p)) for p in (*edb, *program.idb_predicates)}


def stratified_model(
    program: Program, edb: Mapping[str, Iterable[tuple]]
) -> Facts:
    """Evaluate a stratified program stratum by stratum (perfect model)."""
    strata = program.stratification()
    if strata is None:
        raise ValueError("program is not stratified; use well_founded_model")
    facts = _copy_facts(edb)
    for stratum in strata:
        layer = Program.of(
            r for r in program.rules if r.head.predicate in stratum
        )
        facts = least_model(layer, facts, frozen=facts)
    return facts


def well_founded_model(
    program: Program,
    edb: Mapping[str, Iterable[tuple]],
) -> tuple[Facts, Facts]:
    """The well-founded model via the alternating fixpoint [42].

    Returns ``(true, undefined)`` where *true* holds the well-founded true
    facts and *undefined* the facts that are neither true nor false.  For
    (weakly) stratified programs *undefined* is empty.
    """

    def gamma(j: Facts) -> Facts:
        return least_model(program, edb, frozen=j)

    under: Facts = _copy_facts(edb)
    over: Facts = gamma(under)
    # Terminates: Γ is antimonotone, so U only grows and V only shrinks,
    # both within the finite set of ground facts over the EDB's values.
    while True:
        new_under = gamma(over)
        new_over = gamma(new_under)
        if new_under == under and new_over == over:
            break
        under, over = new_under, new_over

    undefined: Facts = {}
    for predicate, rows in over.items():
        extra = rows - under.get(predicate, set())
        if extra:
            undefined[predicate] = extra
    return under, undefined


def holds(facts: Facts, predicate: str, *values) -> bool:
    """Membership test helper: ``predicate(values...) ∈ facts``."""
    return tuple(values) in facts.get(predicate, set())
