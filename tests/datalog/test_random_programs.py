"""Property tests for the Datalog engine on random programs.

The semi-naive evaluator must agree with a reference naive-iteration
fixpoint on arbitrary positive programs; the well-founded model must
coincide with the stratified (perfect) model whenever the program is
stratified.  The reference derives with :func:`naive_join_eval`, the
left-deep join baseline, not with the engine under test.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Constant, Variable, atom
from repro.core.query import ConjunctiveQuery
from repro.datalog.engine import (
    Facts,
    least_model,
    stratified_model,
    well_founded_model,
)
from repro.datalog.program import Program, Rule, neg, rule
from repro.db.database import Database
from repro.db.naive import naive_join_eval


def _naive_derivations(r: Rule, program: Program, facts: Facts) -> set[tuple]:
    """The head tuples positive rule *r* derives from *facts*, by a
    left-deep join over a database of the current facts."""
    db = Database.from_relations(facts)
    for other in program.rules:
        for a in (other.head, *(lit.atom for lit in other.body)):
            db.declare(a.predicate, a.arity)
    body = tuple(lit.atom for lit in r.body)
    answer = naive_join_eval(ConjunctiveQuery(body, r.head.terms), db)
    derived = set()
    for row in answer.rows:
        binding = {Variable(a): v for a, v in zip(answer.attributes, row)}
        derived.add(tuple(
            t.value if isinstance(t, Constant) else binding[t]
            for t in r.head.terms
        ))
    return derived


def _reference_fixpoint(program: Program, edb: Facts) -> Facts:
    """Textbook naive iteration: re-derive everything until stable."""
    facts = {p: set(rows) for p, rows in edb.items()}
    changed = True
    while changed:
        changed = False
        for r in program.rules:
            new = _naive_derivations(r, program, facts)
            known = facts.setdefault(r.head.predicate, set())
            if not new <= known:
                known |= new
                changed = True
    return facts


def _random_positive_program(seed: int) -> tuple[Program, Facts]:
    rng = random.Random(seed)
    n_base = rng.randint(1, 3)
    base_preds = [f"b{i}" for i in range(n_base)]
    idb_preds = [f"p{i}" for i in range(rng.randint(1, 3))]
    variables = [Variable(v) for v in "XYZ"]

    def random_atom(preds: list[str]) -> Atom:
        name = rng.choice(preds)
        arity = 2
        return Atom(name, tuple(rng.choice(variables) for _ in range(arity)))

    rules = []
    for head_pred in idb_preds:
        for _ in range(rng.randint(1, 2)):
            body = [random_atom(base_preds + idb_preds) for _ in range(rng.randint(1, 3))]
            body_vars = set().union(*(a.variables for a in body))
            head_vars = tuple(
                rng.choice(sorted(body_vars, key=str)) for _ in range(2)
            )
            rules.append(rule(Atom(head_pred, head_vars), *body))
    edb: Facts = {
        p: {
            (rng.randint(0, 3), rng.randint(0, 3))
            for _ in range(rng.randint(1, 5))
        }
        for p in base_preds
    }
    return Program.of(rules), edb


class TestSemiNaiveCorrectness:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_reference_fixpoint(self, seed):
        program, edb = _random_positive_program(seed)
        fast = least_model(program, edb)
        slow = _reference_fixpoint(program, edb)
        assert fast == slow

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_model_is_a_fixpoint(self, seed):
        """Re-running any rule over the least model derives nothing new."""
        program, edb = _random_positive_program(seed)
        model = least_model(program, edb)
        for r in program.rules:
            derived = _naive_derivations(r, program, model)
            assert derived <= model.get(r.head.predicate, set())


class TestWellFoundedVsStratified:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), block=st.integers(0, 3))
    def test_agree_on_stratified_programs(self, seed, block):
        """Add a negation-to-lower-stratum rule on top of a random positive
        program: the WFS must equal the perfect model, with nothing
        undefined."""
        program, edb = _random_positive_program(seed)
        first_idb = sorted(program.idb_predicates)[0]
        extended = Program.of(
            list(program.rules)
            + [
                rule(
                    atom("top", "X", "Y"),
                    Atom("b0", (Variable("X"), Variable("Y"))),
                    neg(Atom(first_idb, (Variable("X"), Variable("Y")))),
                )
            ]
        )
        assert extended.is_stratified
        perfect = stratified_model(extended, edb)
        true_facts, undefined = well_founded_model(extended, edb)
        assert not undefined
        assert true_facts == perfect
