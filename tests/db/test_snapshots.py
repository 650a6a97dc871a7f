"""Base-relation snapshots: lifecycle, isolation, and binding as views.

``Database.snapshot(p)`` is the one frozen copy of a relation that every
per-request consumer shares; it may only be replaced by an *effective*
mutation of ``p``.  The stateful suite at the bottom drives warm engines
through interleaved writes and reads and checks every answer against
naive evaluation on a freshly loaded copy — a stale snapshot, columnar
form, value set or annotation map would surface there as a wrong answer.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro._errors import EvaluationError, UnknownRelationError
from repro.core.atoms import Atom, Constant, Variable
from repro.core.parser import parse_query
from repro.db import COUNTING, MINCOST, Database, Relation, bind_atom
from repro.db.annotated import bind_atom_annotated
from repro.db.columnar import ColumnarRelation
from repro.db.naive import naive_join_eval
from repro.db.stats import CardinalityEstimator
from repro.engine import Engine
from repro.incremental.delta import Delta
from repro.obs import get_registry


def _db() -> Database:
    return Database.from_relations(
        {"e": [(1, 2), (2, 3), (3, 1)], "r": [(1, "a"), (2, "b")]}
    )


def _builds() -> float:
    return get_registry().counter("db.snapshot.builds").value


class TestLifecycle:
    def test_same_object_between_mutations(self):
        db = _db()
        snap = db.snapshot("e")
        assert db.snapshot("e") is snap
        assert db.relation("e") is snap
        assert db.rows("e") is snap.rows
        assert snap.attributes == ("$0", "$1") and snap.name == "e"
        assert snap == Relation.from_rows(("$0", "$1"), snap.rows, "e")

    def test_effective_mutation_replaces_only_that_predicate(self):
        db = _db()
        e, r = db.snapshot("e"), db.snapshot("r")
        assert db.add_fact("e", 7, 8)
        assert db.snapshot("e") is not e
        assert db.snapshot("r") is r
        e = db.snapshot("e")
        assert db.remove_fact("r", 1, "a")
        assert db.snapshot("r") is not r
        assert db.snapshot("e") is e

    def test_noop_writes_keep_the_snapshot(self):
        db = _db()
        e = db.snapshot("e")
        version = db.version
        assert not db.add_fact("e", 1, 2)  # already present
        assert not db.remove_fact("e", 9, 9)  # never there
        db.declare("e", 2)  # re-declaring a known predicate
        assert db.snapshot("e") is e
        assert db.version == version

    def test_declaring_a_new_predicate_bumps_the_version(self):
        """A new predicate changes what the estimator reads (an atom over
        it goes from unknown, 1 row, to empty), so plans priced before
        must not be replayed: the version moves once, the snapshots of
        the other predicates stay."""
        db = _db()
        e = db.snapshot("e")
        version = db.version
        db.declare("fresh", 3)
        assert db.version == version + 1
        assert db.snapshot("e") is e
        db.declare("fresh", 3)
        assert db.version == version + 1

    def test_apply_invalidates_effective_changes_only(self):
        db = _db()
        e, r = db.snapshot("e"), db.snapshot("r")
        effective = db.apply(
            Delta({"e": {(1, 2): 1, (9, 9): -1}, "r": {(5, "z"): 1}})
        )
        assert set(effective.changes) == {"r"}
        assert db.snapshot("e") is e
        assert db.snapshot("r") is not r
        assert (5, "z") in db.rows("r")

    def test_captured_snapshot_keeps_the_old_rows(self):
        db = _db()
        before = db.snapshot("e")
        columnar = before.columnar
        db.add_fact("e", 7, 8)
        db.remove_fact("e", 1, 2)
        assert before.rows == {(1, 2), (2, 3), (3, 1)}
        assert columnar.rows == before.rows
        assert db.rows("e") == {(2, 3), (3, 1), (7, 8)}
        assert db.snapshot("e").columnar.rows == db.rows("e")

    def test_unknown_predicate(self):
        db = _db()
        with pytest.raises(UnknownRelationError):
            db.snapshot("nope")
        with pytest.raises(UnknownRelationError):
            db.relation("nope")
        assert db.rows("nope") == frozenset()
        assert db.cardinality("nope") == 0 and db.cardinality("e") == 3

    def test_derived_forms_are_built_once_per_version(self):
        db = _db()
        snap = db.snapshot("e")
        assert snap.columnar is snap.columnar
        assert isinstance(snap.columnar, ColumnarRelation)
        assert snap.distinct(0) == 3
        assert db.annotations("e", COUNTING) is db.annotations("e", COUNTING)
        assert db.universe is db.universe
        before = _builds()
        db.snapshot("e").columnar
        db.annotations("e", COUNTING)
        _ = db.universe
        assert _builds() == before
        db.add_fact("e", 7, 7)
        assert db.snapshot("e").columnar is not snap.columnar
        assert _builds() > before

    def test_universe_follows_mutations(self):
        db = _db()
        assert db.universe == {1, 2, 3, "a", "b"}
        assert db.universe is db.universe
        assert db.domain_size() == 5
        db.add_fact("r", 4, "c")
        assert db.universe == {1, 2, 3, 4, "a", "b", "c"}
        assert db.domain_size() == 7
        db.remove_fact("r", 4, "c")
        assert db.universe == {1, 2, 3, "a", "b"}
        assert db.domain_size() == 5
        # Kept by counting occurrences: a value leaves with its last
        # row, and hash-equal values (1, 1.0, True) are one, as in a set.
        db.add_fact("r", 1.0, True)
        db.remove_fact("e", 1, 2)
        assert db.domain_size() == len(db.universe)

    def test_estimator_reads_the_current_version(self):
        db = _db()
        atom = Atom("e", (Variable("X"), Constant(2)))
        assert CardinalityEstimator(db).atom_rows(atom) == 1.0  # 3 rows / 3
        db.add_fact("e", 5, 2)
        estimator = CardinalityEstimator(db)
        assert estimator.atom_rows(atom) == pytest.approx(4 / 3)
        assert estimator.domain_size == 6

    def test_weight_writes_drop_annotations_not_the_snapshot(self):
        db = _db()
        snap = db.snapshot("e")
        lifted = db.annotations("e", MINCOST)
        assert lifted[(1, 2)][0] == 1.0
        db.set_weight("e", (1, 2), 5.0)
        assert db.snapshot("e") is snap
        assert db.annotations("e", MINCOST)[(1, 2)][0] == 5.0
        assert lifted[(1, 2)][0] == 1.0  # a reader's map is not rewritten
        db.add_fact("e", 1, 2, weight=7.0)  # present row: weight-only write
        assert db.snapshot("e") is snap
        assert db.annotations("e", MINCOST)[(1, 2)][0] == 7.0


def _scan_bind(atom: Atom, db: Database) -> Relation:
    """The pre-snapshot ``bind_atom``: one pass over the base rows,
    checking every term.  Kept as the reference the views must match."""
    first_position: dict[Variable, int] = {}
    order: list[Variable] = []
    for i, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term not in first_position:
            first_position[term] = i
            order.append(term)
    rows = set()
    for row in db.rows(atom.predicate):
        if all(
            row[i] == term.value
            if isinstance(term, Constant)
            else row[i] == row[first_position[term]]
            for i, term in enumerate(atom.terms)
        ):
            rows.add(tuple(row[first_position[v]] for v in order))
    return Relation.from_rows(
        tuple(v.name for v in order), rows, str(atom)
    )


_TERMS = st.one_of(
    st.sampled_from([Variable(n) for n in "XYZW"]),
    st.sampled_from([Constant(v) for v in (0, 1, "a")]),
)


class TestBindingViews:
    def test_constants_and_repeated_variables(self):
        db = Database.from_relations(
            {
                "r": [
                    (1, "a", 5, 1),
                    (1, "a", 6, 2),
                    (2, "a", 7, 2),
                    (3, "b", 8, 3),
                ]
            }
        )
        x, y = Variable("X"), Variable("Y")
        atom = Atom("r", (x, Constant("a"), y, x))
        bound = bind_atom(atom, db)
        assert bound.attributes == ("X", "Y")
        assert bound.rows == {(1, 5), (2, 7)}
        assert bound == _scan_bind(atom, db)
        annotated = bind_atom_annotated(atom, db, COUNTING)
        assert annotated.rows == bound.rows
        assert set(annotated.annotations.values()) == {1}

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.lists(_TERMS, min_size=0, max_size=4),
        rows=st.lists(
            st.tuples(*[st.sampled_from([0, 1, "a"])] * 4), max_size=25
        ),
        columnar=st.booleans(),
    )
    def test_bind_matches_the_scan(self, terms, rows, columnar):
        arity = len(terms)
        db = Database()
        db.declare("p", arity)
        for row in rows:
            db.add_fact("p", *row[:arity])
        atom = Atom("p", tuple(terms))
        expected = _scan_bind(atom, db)
        bound = bind_atom(atom, db, columnar=columnar)
        assert bound == expected
        annotated = bind_atom_annotated(atom, db, MINCOST)
        assert annotated.strip() == expected
        assert annotated.annotations.keys() == expected.rows
        # The bound → base row map is injective: every annotation is the
        # lift of exactly one base fact.
        witnesses = [w for _, (w,) in annotated.annotations.values()]
        assert len(set(witnesses)) == len(witnesses)
        assert all(db.contains("p", *fact) for _, fact in witnesses)

    def test_distinct_variables_share_the_snapshot(self):
        db = _db()
        atom = Atom("e", (Variable("B"), Variable("A")))
        snap = db.snapshot("e")
        row_view = bind_atom(atom, db)
        assert row_view.attributes == ("B", "A")
        assert row_view.rows is snap.rows
        col_view = bind_atom(atom, db, columnar=True)
        assert isinstance(col_view, ColumnarRelation)
        assert col_view.columns is snap.columnar.columns
        assert col_view.rows == snap.rows
        annotated = bind_atom_annotated(atom, db, COUNTING)
        assert annotated.rows is snap.rows
        assert annotated.annotations is db.annotations("e", COUNTING)

    def test_errors_are_unchanged(self):
        db = _db()
        with pytest.raises(UnknownRelationError):
            bind_atom(Atom("nope", (Variable("X"),)), db)
        with pytest.raises(EvaluationError, match="arity"):
            bind_atom(Atom("e", (Variable("X"),)), db)
        with pytest.raises(UnknownRelationError):
            bind_atom_annotated(Atom("nope", (Variable("X"),)), db, COUNTING)


class TestWarmEngine:
    @pytest.mark.parametrize("layout", ["row", "columnar", "auto"])
    @pytest.mark.parametrize("semiring", [None, "count"])
    def test_second_identical_request_builds_nothing(self, layout, semiring):
        """Static database, warm engine: no snapshot, columnar encoding,
        value set or annotation map is derived again (asserted through
        the counter, not by timing)."""
        db = Database.from_relations(
            {
                "e": [(i, (i * 7) % 50) for i in range(50)],
                "r": [(i, (i * 3) % 50) for i in range(50)],
            }
        )
        query = parse_query("ans(X, Z) :- e(X, Y), r(Y, Z), e(Z, 7).")
        engine = Engine(layout=layout)
        first = engine.execute(query, db, semiring=semiring)
        before = _builds()
        reuses = get_registry().counter("db.snapshot.reuses").value
        second = engine.execute(query, db, semiring=semiring)
        assert _builds() == before
        assert get_registry().counter("db.snapshot.reuses").value > reuses
        assert second.answer.rows == first.answer.rows
        db.add_fact("r", 100, 100)
        engine.execute(query, db, semiring=semiring)
        assert _builds() > before


_QUERIES = [
    parse_query(text)
    for text in (
        "ans(X, Z) :- e(X, Y), r(Y, Z).",
        "e(X, Y), e(Y, Z), e(Z, X)",
        "ans(X) :- t(X, 1, Y), e(Y, X).",
        "ans(X, Y) :- t(X, Y, X), r(X, Y).",
        "ans(Y) :- e(X, Y), s(Y).",
        "ans(A, B) :- r(B, A).",
    )
]
_ARITY = {"e": 2, "r": 2, "t": 3, "s": 1}
_VALUES = st.integers(0, 3)
_FACTS = st.sampled_from(sorted(_ARITY)).flatmap(
    lambda p: st.tuples(st.just(p), st.tuples(*[_VALUES] * _ARITY[p]))
)


class SnapshotMachine(RuleBasedStateMachine):
    """Writes of every kind interleaved with warm-engine reads under
    every layout and both semantics; naive evaluation on a freshly
    loaded copy is the oracle."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        for predicate in ("e", "r", "t"):
            self.db.declare(predicate, _ARITY[predicate])
        self.engines = {
            layout: Engine(layout=layout)
            for layout in ("row", "columnar", "auto")
        }

    def teardown(self):
        for engine in self.engines.values():
            engine.close()

    @rule(fact=_FACTS, weight=st.none() | st.floats(0.5, 4.0))
    def add_fact(self, fact, weight):
        predicate, row = fact
        self.db.add_fact(predicate, *row, weight=weight)

    @rule(fact=_FACTS)
    def remove_fact(self, fact):
        predicate, row = fact
        self.db.remove_fact(predicate, *row)

    @rule(changes=st.lists(st.tuples(_FACTS, st.sampled_from([1, -1])), max_size=6))
    def apply_delta(self, changes):
        delta: dict = {}
        for (predicate, row), sign in changes:
            delta.setdefault(predicate, {})[row] = sign
        self.db.apply(Delta(delta))

    @rule()
    def declare(self):
        self.db.declare("s", 1)

    @rule(fact=_FACTS, weight=st.floats(0.5, 4.0))
    def set_weight(self, fact, weight):
        predicate, row = fact
        self.db.set_weight(predicate, row, weight)

    @rule(
        query=st.sampled_from(_QUERIES),
        layout=st.sampled_from(["row", "columnar", "auto"]),
        semiring=st.sampled_from([None, "count"]),
    )
    def read(self, query, layout, semiring):
        if not all(self.db.has_predicate(a.predicate) for a in query.atoms):
            return
        fresh = Database.from_facts(self.db.facts())
        for predicate in self.db.predicates():
            fresh.declare(predicate, self.db.arity(predicate))
        result = self.engines[layout].execute(
            query, self.db, semiring=semiring
        )
        truth = naive_join_eval(query, fresh)
        assert result.answer.rows == truth.rows, (query, layout, semiring)
        if semiring == "count":
            every = tuple(sorted(query.variables, key=lambda v: v.name))
            full = naive_join_eval(query.with_head(every), fresh)
            positions = [
                full.attributes.index(a) for a in result.answer.attributes
            ]
            derivations = Counter(
                tuple(row[i] for i in positions) for row in full.rows
            )
            assert result.annotations == dict(derivations), (query, layout)

    @invariant()
    def snapshots_match_the_store(self):
        for predicate in self.db.predicates():
            snap = self.db.snapshot(predicate)
            assert snap is self.db.snapshot(predicate)
            assert len(snap) == self.db.cardinality(predicate)
            assert all(self.db.contains(predicate, *row) for row in snap.rows)
        assert self.db.domain_size() == len(self.db.universe)


SnapshotMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestSnapshotMachine = SnapshotMachine.TestCase
