"""Tests for Database and atom binding."""

import pytest

from repro._errors import EvaluationError, SchemaError
from repro.core.atoms import Atom, Constant, Variable, atom
from repro.core.parser import parse_atom
from repro.db.binding import BoundQuery, bind_atom
from repro.db.database import Database


@pytest.fixture
def db():
    d = Database()
    d.add_fact("r", 1, 2)
    d.add_fact("r", 2, 2)
    d.add_fact("r", 3, 4)
    d.add_fact("s", 2)
    return d


class TestDatabase:
    def test_arity_fixed_on_first_use(self, db):
        with pytest.raises(SchemaError):
            db.add_fact("r", 1)

    def test_contains(self, db):
        assert db.contains("r", 1, 2)
        assert not db.contains("r", 9, 9)

    def test_universe(self, db):
        assert db.universe == {1, 2, 3, 4}

    def test_sizes(self, db):
        assert db.tuple_count() == 4
        assert db.size() == 7  # 3 binary rows + 1 unary row
        assert db.max_relation_size() == 3

    def test_relation_view(self, db):
        rel = db.relation("r")
        assert rel.attributes == ("$0", "$1")
        assert len(rel) == 3

    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.relation("zzz")

    def test_add_ground_atom(self, db):
        db.add_atom(Atom("t", (Constant("a"), Constant("b"))))
        assert db.contains("t", "a", "b")

    def test_add_nonground_atom_rejected(self, db):
        with pytest.raises(SchemaError):
            db.add_atom(Atom("t", (Variable("X"),)))

    def test_from_relations(self):
        d = Database.from_relations({"e": [(1, 2), (2, 3)]})
        assert d.tuple_count() == 2

    def test_facts_iteration_sorted(self, db):
        facts = list(db.facts())
        assert facts[0][0] == "r"
        assert len(facts) == 4


class TestBindAtom:
    def test_plain_variables(self, db):
        rel = bind_atom(parse_atom("r(X, Y)"), db)
        assert rel.attributes == ("X", "Y")
        assert len(rel) == 3

    def test_constant_selects(self, db):
        rel = bind_atom(parse_atom("r(X, 2)"), db)
        assert rel.attributes == ("X",)
        assert rel.rows == {(1,), (2,)}

    def test_repeated_variable_forces_equality(self, db):
        rel = bind_atom(parse_atom("r(X, X)"), db)
        assert rel.rows == {(2,)}

    def test_ground_atom_gives_empty_schema(self, db):
        hit = bind_atom(parse_atom("r(1, 2)"), db)
        miss = bind_atom(parse_atom("r(9, 9)"), db)
        assert hit.rows == {()}
        assert not miss.rows

    def test_unknown_predicate(self, db):
        with pytest.raises(EvaluationError):
            bind_atom(parse_atom("zzz(X)"), db)

    def test_arity_mismatch(self, db):
        with pytest.raises(EvaluationError):
            bind_atom(parse_atom("r(X)"), db)

    def test_variable_order_is_first_occurrence(self, db):
        rel = bind_atom(parse_atom("r(Y, X)"), db)
        assert rel.attributes == ("Y", "X")


class TestBoundQuery:
    def test_bind_all(self, db):
        from repro.core.parser import parse_query

        q = parse_query("ans(X) :- r(X, Y), s(Y).")
        bound = BoundQuery.bind(q, db)
        assert len(bound.relations) == 2
        assert q.head_names == ("X",)
