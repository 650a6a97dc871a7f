"""Unit tests for ConjunctiveQuery (paper §2.1)."""

import pytest

from repro._errors import SchemaError
from repro.core.atoms import Atom, Constant, Variable, atom
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery, eliminate_constants


class TestBasics:
    def test_variables(self, query_q1):
        assert {v.name for v in query_q1.variables} == {"S", "C", "R", "P", "A"}

    def test_predicates_and_arities(self, query_q1):
        assert query_q1.arities == {"enrolled": 3, "teaches": 3, "parent": 2}

    def test_atoms_with_variable(self, query_q1):
        hits = query_q1.atoms_with_variable(Variable("S"))
        assert {a.predicate for a in hits} == {"enrolled", "parent"}

    def test_len_counts_atoms(self, query_q5):
        assert len(query_q5) == 9

    def test_boolean_constructor(self):
        q = ConjunctiveQuery.boolean([atom("r", "X")])
        assert q.is_boolean

    def test_inconsistent_arity_rejected(self):
        q = ConjunctiveQuery((atom("r", "X"), atom("r", "X", "Y")), ())
        with pytest.raises(SchemaError):
            _ = q.arities

    def test_equality_ignores_name(self):
        a = parse_query("r(X, Y)", name="A")
        b = parse_query("r(X, Y)", name="B")
        assert a == b

    def test_hashable(self):
        assert len({parse_query("r(X)"), parse_query("r(X)")}) == 1


class TestHeadHandling:
    def test_with_head(self):
        q = parse_query("r(X, Y)").with_head((Variable("X"),))
        assert q.head_variables == {Variable("X")}

    def test_as_boolean_strips_head(self):
        q = parse_query("ans(X) :- r(X, Y).")
        assert q.as_boolean().is_boolean

    def test_as_boolean_idempotent(self):
        q = parse_query("r(X)")
        assert q.as_boolean() is q

    def test_constant_head_is_boolean(self):
        q = parse_query("r(X)").with_head((Constant(1),))
        assert q.is_boolean  # no head *variables*

    def test_head_names_are_distinct_variables_in_first_occurrence_order(self):
        q = parse_query("r(X, Y)").with_head(
            (Variable("Y"), Constant(1), Variable("X"), Variable("Y"))
        )
        assert q.head_names == ("Y", "X")
        assert q.as_boolean().head_names == ()

    def test_unsafe_with_head_rejected(self):
        with pytest.raises(SchemaError):
            parse_query("r(X)").with_head((Variable("Z"),))


class TestRenaming:
    def test_renamed_body_and_head(self):
        q = parse_query("ans(X) :- r(X, Y).")
        renamed = q.renamed({Variable("X"): Variable("U")})
        assert Variable("U") in renamed.head_variables
        assert Variable("U") in renamed.variables
        assert Variable("X") not in renamed.variables

    def test_renaming_to_constant_in_body(self):
        q = parse_query("r(X, Y)")
        renamed = q.renamed({Variable("Y"): Constant(7)})
        assert renamed.atoms[0].constants == {Constant(7)}


class TestEliminateConstants:
    def test_constants_replaced_by_fresh_variables(self):
        q = parse_query("r(X, 3), s(4, 'a')")
        clean = eliminate_constants(q)
        assert all(not a.constants for a in clean.atoms)
        assert len(clean.variables) == 4  # X plus three fresh

    def test_fresh_variables_are_distinct(self):
        q = parse_query("r(3, 3)")
        clean = eliminate_constants(q)
        assert len(clean.atoms[0].variables) == 2

    def test_no_constants_is_isomorphic(self, query_q2):
        clean = eliminate_constants(query_q2)
        assert clean.body == query_q2.body

    def test_structure_preserved(self):
        from repro.core.acyclicity import is_acyclic

        q = parse_query("r(X, Y, 1), s(Y, Z), t(Z, X)")
        assert is_acyclic(q) == is_acyclic(eliminate_constants(q))
