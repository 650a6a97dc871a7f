"""Tests for query containment and the §1.1 equivalent problems."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import EvaluationError
from repro.core.containment import (
    canonical_database,
    contains,
    equivalent,
    homomorphism,
    is_homomorphism,
    tuple_of_query,
)
from repro.core.parser import parse_query
from repro.db.naive import naive_join_eval
from repro.generators.families import cycle_query, random_query
from repro.generators.workloads import random_database, university_database


class TestCanonicalDatabase:
    def test_body_becomes_facts(self):
        q = parse_query("r(X, Y), s(Y, 3)")
        db = canonical_database(q)
        assert db.tuple_count() == 2
        assert db.arity("r") == 2

    def test_frozen_variables_are_consistent(self):
        q = parse_query("r(X, X)")
        db = canonical_database(q)
        row = next(iter(db.rows("r")))
        assert row[0] == row[1]

    def test_constants_pass_through(self):
        q = parse_query("r(X, 3)")
        db = canonical_database(q)
        assert any(row[1] == 3 for row in db.rows("r"))


class TestContainment:
    def test_path_contains_triangle(self):
        triangle = parse_query("e(X, Y), e(Y, Z), e(Z, X)", name="tri")
        path = parse_query("e(A, B), e(B, C)", name="path")
        assert contains(path, triangle)      # triangle ⊑ path
        assert not contains(triangle, path)  # path ⋢ triangle

    def test_cycle_containments(self):
        # Chandra–Merlin: C3 ⊑ C6 iff hom C6 → C3 (wrap the 6-cycle twice
        # around the triangle) — true; C6 ⊑ C3 iff hom C3 → C6 — false,
        # since the 6-cycle hosts no odd closed walk of length 3.
        c3, c6 = cycle_query(3), cycle_query(6)
        assert contains(c6, c3)        # C3 ⊑ C6
        assert not contains(c3, c6)    # C6 ⋢ C3

    def test_extra_atom_is_more_restrictive(self):
        general = parse_query("ans(X) :- r(X, Y).")
        specific = parse_query("ans(X) :- r(X, Y), s(Y).")
        assert contains(general, specific)
        assert not contains(specific, general)

    def test_head_constants(self):
        c1 = parse_query("ans(X) :- r(X, 1).")
        c2 = parse_query("ans(X) :- r(X, Y).")
        assert contains(c2, c1)
        assert not contains(c1, c2)

    def test_self_containment(self, query_q5):
        head = tuple(sorted(query_q5.variables, key=lambda v: v.name))[:2]
        q = query_q5.with_head(head)
        assert contains(q, q)

    def test_repeated_head_variable(self):
        diag = parse_query("ans(X, X) :- r(X, X).")
        pair = parse_query("ans(A, B) :- r(A, B).")
        assert contains(pair, diag)
        assert not contains(diag, pair)

    def test_head_arity_mismatch_rejected(self):
        a = parse_query("ans(X) :- r(X, Y).")
        b = parse_query("ans(X, Y) :- r(X, Y).")
        with pytest.raises(EvaluationError):
            contains(a, b)

    def test_unknown_predicate_means_not_contained(self):
        a = parse_query("r(X, Y)")
        b = parse_query("zzz(X, Y)")
        assert not contains(b, a)

    def test_equivalent_renamings(self):
        a = parse_query("ans(X) :- r(X, Y).")
        b = parse_query("ans(U) :- r(U, V), r(U, W).")
        assert equivalent(a, b)

    @pytest.mark.parametrize("method", ["naive", "backtracking", "decomposition"])
    def test_methods_agree(self, method):
        triangle = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        path = parse_query("e(A, B), e(B, C)")
        assert contains(path, triangle, method=method)
        assert not contains(triangle, path, method=method)

    def test_unknown_method(self):
        path = parse_query("e(A, B), e(B, C)")
        with pytest.raises(ValueError, match="magic"):
            contains(path, path, method="magic")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2_000), drop=st.integers(0, 3))
    def test_randomised_methods_agree(self, seed, drop):
        """Drop one atom from a random query: the relaxed query always
        contains the original, and both directions agree across
        evaluation strategies."""
        from repro.core.query import ConjunctiveQuery

        full = random_query(n_atoms=4, n_variables=5, seed=seed)
        body = list(full.body)
        body.pop(drop % len(body))
        relaxed = ConjunctiveQuery(tuple(body), (), "relaxed")
        assert contains(relaxed, full, method="naive")
        assert contains(relaxed, full, method="decomposition")
        naive_back = contains(full, relaxed, method="naive")
        assert contains(full, relaxed, method="decomposition") == naive_back


class TestHomomorphism:
    def test_witness_is_checked(self):
        triangle = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        path = parse_query("e(A, B), e(B, C)")
        h = homomorphism(path, triangle)
        assert h is not None
        assert is_homomorphism(h, path, triangle)

    def test_no_homomorphism(self):
        triangle = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        path = parse_query("e(A, B), e(B, C)")
        assert homomorphism(triangle, path) is None

    def test_constant_requires_exact_match(self):
        src = parse_query("r(X, 1)")
        tgt_match = parse_query("r(Y, 1)")
        tgt_miss = parse_query("r(Y, 2)")
        assert homomorphism(src, tgt_match) is not None
        assert homomorphism(src, tgt_miss) is None

    def test_is_homomorphism_rejects_wrong_mapping(self):
        from repro.core.atoms import Variable

        path = parse_query("e(A, B), e(B, C)")
        triangle = parse_query("e(X, Y), e(Y, Z), e(Z, X)")
        bad = {
            Variable("A"): Variable("X"),
            Variable("B"): Variable("X"),
            Variable("C"): Variable("X"),
        }
        assert not is_homomorphism(bad, path, triangle)


class TestTupleOfQuery:
    def test_member_and_nonmember(self):
        q = parse_query(
            "ans(S, C) :- enrolled(S, C, R), teaches(P, C, A), parent(P, S)."
        )
        db = university_database(parent_teacher_pairs=1, seed=3)
        answers = naive_join_eval(q, db)
        some = next(iter(answers.rows)) if answers else None
        if some is not None:
            assert tuple_of_query(q, db, some)
        assert not tuple_of_query(q, db, ("nobody", "nocourse"))

    def test_arity_checked(self):
        q = parse_query("ans(X) :- r(X, Y).")
        db = random_database(q, 3, 3, seed=0)
        with pytest.raises(EvaluationError):
            tuple_of_query(q, db, (1, 2))

    def test_constant_head_position(self):
        q = parse_query("r(X, Y)").with_head(
            (parse_query("r(X, Y)").atoms[0].terms[0],)
        )
        db = random_database(q, 3, 5, seed=1)
        answers = naive_join_eval(q, db)
        for row in answers.rows:
            assert tuple_of_query(q, db, row)
