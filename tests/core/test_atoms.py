"""Unit tests for terms and atoms (paper §2.1)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.atoms import (
    Atom,
    Constant,
    Variable,
    atom,
    is_variable,
    variables_of,
)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable_and_usable_in_sets(self):
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_ordering_is_by_name(self):
        assert Variable("A") < Variable("B")

    def test_str(self):
        assert str(Variable("Pers1")) == "Pers1"


class TestConstant:
    def test_equality_by_value(self):
        assert Constant(3) == Constant(3)
        assert Constant(3) != Constant("3")

    def test_str_quotes_strings(self):
        assert str(Constant("a")) == "'a'"
        assert str(Constant(42)) == "42"


class TestAtom:
    def test_variables_excludes_constants(self):
        a = Atom("r", (Variable("X"), Constant(1), Variable("Y")))
        assert a.variables == {Variable("X"), Variable("Y")}
        assert a.constants == {Constant(1)}

    def test_arity(self):
        assert Atom("r", (Variable("X"),)).arity == 1
        assert Atom("r", ()).arity == 0

    def test_repeated_variable_counted_once(self):
        a = Atom("r", (Variable("X"), Variable("X")))
        assert a.variables == {Variable("X")}

    def test_equality_is_structural(self):
        a = Atom("r", (Variable("X"),))
        b = Atom("r", (Variable("X"),))
        assert a == b and hash(a) == hash(b)

    def test_rename_substitutes_variables_only(self):
        a = Atom("r", (Variable("X"), Constant(1)))
        renamed = a.rename({Variable("X"): Variable("Z")})
        assert renamed == Atom("r", (Variable("Z"), Constant(1)))

    def test_rename_to_constant(self):
        a = Atom("r", (Variable("X"),))
        assert a.rename({Variable("X"): Constant(5)}).constants == {Constant(5)}

    def test_rename_leaves_unmapped_variables(self):
        a = Atom("r", (Variable("X"), Variable("Y")))
        renamed = a.rename({Variable("X"): Variable("Z")})
        assert Variable("Y") in renamed.variables

    def test_str(self):
        a = Atom("enrolled", (Variable("S"), Variable("C")))
        assert str(a) == "enrolled(S, C)"

    def test_terms_coerced_to_tuple(self):
        a = Atom("r", [Variable("X")])  # type: ignore[arg-type]
        assert isinstance(a.terms, tuple)

    def test_memoised_hash_does_not_cross_a_process_boundary(self):
        """``hash(str)`` is per-process, so an atom's memoised hash must
        be recomputed where it is unpickled: an atom from an interpreter
        under another ``PYTHONHASHSEED`` is found as a dict key here, and
        one pickled here is found there."""
        mine = Atom("enrolled", (Variable("S"), Constant("cs"), Constant(3)))
        child = (
            "import pickle, sys\n"
            "from repro.core.atoms import Atom, Constant, Variable\n"
            "theirs = pickle.loads(sys.stdin.buffer.read())\n"
            "own = Atom('enrolled', (Variable('S'), Constant('cs'), Constant(3)))\n"
            "assert {own: 1}[theirs] == 1 and theirs in {own}\n"
            "assert theirs.variables == own.variables\n"
            "sys.stdout.buffer.write(pickle.dumps((own, hash(own))))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        seen = set()
        for hash_seed in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", child],
                input=pickle.dumps(mine), capture_output=True, check=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": str(src),
                },
            ).stdout
            theirs, their_hash = pickle.loads(out)
            assert {mine: 1}[theirs] == 1 and theirs in {mine}
            assert hash(theirs) == hash(mine)
            seen.add(their_hash)
        # The two children really hashed differently, so at least one of
        # them differs from this process: the memo cannot have travelled.
        assert len(seen) == 2


class TestAtomHelper:
    def test_uppercase_becomes_variable(self):
        a = atom("r", "X", "Y")
        assert all(is_variable(t) for t in a.terms)

    def test_underscore_becomes_variable(self):
        assert is_variable(atom("r", "_v").terms[0])

    def test_lowercase_and_numbers_become_constants(self):
        a = atom("r", "bob", 42)
        assert a.terms == (Constant("bob"), Constant(42))

    def test_existing_terms_pass_through(self):
        v = Variable("X")
        assert atom("r", v).terms[0] is v


class TestVariablesOf:
    def test_union_over_atoms(self):
        atoms = [atom("r", "X", "Y"), atom("s", "Y", "Z")]
        assert variables_of(atoms) == {Variable(n) for n in "XYZ"}

    def test_empty(self):
        assert variables_of([]) == frozenset()

    @given(st.lists(st.sampled_from("VWXYZ"), max_size=8))
    def test_matches_manual_union(self, names):
        atoms = [atom("r", n) for n in names]
        assert variables_of(atoms) == {Variable(n) for n in names}
