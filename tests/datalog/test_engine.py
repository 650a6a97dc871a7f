"""Tests for the Datalog engine: least model, stratified, well-founded."""

import pytest

from repro import Engine
from repro._errors import BudgetExceeded, DatalogError, SchemaError
from repro.core.atoms import atom
from repro.datalog import engine as datalog_engine
from repro.datalog.engine import (
    holds,
    least_model,
    stratified_model,
    well_founded_model,
)
from repro.datalog.program import Program, neg, rule


def tc_program() -> Program:
    """Transitive closure (the canonical positive recursion)."""
    return Program.of(
        [
            rule(atom("t", "X", "Y"), atom("e", "X", "Y")),
            rule(atom("t", "X", "Z"), atom("e", "X", "Y"), atom("t", "Y", "Z")),
        ]
    )


class TestLeastModel:
    def test_transitive_closure(self):
        edb = {"e": {(1, 2), (2, 3), (3, 4)}}
        facts = least_model(tc_program(), edb)
        assert facts["t"] == {
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4),
        }

    def test_cycle_closure(self):
        edb = {"e": {(1, 2), (2, 1)}}
        facts = least_model(tc_program(), edb)
        assert (1, 1) in facts["t"] and (2, 2) in facts["t"]

    def test_constants_in_rules(self):
        p = Program.of([rule(atom("out", "X"), atom("e", 1, "X"))])
        facts = least_model(p, {"e": {(1, 5), (2, 6)}})
        assert facts["out"] == {(5,)}

    def test_facts_as_rules(self):
        p = Program.of([rule(atom("base", 7)), rule(atom("copy", "X"), atom("base", "X"))])
        facts = least_model(p, {})
        assert holds(facts, "copy", 7)

    def test_join_in_body(self):
        p = Program.of(
            [rule(atom("gp", "X", "Z"), atom("par", "X", "Y"), atom("par", "Y", "Z"))]
        )
        facts = least_model(p, {"par": {("a", "b"), ("b", "c")}})
        assert facts["gp"] == {("a", "c")}

    def test_frozen_negation(self):
        p = Program.of(
            [rule(atom("only", "X"), atom("e", "X"), neg(atom("blocked", "X")))]
        )
        facts = least_model(
            p, {"e": {(1,), (2,)}}, frozen={"blocked": {(2,)}}
        )
        assert facts["only"] == {(1,)}

    def test_semi_naive_matches_naive_iteration(self):
        # Deep recursion exercising the delta bookkeeping.
        edb = {"e": {(i, i + 1) for i in range(30)}}
        facts = least_model(tc_program(), edb)
        assert len(facts["t"]) == 30 * 31 // 2

    def test_rule_may_name_a_predicate_like_a_delta(self):
        p = Program.of(
            list(tc_program().rules)
            + [rule(atom("Δt", "X", "Y"), atom("t", "X", "Y"))]
        )
        facts = least_model(p, {"e": {(1, 2), (2, 3)}})
        assert facts["Δt"] == facts["t"] == {(1, 2), (2, 3), (1, 3)}


class TestArity:
    def test_head_arity_differs_from_edb(self):
        p = Program.of([rule(atom("e", "X"), atom("f", "X"))])
        with pytest.raises(SchemaError):
            least_model(p, {"e": {(1, 2)}, "f": {(5,)}})

    def test_body_predicate_at_two_arities(self):
        p = Program.of(
            [
                rule(atom("p", "X"), atom("e", "X")),
                rule(atom("q", "X"), atom("e", "X", "Y")),
            ]
        )
        with pytest.raises(SchemaError):
            least_model(p, {"e": {(1, 2)}})


class TestThroughTheEngine:
    """Rule bodies are engine requests: the engine's plan cache and
    budget apply to them."""

    def test_second_model_reuses_the_decompositions(self, monkeypatch):
        engine = Engine()
        monkeypatch.setattr(datalog_engine, "_ENGINE", engine)
        least_model(tc_program(), {"e": {(1, 2), (2, 3)}})
        searched = engine.decompositions
        assert searched > 0
        facts = least_model(tc_program(), {"e": {("a", "b"), ("b", "a")}})
        assert facts["t"] == {("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")}
        assert engine.decompositions == searched

    def test_budget_exceeded_is_typed(self, monkeypatch):
        monkeypatch.setattr(datalog_engine, "_ENGINE", Engine(budget=0))
        with pytest.raises(BudgetExceeded):
            least_model(tc_program(), {"e": {(1, 2), (2, 3)}})


class TestSafety:
    def test_unsafe_head_rejected(self):
        with pytest.raises(DatalogError):
            rule(atom("p", "X"), atom("q", "Y"))

    def test_unsafe_negation_rejected(self):
        with pytest.raises(DatalogError):
            rule(atom("p", "X"), atom("q", "X"), neg(atom("r", "Z")))


class TestStratified:
    def test_negation_across_strata(self):
        p = Program.of(
            [
                rule(atom("reach", "X"), atom("e", 0, "X")),
                rule(atom("reach", "Y"), atom("reach", "X"), atom("e", "X", "Y")),
                rule(atom("unreach", "X"), atom("node", "X"), neg(atom("reach", "X"))),
            ]
        )
        assert p.is_stratified
        facts = stratified_model(
            p,
            {"e": {(0, 1), (1, 2), (5, 6)}, "node": {(i,) for i in range(7)}},
        )
        # reached = {1, 2} (via the edge fan-out from 0; 0 has no in-edge)
        assert facts["unreach"] == {(0,), (3,), (4,), (5,), (6,)}

    def test_unstratified_detected(self):
        p = Program.of(
            [
                rule(atom("win", "X"), atom("move", "X", "Y"), neg(atom("win", "Y"))),
            ]
        )
        assert not p.is_stratified
        with pytest.raises(ValueError):
            stratified_model(p, {"move": set()})


class TestWellFounded:
    def test_win_move_game(self):
        """The classic game program: positions with no move are lost;
        win(X) iff some move leads to a lost position."""
        p = Program.of(
            [rule(atom("win", "X"), atom("move", "X", "Y"), neg(atom("win", "Y")))]
        )
        # a -> b -> c (c has no moves: lost; b wins; a lost)
        true, undefined = well_founded_model(
            p, {"move": {("a", "b"), ("b", "c")}}
        )
        assert holds(true, "win", "b")
        assert not holds(true, "win", "a")
        assert not undefined

    def test_draw_cycle_is_undefined(self):
        p = Program.of(
            [rule(atom("win", "X"), atom("move", "X", "Y"), neg(atom("win", "Y")))]
        )
        true, undefined = well_founded_model(
            p, {"move": {("a", "b"), ("b", "a")}}
        )
        assert not holds(true, "win", "a")
        assert ("a",) in undefined.get("win", set())
        assert ("b",) in undefined.get("win", set())

    def test_agrees_with_stratified_when_stratified(self):
        p = Program.of(
            [
                rule(atom("p", "X"), atom("e", "X"), neg(atom("q", "X"))),
                rule(atom("q", "X"), atom("f", "X")),
            ]
        )
        edb = {"e": {(1,), (2,)}, "f": {(2,)}}
        true, undefined = well_founded_model(p, edb)
        assert not undefined
        assert true["p"] == stratified_model(p, edb)["p"]
