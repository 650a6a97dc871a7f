"""Cross-semantics consistency suite for semiring evaluation.

Brute force over all variable assignments is the oracle.  For random
path / star / cycle workloads:

* ℕ-semiring totals equal brute-force bag counts (and, per answer row,
  the number of satisfying extensions); under duplicate-free inputs the
  answer row set equals the set-semantics answer;
* the min-cost annotation equals the brute-force cheapest derivation,
  and its witness replays: evaluating the query over just the witness
  facts re-derives the answer at the same cost;
* every why-provenance witness set reproduces its answer when replayed
  as a database;
* probability annotations stay within [0, 1] for in-range weights;
* the row and the columnar engine give every exact semiring's
  brute-force annotations (counting and ℤ on weight columns where numpy
  loads, the others on row plans), and agree with each other on the
  approximate probability one.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db import (
    COUNTING,
    MINCOST,
    PROB,
    PROVENANCE,
    Database,
    get_semiring,
    resolve_semiring,
)
from repro.db.annotated import (
    AnnotatedRelation,
    bind_atom_annotated,
    naive_annotated_eval,
)
from repro.db.semiring import INT_RING, SEMIRINGS
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import assign_weights, random_database


def star_query(n: int) -> ConjunctiveQuery:
    """``e(C, X1), ..., e(C, Xn)`` — one hub, n rays (acyclic)."""
    c = Variable("C")
    atoms = tuple(Atom("e", (c, Variable(f"X{i}"))) for i in range(n))
    return ConjunctiveQuery(atoms, (), f"star{n}")


def _with_head(query: ConjunctiveQuery, n: int = 2) -> ConjunctiveQuery:
    head = sorted(query.variables, key=lambda v: v.name)[:n]
    return query.with_head(tuple(head))


FAMILIES = [_with_head(path_query(3)), _with_head(star_query(3)),
            _with_head(cycle_query(4))]

#: The engine under the default layout policy (``$REPRO_LAYOUT``).
ENGINE = Engine()


def evaluate(query, db, semiring=None):
    """The engine's answer relation for *query* on *db*."""
    return ENGINE.execute(query, db, semiring=semiring).answer


def brute_annotations(query, db, semiring):
    """Oracle: fold every satisfying assignment through the semiring."""
    variables = sorted(query.variables, key=lambda v: v.name)
    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    head_pos = [
        next(i for i, v in enumerate(variables) if v.name == name)
        for name in head
    ]
    domain = sorted(db.universe, key=repr)
    out: dict[tuple, object] = {}
    for values in itertools.product(domain, repeat=len(variables)):
        theta = dict(zip(variables, values))
        value = semiring.one
        for atom in query.atoms:
            row = tuple(
                theta[t] if isinstance(t, Variable) else t.value
                for t in atom.terms
            )
            if not db.has_predicate(atom.predicate) or row not in db.rows(
                atom.predicate
            ):
                value = None
                break
            value = semiring.times(value, semiring.lift(db, atom.predicate, row))
        if value is None:
            continue
        key = tuple(values[p] for p in head_pos)
        out[key] = (
            value if key not in out else semiring.plus(out[key], value)
        )
    return head, out


class TestAlgebra:
    def test_registry_round_trip(self):
        for tag in ("count", "int", "mincost", "provenance", "prob"):
            assert get_semiring(tag).tag == tag
        with pytest.raises(ValueError):
            get_semiring("nope")
        assert resolve_semiring(None) is None
        assert resolve_semiring("set") is None
        assert resolve_semiring("count") is COUNTING
        assert resolve_semiring(MINCOST) is MINCOST
        with pytest.raises(TypeError):
            resolve_semiring(3)

    def test_counting_laws(self):
        s = COUNTING
        assert s.plus(s.zero, 5) == 5
        assert s.times(s.one, 5) == 5
        assert s.times(s.zero, 5) == 0
        assert s.plus(2, 3) == 5 and s.times(2, 3) == 6

    def test_int_ring_inverses(self):
        assert INT_RING.plus(3, INT_RING.negate(3)) == INT_RING.zero
        assert INT_RING.minus(5, 2) == 3

    def test_mincost_prefers_cheaper_and_ties_deterministically(self):
        a = (1.0, (("e", (1, 2)),))
        b = (2.0, (("e", (3, 4)),))
        assert MINCOST.plus(a, b) == a
        assert MINCOST.plus(b, a) == a
        c = (1.0, (("e", (9, 9)),))
        assert MINCOST.plus(a, c) == MINCOST.plus(c, a)

    def test_mincost_times_sums_and_dedupes(self):
        a = (1.0, (("e", (1, 2)),))
        cost, witness = MINCOST.times(a, a)
        assert cost == 2.0  # charged per atom occurrence...
        assert witness == (("e", (1, 2)),)  # ...listed once

    def test_provenance_times_is_pairwise_union(self):
        x = frozenset({frozenset({("e", (1, 2))})})
        y = frozenset({frozenset({("e", (2, 3))}), frozenset({("e", (2, 4))})})
        assert PROVENANCE.times(x, y) == frozenset(
            {
                frozenset({("e", (1, 2)), ("e", (2, 3))}),
                frozenset({("e", (1, 2)), ("e", (2, 4))}),
            }
        )

    def test_prob_noisy_or_absorbs_at_one(self):
        assert PROB.plus(0.5, 0.5) == 0.75
        assert PROB.is_absorbing(1.0)
        assert not PROB.is_absorbing(0.999)


class TestAnnotatedProject:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        n=st.integers(0, 40),
        order=st.permutations(["a", "b", "c"]),
        semiring=st.sampled_from([COUNTING, MINCOST, PROB]),
    )
    def test_a_permutation_rekeys_without_folding(
        self, seed, n, order, semiring
    ):
        """All columns, reordered: nothing collapses, every row keeps
        its own annotation (``plus`` never runs — MINCOST's would pick
        one of two equal rows' witnesses, PROB's would round)."""
        import random

        from repro.db import Relation

        rng = random.Random(seed)
        rel = Relation.from_rows(
            ("a", "b", "c"),
            [tuple(rng.randrange(4) for _ in range(3)) for _ in range(n)],
            "r",
        )
        values = {
            row: semiring.times(semiring.one, semiring.one)
            if semiring is MINCOST
            else rng.randrange(1, 9) / (10 if semiring is PROB else 1)
            for row in rel.rows
        }
        ann = AnnotatedRelation.lift(rel, semiring, values)
        out = ann.project(order, name="p")
        positions = [("a", "b", "c").index(a) for a in order]
        assert out.attributes == tuple(order) and out.name == "p"
        assert out.annotations == {
            tuple(row[p] for p in positions): value
            for row, value in ann.annotations.items()
        }
        assert out.rows == frozenset(out.annotations)
        assert out.project(["a", "b", "c"]).annotations == ann.annotations


class TestCountsMatchBruteForce:
    @settings(max_examples=8, deadline=None)
    @given(
        family=st.integers(0, len(FAMILIES) - 1),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 6),
        tuples=st.integers(1, 20),
        method=st.sampled_from(["row", "columnar", "naive"]),
    )
    def test_count_equals_bag_count(
        self, engines, family, seed, domain, tuples, method
    ):
        query = FAMILIES[family]
        db = random_database(query, domain, tuples, seed=seed)
        _, expected = brute_annotations(query, db, COUNTING)
        if method == "naive":
            answer = naive_annotated_eval(query, db, COUNTING)
        else:
            answer = engines[method].execute(
                query, db, semiring=COUNTING
            ).answer
        got = {
            row: answer.annotation(row) for row in answer.rows
        }
        assert got == expected
        # ℕ total == brute-force bag count; set answers == distinct rows.
        assert answer.total() == sum(expected.values())
        plain = evaluate(query, db)
        assert set(plain.rows) == set(expected)
        assert len(plain) == len(expected)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500), tuples=st.integers(1, 15))
    def test_boolean_count_totals(self, seed, tuples):
        query = cycle_query(4)
        db = random_database(query, 5, tuples, seed=seed)
        _, expected = brute_annotations(query, db, COUNTING)
        answer = evaluate(query, db, semiring=COUNTING)
        assert answer.total() == sum(expected.values())


class TestMinCost:
    @settings(max_examples=6, deadline=None)
    @given(
        family=st.integers(0, len(FAMILIES) - 1),
        seed=st.integers(0, 500),
        tuples=st.integers(1, 15),
        skew=st.floats(0.0, 0.9),
    )
    def test_mincost_matches_bruteforce_and_witness_replays(
        self, family, seed, tuples, skew
    ):
        query = FAMILIES[family]
        db = random_database(
            query, 5, tuples, seed=seed, weights="cost", weight_skew=skew
        )
        _, expected = brute_annotations(query, db, MINCOST)
        answer = evaluate(query, db, semiring=MINCOST)
        assert set(answer.rows) == set(expected)
        for row in answer.rows:
            cost, witness = answer.annotation(row)
            assert cost == pytest.approx(expected[row][0])
            # The witness is an actual derivation: replaying only its
            # facts (with their weights) re-derives the row at its cost.
            replay = Database()
            for predicate, fact in witness:
                replay.add_fact(
                    predicate, *fact, weight=db.weight(predicate, fact)
                )
            replayed = evaluate(query, replay, semiring=MINCOST)
            assert row in replayed.rows
            assert replayed.annotation(row)[0] == pytest.approx(cost)


class TestProvenance:
    @settings(max_examples=6, deadline=None)
    @given(
        family=st.integers(0, len(FAMILIES) - 1),
        seed=st.integers(0, 500),
        tuples=st.integers(1, 12),
    )
    def test_witness_sets_replay(self, family, seed, tuples):
        query = FAMILIES[family]
        db = random_database(query, 5, tuples, seed=seed)
        answer = evaluate(query, db, semiring=PROVENANCE)
        plain = evaluate(query, db)
        assert set(answer.rows) == set(plain.rows)
        for row in answer.rows:
            witness_sets = answer.annotation(row)
            assert witness_sets
            for witness in witness_sets:
                replay = Database()
                for predicate, fact in witness:
                    replay.add_fact(predicate, *fact)
                for p, arity in query.arities.items():
                    replay.declare(p, arity)
                assert row in evaluate(query, replay).rows


class TestProbability:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 500), tuples=st.integers(1, 15))
    def test_probabilities_in_unit_interval(self, seed, tuples):
        query = FAMILIES[0]
        db = random_database(query, 5, tuples, seed=seed, weights="prob")
        _, expected = brute_annotations(query, db, PROB)
        answer = evaluate(query, db, semiring=PROB)
        assert set(answer.rows) == set(expected)
        for row in answer.rows:
            value = answer.annotation(row)
            assert 0.0 < value <= 1.0
            assert value == pytest.approx(expected[row])


@pytest.fixture(scope="module")
def engines():
    made = {layout: Engine(layout=layout) for layout in ("row", "columnar")}
    yield made
    for engine in made.values():
        engine.close()


#: The per-fact weights each semiring reads (the others lift every fact
#: to a constant).
WEIGHTS = {"mincost": "cost", "prob": "prob"}


def _same_fold(tag, got, expected):
    assert set(got) == set(expected)
    for row, value in got.items():
        if tag == "mincost":  # ties may pick different witnesses
            assert value[0] == pytest.approx(expected[row][0])
        elif tag == "prob":  # noisy-or is float-associative up to rounding
            assert value == pytest.approx(expected[row])
        else:
            assert value == expected[row]


class TestLayoutsAgree:
    """Every semiring × every family, on the row and the columnar
    engine: the brute-force fold."""

    @pytest.mark.parametrize(
        "family", range(len(FAMILIES)), ids=["path", "star", "cycle"]
    )
    @pytest.mark.parametrize("tag", sorted(SEMIRINGS))
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 500), tuples=st.integers(1, 12))
    def test_layouts_agree(self, engines, tag, family, seed, tuples):
        query = FAMILIES[family]
        db = random_database(
            query, 4, tuples, seed=seed, weights=WEIGHTS.get(tag)
        )
        _, expected = brute_annotations(query, db, SEMIRINGS[tag])
        row, col = (
            engines[layout].execute(query, db, semiring=tag)
            for layout in ("row", "columnar")
        )
        for result in (row, col):
            assert result.answer.rows == frozenset(expected)
        _same_fold(tag, row.annotations, expected)
        _same_fold(tag, col.annotations, expected)


class TestEmptyPartnerKeepsFlavour:
    """An empty partner empties a relation; it must not change what kind
    of relation it is.  ``ans(X) :- r(X,Y), s(Y,Z)`` with ``r`` empty,
    COUNT-annotated: the answer and every fully reduced node stay
    annotated (total 0)."""

    def test_sweeps_stay_annotated(self):
        from repro.core.acyclicity import join_tree
        from repro.core.parser import parse_query
        from repro.db import enumerate_answers, full_reduce

        query = parse_query("ans(X) :- r(X,Y), s(Y,Z).")
        db = Database.from_relations({"s": [(i, i + 1) for i in range(12)]})
        db.declare("r", 2)
        tree = join_tree(query)
        rels = {a: bind_atom_annotated(a, db, COUNTING) for a in query.atoms}
        answer = enumerate_answers(tree, dict(rels), ("X",))
        assert isinstance(answer, AnnotatedRelation)
        assert not answer.rows and answer.total() == 0
        for rel in full_reduce(tree, dict(rels)).values():
            assert isinstance(rel, AnnotatedRelation)
            assert not rel.rows and rel.total() == 0


class TestWeightGenerators:
    def test_assign_weights_is_seeded_and_in_range(self):
        query = FAMILIES[0]
        a = random_database(query, 5, 20, seed=3, weights="cost")
        b = random_database(query, 5, 20, seed=3, weights="cost")
        assert a.has_weights() and b.has_weights()
        for p in a.predicates():
            for row in a.rows(p):
                assert a.weight(p, row) == b.weight(p, row)
                assert 0.0 <= a.weight(p, row) < 10.0
        c = random_database(query, 5, 20, seed=3, weights="prob")
        for p in c.predicates():
            for row in c.rows(p):
                assert 0.0 < c.weight(p, row) <= 1.0

    def test_assign_weights_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            assign_weights(Database(), kind="volts")
