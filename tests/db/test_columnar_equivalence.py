"""Property suite: the columnar kernels ≡ the row kernels.

The row engine is the oracle.  For every random database and query
family, each operator (semijoin / join / project) must produce the same
row set whether the operands are row or columnar, and the engine must
give the same answers under every layout.  (The Yannakakis passes over
columnar operands, and over every other carrier, are
``test_sweep_equivalence.py``.)

``TestSemijoinOnBuffers`` is the semijoin's own property: a columnar
receiver filters against a columnar partner column-against-column, and
must keep Python equality (``1 == 1.0 == True``) by handing every pair
of columns it cannot compare as machine numbers to the key-set probe.

The same holds with a weight column: ``TestWeightedColumnarEquivalence``
checks weighted columnar ≡ ``AnnotatedRelation`` ≡ a brute-force fold /
``naive_annotated_eval`` across key-column encodings, including weights
and counts that leave int64 (which must come back as the exact Python
integers of the row path).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.atoms import Variable
from repro.core.parser import parse_query
from repro.core.query import ConjunctiveQuery
from repro.db import (
    COUNTING,
    Database,
    Relation,
    bind_atom,
    enumerate_answers,
    naive_boolean_eval,
    naive_join_eval,
    to_columnar,
)
from repro.db import columnar as columnar_mod
from repro.db.annotated import AnnotatedRelation, naive_annotated_eval
from repro.db.columnar import (
    ColumnarRelation,
    lift_columnar,
    rides_buffers,
    weighted_view,
)
from repro.db.semiring import INT_RING
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import random_database
from tests.conftest import star_query

needs_numpy = pytest.mark.skipif(
    columnar_mod._np is None, reason="vectorised kernels need numpy"
)


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def _tree_and_relations(query, db):
    tree = join_tree(query)
    return tree, {a: bind_atom(a, db) for a in query.atoms}


class TestOperatorEquivalence:
    """What the columnar kernels do beyond giving the row carrier's
    answer (that, for every operator and every mix of carriers, is
    ``test_carrier_protocol.py``)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        domain=st.integers(1, 12),
        n=st.integers(0, 80),
        order=st.permutations(["a", "b", "c"]),
    )
    def test_pure_permutation_projection_shares_buffers(
        self, seed, domain, n, order
    ):
        """A projection onto all attributes cannot collapse rows, so the
        columnar kernel permutes the column objects instead of routing
        the rows through a dedup set."""
        import random

        rng = random.Random(seed)
        mixed = ["x", "y", 3]  # column b dictionary-encodes
        rows = [
            (rng.randrange(domain), rng.choice(mixed), rng.randrange(domain))
            for _ in range(n)
        ]
        from repro.db import Relation

        r = Relation.from_rows(("a", "b", "c"), rows, "r")
        c = to_columnar(r)
        out = c.project(order, name="p")
        assert isinstance(out, ColumnarRelation)
        assert out.attributes == tuple(order) and out.name == "p"
        assert out.rows == r.project(order).rows
        assert len(out) == len(r)
        for attr, col in zip(out.attributes, out.columns):
            assert col is c.columns[c.attributes.index(attr)]


#: What a key column may hold, one entry per encoding it lands in (or
#: straddles): int64 / float64 buffers, dictionary codes, values equal
#: across types, ints at and past the int64 boundary (2**63 and 2**64
#: dictionary-encode a column, -2**63 does not), and int64 columns so
#: wide that no joint radix key exists.
KEY_DOMAINS = {
    "int": (0, 1, 2, 3),
    "float": (0.0, 1.0, 2.5, -0.0),
    "bool": (True, False),
    "str": ("a", "b", "1"),
    "mixed": (1, 1.0, True, 0, None, "a"),
    "big": (0, 1, 2**62, -(2**62), 2**63, -(2**63), 2**64),
    "wide": (0, 1, 2**62, -(2**62), 2**63 - 1, -(2**63)),
}


@st.composite
def semijoin_pairs(draw):
    """``(attributes, rows)`` of a receiver and a partner sharing 1-3
    key attributes; each side's key columns draw from their own domain
    half the time (kinds that differ) and from the same one otherwise."""
    shared = tuple(f"k{i}" for i in range(draw(st.integers(1, 3))))
    names = st.sampled_from(sorted(KEY_DOMAINS))
    domains = [draw(names) for _ in shared]
    sides = []
    for extra in ("l", "r"):
        columns = [
            st.sampled_from(KEY_DOMAINS[name]) for name in domains
        ]
        rows = draw(
            st.lists(st.tuples(*columns, st.integers(0, 2)), max_size=40)
        )
        sides.append((shared + (extra,), rows))
        if draw(st.booleans()):
            domains = [draw(names) for _ in shared]
    return sides


class TestSemijoinOnBuffers:
    """columnar ⋉ columnar ≡ row ⋉ row, whatever the columns hold."""

    @settings(max_examples=120, deadline=None)
    @given(pair=semijoin_pairs(), weighted=st.booleans())
    def test_semijoin_matches_the_row_carrier(self, pair, weighted):
        (l_attrs, l_rows), (r_attrs, r_rows) = pair
        row_left = Relation.from_rows(l_attrs, l_rows, "l")
        row_right = Relation.from_rows(r_attrs, r_rows, "r")
        expected = row_left.semijoin(row_right).rows
        weights = {row: 1 + i % 5 for i, row in enumerate(row_left.rows)}
        if weighted:
            row_left = AnnotatedRelation.lift(row_left, COUNTING, weights)
            left = lift_columnar(row_left, COUNTING)
        else:
            left = to_columnar(row_left)
        right = to_columnar(row_right)
        assert isinstance(right, ColumnarRelation)
        for receiver, partner in (
            (left, right),
            (left, row_right),
            (row_left, right),
        ):
            out = receiver.semijoin(partner)
            assert type(out) is type(receiver)
            assert out.attributes == l_attrs and out.name == "l"
            assert len(out) == len(expected) and set(out.rows) == expected
            if len(expected) == len(row_left):
                assert out is receiver  # nothing filtered
            if weighted:
                assert out.annotations == {r: weights[r] for r in expected}
                assert out.semiring is COUNTING
                if isinstance(out, ColumnarRelation) and expected:
                    assert out.bound == receiver.bound == max(weights.values())

    @pytest.mark.parametrize(
        "left_keys, right_keys, comparable",
        [
            pytest.param([(1,), (2,)], [(1.0,), (3.5,)], True, id="i_vs_f"),
            pytest.param([(1,), (2,)], [(True,), ("x",)], True, id="i_vs_o"),
            pytest.param([(1.0,), (2.5,)], [(1,), (None,)], True, id="f_vs_o"),
            pytest.param(
                [(2**62, -(2**62)), (0, 1)], [(2**62, -(2**62)), (5, 5)],
                False, id="joint_radix_past_2**62",
            ),
            pytest.param(
                [(1.5, 1), (2.5, 2)], [(1.5, 1), (2.5, 3)],
                False, id="float_in_a_2-key",
            ),
        ],
    )
    def test_python_equality_cases_take_the_key_set(
        self, monkeypatch, left_keys, right_keys, comparable
    ):
        """Each fallback named in ``_np_semijoin_mask`` is reached (the
        partner is asked for its key set) and agrees with the row
        carrier.  A partner holding the receiver's own keys is
        *comparable* on the buffers where the kinds were the obstacle,
        and not where no int64 row key exists."""
        asked = []
        original = ColumnarRelation.key_set

        def spy(self, attributes):
            asked.append(attributes)
            return original(self, attributes)

        monkeypatch.setattr(ColumnarRelation, "key_set", spy)
        shared = tuple(f"k{i}" for i in range(len(left_keys[0])))

        def over(keys, extra):
            rows = [key + (i,) for i, key in enumerate(keys)]
            return Relation.from_rows(shared + (extra,), rows, extra)

        row_left, row_right = over(left_keys, "l"), over(right_keys, "r")
        expected = row_left.semijoin(row_right).rows
        assert 0 < len(expected) < len(row_left)
        left = to_columnar(row_left)
        assert set(left.semijoin(to_columnar(row_right)).rows) == expected
        assert asked == [shared]
        asked.clear()
        assert left.semijoin(to_columnar(over(left_keys, "r"))) is left
        on_buffers = comparable and columnar_mod._np is not None
        assert asked == ([] if on_buffers else [shared])

    def test_without_numpy_every_semijoin_takes_the_key_set(self, monkeypatch):
        monkeypatch.setattr(columnar_mod, "_np", None)
        row_left = Relation.from_rows(("a", "b"), [(i, i % 7) for i in range(40)])
        row_right = Relation.from_rows(("b", "c"), [(i, i) for i in range(3)])
        left, right = to_columnar(row_left), to_columnar(row_right)
        out = left.semijoin(right)
        assert isinstance(out, ColumnarRelation)
        assert set(out.rows) == row_left.semijoin(row_right).rows
        assert right._key_sets  # the partner's memoised probe set

    @needs_numpy
    @pytest.mark.parametrize("keys", ["int", "dictionary"])
    def test_columnar_plans_build_no_key_set(self, monkeypatch, keys):
        """The count gate: over 2 000-row relations every semijoin of a
        columnar plan — acyclic sweeps and a width-2 triangle, int and
        string-valued columns, one pool (``e`` throughout) and several —
        runs buffer to buffer.  No columnar relation is asked for a key
        set and no key set is turned back into an array."""
        cases = []
        for text in (
            "ans(A,D) :- p1(A,B), p2(B,C), p3(C,D).",
            "ans(X) :- s1(X,A), s2(X,B), s3(X,C).",
            "ans(X1,X5) :- e(X1,X2), e(X2,X3), e(X3,X4), e(X4,X5).",
            "ans(A) :- t1(A,B), t2(B,C), t3(C,A).",
        ):
            query = parse_query(text)
            db = _retyped(random_database(query, 1500, 2000, seed=7), keys)
            cases.append((query, db, naive_join_eval(query, db).rows))

        def refuse(*args, **kwargs):
            raise AssertionError("a columnar plan built a key set")

        monkeypatch.setattr(ColumnarRelation, "key_set", refuse)
        monkeypatch.setattr(columnar_mod, "_np_keys", refuse)
        engine = Engine(layout="columnar")
        for query, db, expected in cases:
            assert expected
            assert set(engine.execute(query, db).answer.rows) == expected


class TestEngineLayoutEquivalence:
    """End-to-end ``Engine.execute`` equivalence across layouts."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 40),
    )
    def test_path_engine_layout_equivalence(self, seed, domain, tuples):
        query = _with_head(path_query(3))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", layout="row").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for layout in ("columnar", "auto"):
            got = Engine(mode="heuristic", layout=layout).execute(query, db)
            assert got.answer.rows == seq.answer.rows
            assert got.answer.attributes == seq.answer.attributes

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 8),
        tuples=st.integers(1, 30),
    )
    def test_cycle_engine_layout_equivalence(self, n, seed, domain, tuples):
        """Cycles evaluate through decomposition bags (Lemma 4.6), whose
        multi-atom joins run in the column buffers under ``columnar``."""
        query = _with_head(cycle_query(n))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", layout="row").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for layout in ("columnar", "auto"):
            got = Engine(mode="heuristic", layout=layout).execute(query, db)
            assert got.answer.rows == seq.answer.rows
            assert got.answer.attributes == seq.answer.attributes

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(3, 6),
        seed=st.integers(0, 1_000),
        plant=st.booleans(),
    )
    def test_boolean_cycle_layout_equivalence(self, n, seed, plant):
        query = cycle_query(n)
        db = random_database(query, 6, 12, seed=seed, plant_answer=plant)
        expected = naive_boolean_eval(query, db)
        assert expected or not plant
        for layout in ("row", "columnar", "auto"):
            got = Engine(mode="heuristic", layout=layout).execute(query, db)
            assert got.boolean is expected, layout

    def test_semiring_requests_follow_the_layout_when_values_fit(self):
        """Counts ride a weight column under ``layout="columnar"``;
        mincost pairs cannot, and compile a row plan.  Both agree with
        the row engine."""
        query = _with_head(path_query(3))
        db = random_database(query, 6, 40, seed=9, plant_answer=True)
        row, col = (
            Engine(mode="heuristic", layout=layout)
            for layout in ("row", "columnar")
        )
        assert row.count(query, db) == col.count(query, db)
        assert row.top_k(query, db, k=3) == col.top_k(query, db, k=3)
        layouts = {
            tag: col.plan(query, db, semiring=tag).resolved_layout
            for tag in ("count", "mincost")
        }
        vectorised = rides_buffers(COUNTING)  # false without numpy
        assert layouts == {
            "count": "columnar" if vectorised else "row",
            "mincost": "row",
        }
        answer = col.execute(query, db, semiring="count").answer
        assert isinstance(answer, ColumnarRelation) == vectorised
        assert answer.semiring is COUNTING


# -- weight columns ----------------------------------------------------------

#: How the generated integer keys are re-typed, one entry per column
#: encoding: int64 buffers, float64 buffers, dictionary codes.
KEY_CASTS = {
    "int": int,
    "float": lambda v: v + 0.5,
    "dictionary": lambda v: f"k{v}",
}


def _retyped(db: Database, keys: str) -> Database:
    cast = KEY_CASTS[keys]
    out = Database()
    for predicate in db.predicates():
        out.declare(predicate, db.arity(predicate))
        for row in db.rows(predicate):
            out.add_fact(predicate, *map(cast, row))
    return out


def _hand_weighted(rels, ring, rng, lo, hi):
    """Per atom: random weights in [lo, hi] on every row, as the row
    carrier and as a weight column."""
    annotated = {
        a: AnnotatedRelation.lift(
            rel, ring, {row: rng.randint(lo, hi) for row in rel.rows}
        )
        for a, rel in rels.items()
    }
    weighted = {a: lift_columnar(rel, ring) for a, rel in annotated.items()}
    for a, rel in weighted.items():
        assert isinstance(rel, ColumnarRelation) and rel.semiring is ring
        assert rel.annotations == annotated[a].annotations
    return annotated, weighted


def _brute_fold(query, db, annotated):
    """Σ over satisfying assignments of Π of the atoms' weights, grouped
    by head row — from the naive full join, no sweep involved."""
    names = sorted(v.name for v in query.variables)
    everything = tuple(Variable(n) for n in names)
    head = [t.name for t in query.head_terms]
    out: dict[tuple, int] = {}
    for row in naive_join_eval(query.with_head(everything), db).rows:
        theta = dict(zip(names, row))
        weight = math.prod(
            rel.annotations[tuple(theta[a] for a in rel.attributes)]
            for rel in annotated.values()
        )
        key = tuple(theta[n] for n in head)
        out[key] = out.get(key, 0) + weight
    return out


@needs_numpy
class TestWeightedColumnarEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        shape=st.sampled_from(["path", "star"]),
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 40),
        keys=st.sampled_from(sorted(KEY_CASTS)),
        ring=st.sampled_from([COUNTING, INT_RING]),
    )
    def test_acyclic_sweeps_carry_hand_built_weights(
        self, shape, n, seed, domain, tuples, keys, ring
    ):
        query = _with_head(path_query(n) if shape == "path" else star_query(n))
        db = _retyped(random_database(query, domain, tuples, seed=seed), keys)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)
        # Zero is a weight like any other; negatives only exist in ℤ.
        annotated, weighted = _hand_weighted(
            rels, ring, random.Random(seed), -3 if ring is INT_RING else 0, 5
        )
        expected = _brute_fold(query, db, annotated)
        on_rows = enumerate_answers(tree, dict(annotated), output)
        assert on_rows.annotations == expected
        got = enumerate_answers(tree, dict(weighted), output)
        # Rows over several float columns have no single sort key: like
        # the plain kernel's dedup, their fold runs on tuples.
        assert isinstance(got, ColumnarRelation) or keys == "float"
        assert got.annotations == expected
        assert got.total() == sum(expected.values())
        assert got.strip().rows == on_rows.rows
        total = enumerate_answers(tree, dict(weighted), ())
        assert total.annotations == (
            {(): sum(expected.values())} if expected else {}
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 6),
        tuples=st.integers(1, 25),
        keys=st.sampled_from(sorted(KEY_CASTS)),
        head=st.integers(0, 2),
    )
    def test_width2_cycle_counts(self, seed, domain, tuples, keys, head):
        query = _with_head(cycle_query(4), head)
        db = _retyped(random_database(query, domain, tuples, seed=seed), keys)
        expected = naive_annotated_eval(query, db, COUNTING)
        on_rows = Engine(mode="heuristic", layout="row").execute(
            query, db, semiring="count"
        )
        assert on_rows.annotations == expected.annotations
        got = Engine(mode="heuristic", layout="columnar").execute(
            query, db, semiring="count"
        )
        assert got.annotations == expected.annotations
        assert got.answer.total() == expected.total()

    def test_weights_beyond_int64_stay_exact(self):
        """2**40 on every row of a 3-path: each derivation weighs
        2**120.  The kernels must hand such operands to the row carrier,
        never wrap."""
        query = _with_head(path_query(3))
        db = random_database(query, 6, 30, seed=5, plant_answer=True)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)
        big = 2**40
        annotated, weighted = _hand_weighted(
            rels, COUNTING, random.Random(0), big, big
        )
        expected = _brute_fold(query, db, annotated)
        assert expected and min(expected.values()) >= big**3
        got = enumerate_answers(tree, dict(weighted), output)
        assert got.annotations == expected
        assert got.total() == sum(expected.values())
        assert all(type(v) is int for v in got.annotations.values())


@needs_numpy
class TestWeightColumnEdges:
    def test_a_fold_that_would_overflow_is_done_on_python_ints(self):
        rel = to_columnar(
            Relation.from_rows(("a", "b"), [(1, i) for i in range(4)], "r")
        )
        heavy = weighted_view(rel, COUNTING, dict.fromkeys(rel, 2**62))
        assert heavy.bound == 2**62
        folded = heavy.project(["a"])
        assert folded.annotations == {(1,): 2**64}
        assert heavy.total() == 2**64 == heavy.project([]).total()
        # ... while one that fits stays on the buffers.
        light = weighted_view(rel, COUNTING, dict.fromkeys(rel, 2**60))
        folded = light.project(["a"])
        assert isinstance(folded, ColumnarRelation)
        assert folded.annotations == {(1,): 2**62} and folded.bound == 2**62

    def test_values_that_cannot_ride_are_refused(self):
        rel = to_columnar(Relation.from_rows(("a",), [(1,), (2,)], "r"))
        assert weighted_view(rel, COUNTING, {(1,): 2**63}) is None
        assert weighted_view(rel, COUNTING, {(1,): 0.5}) is None
        lifted = lift_columnar(
            AnnotatedRelation.lift(rel, COUNTING, {(1,): 2**63}), COUNTING
        )
        assert isinstance(lifted, AnnotatedRelation)
        assert lifted.annotations == {(1,): 2**63, (2,): 1}

    def test_engine_count_beyond_int64(self):
        """13 hops over the complete digraph on 32 nodes: 32**14 = 2**70
        derivations, more than int64 holds."""
        body = ", ".join(f"e(X{i},X{i + 1})" for i in range(13))
        query = parse_query(f"ans() :- {body}.")
        db = Database.from_relations(
            {"e": [(i, j) for i in range(32) for j in range(32)]}
        )
        got = Engine(layout="columnar").count(query, db)
        assert got == Engine(layout="row").count(query, db) == 32**14
        assert type(got) is int

    def test_lift_passes_a_weighted_operand_through(self):
        rel = to_columnar(Relation.from_rows(("a",), [(1,), (2,)], "r"))
        weighted = weighted_view(rel, COUNTING, {(1,): 7})
        assert AnnotatedRelation.lift(weighted, COUNTING) is weighted
        assert lift_columnar(weighted, COUNTING) is weighted
        assert to_columnar(weighted) is weighted
        assert weighted.annotation((1,)) == 7 and weighted.annotation((9,)) == 0
        assert weighted.strip().annotations is None

    def test_rows_and_annotations_are_one_decode(self):
        """As on the row carrier, an answer's rows *are* the keys of its
        annotation map: a consumer that pairs them holds one generation
        of tuples, whichever it asks for first."""
        rows = [(i, i + 1) for i in range(50)]
        rel = to_columnar(Relation.from_rows(("a", "b"), rows, "r"))
        for rows_first in (False, True):
            weighted = weighted_view(rel, COUNTING, dict.fromkeys(rows, 3))
            view = weighted.rows
            if rows_first:
                assert sorted(view) == rows  # decodes from the buffers
            keys = {id(row) for row in weighted.annotations}
            assert {id(row) for row in view} == keys
            assert {id(row) for row in view.frozen()} == keys
            assert [weighted.annotations[row] for row in view] == [3] * 50

    def test_empty_and_zero_ary_under_the_columnar_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LAYOUT", "columnar")
        engine = Engine()
        assert engine.layout == "columnar"
        db = Database.from_relations({"s": [(i, i + 1) for i in range(12)]})
        db.declare("r", 2)
        for text, expected in (
            ("ans(X) :- r(X,Y), s(Y,Z).", {}),  # an empty relation
            ("ans() :- r(X,Y), s(Y,Z).", {}),  # ... and 0-ary
            ("ans() :- s(X,Y), s(Y,Z).", {(): 11}),  # 0-ary, non-empty
            ("ans(X) :- s(X,Y), s(Y,Z).", {(i,): 1 for i in range(11)}),
        ):
            result = engine.execute(parse_query(text), db, semiring="count")
            assert result.answer.semiring is COUNTING
            assert set(result.answer.rows) == set(expected)
            assert result.annotations == expected
            assert result.answer.total() == sum(expected.values())

    def test_without_numpy_count_plans_compile_row(self, monkeypatch):
        query = _with_head(path_query(3))
        db = random_database(query, 6, 40, seed=9, plant_answer=True)
        expected = Engine(layout="columnar").execute(
            query, db, semiring="count"
        )
        monkeypatch.setattr(columnar_mod, "_np", None)
        engine = Engine(layout="columnar")
        plan = engine.plan(query, db, semiring="count")
        assert plan.resolved_layout == "row"
        assert "columnar" not in engine.explain(query, db, semiring="count")
        got = engine.execute(query, db, semiring="count")
        assert isinstance(got.answer, AnnotatedRelation)
        assert got.annotations == expected.annotations
        # Set semantics keeps its (pure-python) columnar kernels.
        assert engine.plan(query, db).resolved_layout == "columnar"
