"""Incremental-vs-recompute equivalence (the ISSUE acceptance property).

A random update stream is applied batch by batch to a ``LiveEngine``
holding three registered shapes — an acyclic path, a star, and a
width-2 cyclic query evaluated through its hypertree decomposition —
and after every batch each view's maintained answers are cross-checked
against a from-scratch ``Engine.execute`` over the current database.
Streams mix inserts with deletes and re-insertions, so supports are
driven to zero and back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Variable
from repro.core.query import ConjunctiveQuery
from repro.db.database import Database
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import random_database, update_workload
from repro.incremental import Delta, LiveEngine


def _v(name: str) -> Variable:
    return Variable(name)


def star_query() -> ConjunctiveQuery:
    """A 3-ray star: one hub variable shared by every atom."""
    body = tuple(
        Atom("e", (_v("C"), _v(f"X{i}"))) for i in range(1, 4)
    )
    return ConjunctiveQuery(body, (_v("C"), _v("X1")), "star_3")


def shapes() -> list[ConjunctiveQuery]:
    path = path_query(3)
    path = path.with_head((_v("X1"), _v("X4")))
    cycle = cycle_query(4)
    cycle = cycle.with_head((_v("X1"), _v("X3")))
    return [path, star_query(), cycle]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    delete_ratio=st.floats(0.1, 0.7),
    batch_size=st.integers(1, 12),
)
def test_stream_equivalence_three_shapes(seed, delete_ratio, batch_size):
    base = random_database(
        cycle_query(4), domain_size=5, tuples_per_relation=12, seed=seed
    )
    stream = update_workload(
        base,
        n_batches=6,
        batch_size=batch_size,
        delete_ratio=delete_ratio,
        reinsert_ratio=0.5,
        seed=seed + 1,
    )
    live = LiveEngine(db=base)
    handles = [live.register(q) for q in shapes()]
    assert handles[2].width == 2  # the cycle really goes through its HD

    fresh = Engine()
    for handle in handles:
        expected = fresh.execute(handle.query, live.db).answer
        assert handle.answers().rows == expected.rows
        assert handle.answers().attributes == expected.attributes

    for delta in stream:
        live.apply(delta)
        for handle in handles:
            expected = fresh.execute(handle.query, live.db).answer
            assert handle.answers().rows == expected.rows, (
                handle.query.name,
                delta,
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_answer_deltas_reconstruct_answers(seed):
    """Folding the reported AnswerDeltas over the initial answer set
    reproduces ``answers()`` exactly — no change is lost or duplicated."""
    base = random_database(
        path_query(3), domain_size=4, tuples_per_relation=10, seed=seed
    )
    live = LiveEngine(db=base)
    query = path_query(3).with_head((_v("X1"), _v("X4")))
    handle = live.register(query)
    running = set(handle.answers().rows)
    for delta in update_workload(
        base, n_batches=5, batch_size=6, delete_ratio=0.5, seed=seed
    ):
        results = live.apply(delta)
        for answer_delta in results.values():
            assert not (answer_delta.inserted & running)
            assert answer_delta.deleted <= running
            running |= answer_delta.inserted
            running -= answer_delta.deleted
        assert running == set(handle.answers().rows)


def test_support_to_zero_and_reinsertion():
    """Deleting the last supporting tuple retracts the answer; putting it
    back resurrects it — the counting algorithm's signature behaviour."""
    db = Database.from_relations(
        {"e": [(1, 2), (2, 3), (3, 4)]}
    )
    live = LiveEngine(db=db)
    query = path_query(3).with_head((_v("X1"), _v("X4")))
    handle = live.register(query)
    assert handle.answers().rows == {(1, 4)}

    live.apply(Delta.deletes("e", [(2, 3)]))
    assert handle.answers().rows == set()
    live.apply(Delta.inserts("e", [(2, 3)]))
    assert handle.answers().rows == {(1, 4)}

    # Deleting twice is a no-op (shadow normalisation), and supports
    # cannot underflow.
    live.apply(Delta.deletes("e", [(2, 3)]))
    live.apply(Delta.deletes("e", [(2, 3)]))
    assert handle.answers().rows == set()


def test_boolean_view_tracks_satisfiability():
    db = Database.from_relations({"e": [(1, 2), (2, 3)]})
    live = LiveEngine(db=db)
    handle = live.register(cycle_query(3))  # Boolean triangle query
    assert not handle.boolean
    live.apply(Delta.inserts("e", [(3, 1)]))
    assert handle.boolean
    assert handle.answers().rows == {()}
    live.apply(Delta.deletes("e", [(2, 3)]))
    assert not handle.boolean
    assert handle.answers().rows == set()


def test_repeated_variables_and_constants():
    """Atoms with constants and repeated variables bind correctly under
    maintenance (the compiled feed reproduces bind_atom's semantics)."""
    from repro.core.parser import parse_query

    db = Database.from_relations(
        {"r": [(1, 1, "a"), (1, 2, "a"), (2, 2, "b")]}
    )
    live = LiveEngine(db=db)
    query = parse_query("ans(X) :- r(X, X, 'a').")
    handle = live.register(query)
    assert handle.answers().rows == {(1,)}
    live.apply(Delta.inserts("r", [(5, 5, "a"), (6, 7, "a"), (8, 8, "b")]))
    assert handle.answers().rows == {(1,), (5,)}
    live.apply(Delta.deletes("r", [(1, 1, "a")]))
    assert handle.answers().rows == {(5,)}


def test_invalid_batch_leaves_view_consistent():
    """A batch containing a bad-arity row for one predicate must not fold
    any of its other changes into the view (no partial application)."""
    import pytest

    from repro._errors import SchemaError
    from repro.engine import Engine

    db = Database.from_relations({"e": [(1, 2)], "f": [(1, 2)]})
    live = LiveEngine(db=db)
    query = ConjunctiveQuery(
        (Atom("e", (_v("X"), _v("Y"))), Atom("f", (_v("Y"), _v("Z")))),
        (_v("X"), _v("Z")),
        "two_pred",
    )
    handle = live.register(query)
    bad = Delta({"e": {(5, 6): 1}, "f": {(9, 9, 9): 1}})
    with pytest.raises(SchemaError):
        handle.view.apply(bad)
    # The e-change was not half-applied: re-sending it still works.
    handle.view.apply(Delta.inserts("e", [(5, 6)]))
    live_db = Database.from_relations({"e": [(1, 2), (5, 6)], "f": [(1, 2)]})
    expected = Engine().execute(query, live_db).answer
    assert handle.answers().rows == expected.rows


def assert_view_is_the_program(view):
    """Every non-root node's ``DeltaJoin`` keeps what its parent's
    ``Join`` of the plan's annotated program reads — the marginal, or,
    when that drops nothing, all the child holds (its χ plus what its
    own children hand it) — and the root's keeps the head."""
    from repro.db.yannakakis import Join

    plan = view.plan
    chi = {bag.node: set(bag.chi) for bag in plan.bags}
    joins = [
        op for op in plan.program(annotated=True).ops if isinstance(op, Join)
    ]
    assert len(joins) == len(plan.bags) - 1
    keep = {bag: view._nodes[bag].join.keep for bag in chi}
    for op in joins:
        below = chi[op.child].union(
            *(keep[j.child] for j in joins if j.node == op.child)
        )
        reads = below if op.marginal is None else op.marginal
        assert set(keep[op.child]) == reads, (view.query.name, op)
        assert len(keep[op.child]) == len(reads)
    assert keep[plan.join_tree.root] == plan.output


def test_live_views_rooted_at_their_head_match_recompute():
    """The four views of the end-to-end ``live_updates`` workload under a
    stream of 64-change batches.  Each is rooted at a bag that holds its
    head — ``ans(W)`` over the 3-path at ``r1``'s — so every node keeps
    only its χ, and after every batch each view still equals a
    from-scratch evaluation."""
    import random

    from repro.core.parser import parse_query
    from repro.db.naive import naive_join_eval

    rng = random.Random(7)
    # r1 the smallest, as there: the largest bag is not the head's.
    db = Database.from_relations(
        {
            p: [
                (rng.randrange(120), rng.randrange(120))
                for _ in range(150 + 10 * i)
            ]
            for i, p in enumerate(("r1", "r2", "r3", "r4"))
        }
    )
    views = [
        parse_query("ans(W) :- r1(W,X), r2(X,Y), r3(Y,Z).", name="path3"),
        parse_query("ans(X) :- r1(X,A), r2(X,B), r3(X,C).", name="star3"),
        parse_query("ans(A) :- r1(A,B), r2(B,C), r3(C,A).", name="triangle"),
        parse_query("ans() :- r1(A,B), r2(B,C), r3(C,D), r4(D,E).",
                    name="path4"),
    ]
    live = LiveEngine(db=db)
    handles = [live.register(q) for q in views]
    for handle in handles:
        plan = handle.view.plan
        (root,) = [
            bag for bag in plan.bags if bag.node == plan.join_tree.root
        ]
        assert set(plan.output) <= set(root.chi), handle.query.name
        if handle.query.name == "path3":
            assert [p.atom.predicate for p in root.parts] == ["r1"]
        assert_view_is_the_program(handle.view)
        if handle.query.name == "path3":
            (r2,) = [
                bag.node for bag in plan.bags
                if [p.atom.predicate for p in bag.parts] == ["r2"]
            ]
            # r1 reads only X of r2's subtree: Y and Z stay below.
            assert handle.view._nodes[r2].join.keep == ("X",)

    stream = update_workload(
        db, n_batches=6, batch_size=64, delete_ratio=0.3, skew=0.5, seed=11
    )
    for delta in stream:
        live.apply(delta)
        for handle in handles:
            expected = naive_join_eval(handle.query, live.db)
            assert handle.answers().rows == expected.rows, handle.query.name


def _stream_matches_recompute(query, seed, plan=None):
    """Feed one random update stream to a view of *query* (through
    *plan*, when given) and check it against a from-scratch evaluation
    after every batch."""
    from repro.db.naive import naive_join_eval
    from repro.incremental.view import MaterializedView

    base = random_database(
        query, domain_size=5, tuples_per_relation=10, seed=seed
    )
    view = MaterializedView(
        query, base, plan if plan is not None else Engine().plan(query, base)
    )
    current = Database.from_relations(
        {p: base.rows(p) for p in query.predicates}
    )
    for delta in update_workload(
        base, n_batches=6, batch_size=5, delete_ratio=0.4, seed=seed + 1
    ):
        view.apply(delta)
        current.apply(delta)
        assert view.answers().rows == naive_join_eval(query, current).rows


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_boolean_view_stream_matches_recompute(seed):
    """A Boolean head: the root keeps nothing, so every answer delta is
    the 0-ary row's zero crossing."""
    _stream_matches_recompute(cycle_query(3), seed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_constant_and_repeated_variable_stream_matches_recompute(seed):
    """Feeds that filter: one atom repeats a variable, one pins a
    constant, so both of the feed's checks run on every batch."""
    from repro.core.parser import parse_query

    query = parse_query("ans(X,Y) :- e(X,X), e(X,Y), e(Y,3).")
    _stream_matches_recompute(query, seed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unit_leaf_stream_matches_recompute(seed):
    """A decomposition leaf with empty χ and λ joins as the 0-ary unit
    relation, seeded once at registration and never fed again."""
    from repro.core.hypertree import HTNode, HypertreeDecomposition
    from repro.core.parser import parse_query
    from repro.engine.plan import compile_plan

    query = parse_query("ans(X) :- e(X,Y), e(Y,Z).")
    root = HTNode(query.variables, query.atoms, (HTNode((), ()),))
    hd = HypertreeDecomposition(query, root)
    base = random_database(
        query, domain_size=5, tuples_per_relation=10, seed=seed
    )
    plan = compile_plan(query, base, hd)
    assert any(not bag.chi and not bag.parts for bag in plan.bags)
    _stream_matches_recompute(query, seed, plan)
