"""Property suite: the Yannakakis passes over sharded operands ≡ over
plain ones ≡ naive evaluation.

There is one sweep driver (:mod:`repro.db.yannakakis`); sharding is a
property of its operands (:func:`repro.db.shard_relations`).  Comparing
a sharded run with an unsharded one therefore compares the driver with
itself, so every property also checks both runs against the naive full
join (:func:`repro.db.naive_join_eval`), which shares no code with the
sweep.  For every database, query family (path / star / cyclic),
*execution backend* (inline / thread pool / worker processes) and shard
count in {1, 2, 7}:

* ``boolean_eval`` agrees with ``naive_boolean_eval``,
* ``full_reduce`` leaves, node for node, the projection of the full
  join onto the node's attributes,
* ``enumerate_answers`` agrees with ``naive_join_eval``,
* the engine's backend selection agrees with the sequential engine and
  with naive evaluation (which is how cyclic queries are covered: they
  evaluate through the Lemma 4.6 bag transform, not a direct join tree),
* and ``full_reduce`` is idempotent, plain and sharded alike.

Backends are shared module-scoped (a process pool per hypothesis example
would dominate the suite's runtime); the process backend runs with 2
workers so owner routing and cross-worker gather are both exercised.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.query import ConjunctiveQuery
from repro.db import (
    ProcessBackend,
    SequentialBackend,
    ThreadBackend,
    bind_atom,
    boolean_eval,
    enumerate_answers,
    full_reduce,
    naive_boolean_eval,
    naive_join_eval,
    shard_relations,
)
from repro.db.backend import SEQUENTIAL
from repro.engine import Engine
from repro.generators.families import cycle_query, path_query
from repro.generators.workloads import random_database
from tests.conftest import naive_reduced, star_query

SHARD_COUNTS = (1, 2, 7)
BACKEND_KINDS = ("sequential", "thread", "process")


@pytest.fixture(scope="module")
def contexts():
    ctxs = {
        "sequential": SequentialBackend(),
        "thread": ThreadBackend(workers=4),
        "process": ProcessBackend(workers=2),
    }
    yield ctxs
    for ctx in ctxs.values():
        ctx.close()


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def _tree_and_relations(query, db):
    tree = join_tree(query)
    return tree, {a: bind_atom(a, db) for a in query.atoms}


def _cut(tree, rels, shards, ctx=SEQUENTIAL):
    """Every node's relation cut into *shards* pieces on *ctx*."""
    return shard_relations(tree, rels, dict.fromkeys(tree.nodes, shards), ctx)


class TestKernelEquivalence:
    """Direct join-tree level equivalence on acyclic families."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 12),
        tuples=st.integers(1, 40),
    )
    def test_path_all_passes(self, n, seed, domain, tuples):
        query = _with_head(path_query(n))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        seq_bool = boolean_eval(tree, dict(rels))
        seq_reduced = full_reduce(tree, dict(rels))
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_bool == naive_boolean_eval(query, db)
        reduced_oracle = naive_reduced(query, db, rels)
        for node in tree.nodes:
            assert seq_reduced[node].rows == reduced_oracle[node]
        assert seq_answers.rows == naive_join_eval(query, db).rows
        for shards in SHARD_COUNTS:
            assert boolean_eval(tree, _cut(tree, rels, shards)) == seq_bool
            par_reduced = full_reduce(tree, _cut(tree, rels, shards))
            for node in tree.nodes:
                assert par_reduced[node].rows == reduced_oracle[node]
            assert (
                enumerate_answers(tree, _cut(tree, rels, shards), output).rows
                == seq_answers.rows
            )

    @settings(max_examples=20, deadline=None)
    @given(
        rays=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_star_all_passes(self, rays, seed, domain, tuples):
        query = _with_head(star_query(rays))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        seq_answers = enumerate_answers(tree, dict(rels), output)
        seq_bool = boolean_eval(tree, dict(rels))
        assert seq_bool == naive_boolean_eval(query, db)
        assert seq_answers.rows == naive_join_eval(query, db).rows
        for shards in SHARD_COUNTS:
            assert boolean_eval(tree, _cut(tree, rels, shards)) == seq_bool
            assert (
                enumerate_answers(tree, _cut(tree, rels, shards), output).rows
                == seq_answers.rows
            )

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
        shards=st.sampled_from(SHARD_COUNTS),
    )
    def test_full_reduce_idempotent(self, n, seed, domain, tuples, shards):
        query = path_query(n)
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)

        reduced_oracle = naive_reduced(query, db, rels)
        once = full_reduce(tree, dict(rels))
        twice = full_reduce(tree, dict(once))
        for node in tree.nodes:
            assert once[node].rows == reduced_oracle[node]
            assert twice[node].rows == once[node].rows

        par_once = full_reduce(tree, _cut(tree, rels, shards))
        par_twice = full_reduce(tree, _cut(tree, par_once, shards))
        for node in tree.nodes:
            assert par_once[node].rows == reduced_oracle[node]
            assert par_twice[node].rows == reduced_oracle[node]


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestBackendEquivalence:
    """All three Yannakakis passes agree with the sequential oracle on
    every backend — the sequential/thread/process implementations of the
    shard-operator vocabulary must be indistinguishable."""

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(2, 4),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 12),
        tuples=st.integers(1, 40),
    )
    def test_path_all_passes(self, contexts, kind, n, seed, domain, tuples):
        ctx = contexts[kind]
        query = _with_head(path_query(n))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        naive_bool = naive_boolean_eval(query, db)
        reduced_oracle = naive_reduced(query, db, rels)
        naive_answers = naive_join_eval(query, db)
        assert boolean_eval(tree, dict(rels)) == naive_bool
        assert (
            enumerate_answers(tree, dict(rels), output).rows
            == naive_answers.rows
        )
        for shards in (2, 5):
            assert (
                boolean_eval(tree, _cut(tree, rels, shards, ctx)) == naive_bool
            )
            par_reduced = full_reduce(tree, _cut(tree, rels, shards, ctx))
            for node in tree.nodes:
                assert par_reduced[node].rows == reduced_oracle[node]
            assert (
                enumerate_answers(
                    tree, _cut(tree, rels, shards, ctx), output
                ).rows
                == naive_answers.rows
            )

    @settings(max_examples=8, deadline=None)
    @given(
        rays=st.integers(2, 5),
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 30),
    )
    def test_star_all_passes(self, contexts, kind, rays, seed, domain, tuples):
        ctx = contexts[kind]
        query = _with_head(star_query(rays))
        db = random_database(query, domain, tuples, seed=seed)
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)

        naive_bool = naive_boolean_eval(query, db)
        naive_answers = naive_join_eval(query, db)
        assert boolean_eval(tree, dict(rels)) == naive_bool
        assert (
            enumerate_answers(tree, dict(rels), output).rows
            == naive_answers.rows
        )
        assert boolean_eval(tree, _cut(tree, rels, 3, ctx)) == naive_bool
        assert (
            enumerate_answers(tree, _cut(tree, rels, 3, ctx), output).rows
            == naive_answers.rows
        )

    def test_skewed_database_all_passes(self, contexts, kind):
        """Heavy-hitter spreading composes with every backend: 90% of
        edge tuples share one join-key value."""
        ctx = contexts[kind]
        query = _with_head(path_query(3))
        rows = [(1, j % 9) for j in range(450)]
        rows += [(2 + j % 37, j % 11) for j in range(50)]
        from repro.db import Database

        db = Database.from_relations({"e": rows})
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)
        naive_answers = naive_join_eval(query, db)
        assert (
            enumerate_answers(tree, dict(rels), output).rows
            == naive_answers.rows
        )
        assert (
            enumerate_answers(tree, _cut(tree, rels, 4, ctx), output).rows
            == naive_answers.rows
        )

    def test_engine_equivalence_forced_sharding(self, contexts, kind):
        """Engine-level agreement with sharding forced on tiny data
        (shard_threshold=0), covering the cyclic bag-transform path."""
        del contexts  # engine owns its backends; fixture only orders teardown
        query = _with_head(cycle_query(4))
        db = random_database(query, 6, 40, seed=11, plant_answer=True)
        seq = Engine(mode="heuristic").execute(query, db)
        with Engine(
            mode="heuristic", backend=kind, backend_workers=2,
            shard_threshold=0,
        ) as engine:
            result = engine.execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        assert result.answer.rows == seq.answer.rows
        assert result.answer.attributes == seq.answer.attributes


class TestEngineEquivalence:
    """End-to-end ``Engine.execute`` equivalence, covering the cyclic
    family (which evaluates through decomposition bags, not a direct
    join tree)."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 8),
        tuples=st.integers(1, 30),
    )
    def test_cycle_engine_parallel_equivalence(self, seed, domain, tuples):
        query = _with_head(cycle_query(4))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", backend="sequential").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for shards in (2, 7):
            par = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert par.answer.rows == seq.answer.rows
            assert par.answer.attributes == seq.answer.attributes

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 1_000),
        domain=st.integers(2, 10),
        tuples=st.integers(1, 40),
    )
    def test_path_engine_parallel_equivalence(self, seed, domain, tuples):
        query = _with_head(path_query(3))
        db = random_database(query, domain, tuples, seed=seed)
        seq = Engine(mode="heuristic", backend="sequential").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for shards in (2, 7):
            par = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert par.answer.rows == seq.answer.rows

    def test_boolean_cycle_parallel(self):
        query = cycle_query(4)
        db = random_database(query, 6, 40, seed=5, plant_answer=True)
        assert naive_boolean_eval(query, db) is True
        for shards in (2, 7):
            result = Engine(
                mode="heuristic",
                backend="thread",
                backend_workers=shards,
                shard_threshold=0,
            ).execute(query, db)
            assert result.boolean is True
