"""Property suite: the columnar kernels ≡ the row kernels.

The row engine is the oracle.  For every random database and query
family, each operator (semijoin / join / project) must produce the same
row set whether the operands are row or columnar, and the
Yannakakis passes over sharded columnar operands must agree with the
row run and with naive evaluation (the reference that shares no code
with the sweep) across every execution backend (inline / thread pool /
worker processes) × shard count in {1, 2, 7}.

Backends are shared module-scoped (a process pool per hypothesis
example would dominate the suite's runtime); ``SHM_MIN_ROWS`` is forced
to 1 on the process-backend examples so even tiny relations take the
shared-memory scatter path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acyclicity import join_tree
from repro.core.atoms import Atom, Variable
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
    to_columnar,
)
from repro.db import backend as backend_mod
from repro.db.columnar import ColumnarRelation
from repro.engine import Engine
from repro.generators.families import path_query
from repro.generators.workloads import random_database

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


@pytest.fixture(scope="module", autouse=True)
def tiny_shm_threshold():
    """Force the shm scatter path even for hypothesis-sized relations."""
    saved = backend_mod.SHM_MIN_ROWS
    backend_mod.SHM_MIN_ROWS = 1
    yield
    backend_mod.SHM_MIN_ROWS = saved


def star_query(n: int) -> ConjunctiveQuery:
    body = tuple(
        Atom("e", (Variable("C"), Variable(f"X{i}"))) for i in range(1, n + 1)
    )
    return ConjunctiveQuery(body, (), f"star_{n}")


def _with_head(query: ConjunctiveQuery, k: int = 2) -> ConjunctiveQuery:
    head = tuple(sorted(query.variables, key=lambda v: v.name)[:k])
    return query.with_head(head)


def _tree_and_relations(query, db):
    tree = join_tree(query)
    return tree, {a: bind_atom(a, db) for a in query.atoms}


def _cut_columnar(tree, rels, shards, ctx):
    """Every node's relation columnar, cut into *shards* pieces on *ctx*."""
    return shard_relations(
        tree,
        {node: to_columnar(rel) for node, rel in rels.items()},
        dict.fromkeys(tree.nodes, shards),
        ctx,
    )


def _naive_reduced(query, db, rels):
    """What the full reducer must leave at each node: the projection of
    the full join onto the node's attributes."""
    everything = tuple(sorted(query.variables, key=lambda v: v.name))
    full = naive_join_eval(query.with_head(everything), db)
    return {
        node: full.project(list(rel.attributes)).rows
        for node, rel in rels.items()
    }


class TestOperatorEquivalence:
    """Pairwise operator agreement on random relations: every mix of
    row/columnar operands gives the row oracle's rows."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        domain=st.integers(1, 15),
        n_left=st.integers(0, 60),
        n_right=st.integers(0, 60),
    )
    def test_semijoin_and_join(self, seed, domain, n_left, n_right):
        import random

        rng = random.Random(seed)
        left_rows = [
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(n_left)
        ]
        right_rows = [
            (rng.randrange(domain), rng.randrange(domain))
            for _ in range(n_right)
        ]
        from repro.db import Relation

        left = Relation.from_rows(("a", "b"), left_rows, "l")
        right = Relation.from_rows(("b", "c"), right_rows, "r")
        cl, cr = to_columnar(left), to_columnar(right)

        semi = left.semijoin(right)
        joined = left.join(right)
        for l_op in (left, cl):
            for r_op in (right, cr):
                if l_op is left and r_op is right:
                    continue
                assert l_op.semijoin(r_op).rows == semi.rows
                out = l_op.join(r_op)
                assert out.rows == joined.rows
                assert out.attributes == joined.attributes

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        domain=st.integers(1, 12),
        n=st.integers(0, 80),
    )
    def test_project(self, seed, domain, n):
        import random

        rng = random.Random(seed)
        rows = [
            (rng.randrange(domain), rng.randrange(domain), rng.randrange(domain))
            for _ in range(n)
        ]
        from repro.db import Relation

        r = Relation.from_rows(("a", "b", "c"), rows, "r")
        c = to_columnar(r)
        for attrs in (["a"], ["b"], ["a", "c"], ["c", "b", "a"], []):
            assert c.project(attrs).rows == r.project(attrs).rows

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


@pytest.mark.parametrize("kind", BACKEND_KINDS)
class TestShardedColumnarEquivalence:
    """The Yannakakis passes over sharded columnar operands agree with
    the row run and with naive evaluation on every backend × shard
    count."""

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

        seq_bool = boolean_eval(tree, dict(rels))
        seq_reduced = full_reduce(tree, dict(rels))
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_bool == naive_boolean_eval(query, db)
        naive_reduced = _naive_reduced(query, db, rels)
        for node in tree.nodes:
            assert seq_reduced[node].rows == naive_reduced[node]
        assert seq_answers.rows == naive_join_eval(query, db).rows
        for shards in SHARD_COUNTS:
            assert (
                boolean_eval(tree, _cut_columnar(tree, rels, shards, ctx))
                == seq_bool
            )
            par_reduced = full_reduce(
                tree, _cut_columnar(tree, rels, shards, ctx)
            )
            for node in tree.nodes:
                assert par_reduced[node].rows == naive_reduced[node]
            assert (
                enumerate_answers(
                    tree, _cut_columnar(tree, rels, shards, ctx), output
                ).rows
                == seq_answers.rows
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

        seq_bool = boolean_eval(tree, dict(rels))
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_bool == naive_boolean_eval(query, db)
        assert seq_answers.rows == naive_join_eval(query, db).rows
        assert (
            boolean_eval(tree, _cut_columnar(tree, rels, 3, ctx)) == seq_bool
        )
        assert (
            enumerate_answers(
                tree, _cut_columnar(tree, rels, 3, ctx), output
            ).rows
            == seq_answers.rows
        )

    def test_skewed_database_all_passes(self, contexts, kind):
        """Heavy-hitter spreading composes with the columnar partition
        on every backend: 90% of edge tuples share one join-key value."""
        ctx = contexts[kind]
        query = _with_head(path_query(3))
        rows = [(1, j % 9) for j in range(450)]
        rows += [(2 + j % 37, j % 11) for j in range(50)]
        from repro.db import Database

        db = Database.from_relations({"e": rows})
        tree, rels = _tree_and_relations(query, db)
        output = tuple(v.name for v in query.head_terms)
        seq_answers = enumerate_answers(tree, dict(rels), output)
        assert seq_answers.rows == naive_join_eval(query, db).rows
        assert (
            enumerate_answers(
                tree, _cut_columnar(tree, rels, 4, ctx), output
            ).rows
            == seq_answers.rows
        )


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

    def test_engine_columnar_forced_sharding(self):
        """Columnar layout composed with forced sharding on a parallel
        backend agrees with the sequential row engine."""
        query = _with_head(path_query(3))
        db = random_database(query, 8, 60, seed=3, plant_answer=True)
        seq = Engine(mode="heuristic", layout="row").execute(query, db)
        assert seq.answer.rows == naive_join_eval(query, db).rows
        for kind in ("thread", "process"):
            with Engine(
                mode="heuristic", backend=kind, backend_workers=2,
                shard_threshold=0, layout="columnar",
            ) as engine:
                got = engine.execute(query, db)
            assert got.answer.rows == seq.answer.rows

    def test_semiring_requests_stay_row(self):
        """Annotated requests force the row path and still agree."""
        query = _with_head(path_query(3))
        db = random_database(query, 6, 40, seed=9, plant_answer=True)
        row_count = Engine(mode="heuristic", layout="row").count(query, db)
        col_count = Engine(mode="heuristic", layout="columnar").count(query, db)
        assert row_count == col_count
