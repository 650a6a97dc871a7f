"""Tests for the query/database generators."""

import pytest

from repro.core.acyclicity import is_acyclic
from repro.db.naive import naive_boolean_eval
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    path_query,
    random_query,
)
from repro.generators.paper_queries import all_named_queries, qn
from repro.generators.workloads import (
    grid_database,
    random_database,
    university_database,
)


class TestFamilies:
    def test_cycle_shape(self):
        q = cycle_query(5)
        assert len(q.atoms) == 5 and len(q.variables) == 5
        assert not is_acyclic(q)

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_query(2)

    def test_path_acyclic(self):
        assert is_acyclic(path_query(6))

    def test_clique_atom_count(self):
        assert len(clique_query(5).atoms) == 10

    def test_grid_variable_count(self):
        assert len(grid_query(3).variables) == 9

    def test_hyperwheel_arity(self):
        q = hyperwheel_query(4, arity=5)
        assert all(a.arity == 5 for a in q.atoms)

    def test_book_pages(self):
        q = book_query(3)
        assert len(q.atoms) == 7  # spine + 2 per page

    def test_random_query_deterministic(self):
        assert random_query(5, 6, seed=3) == random_query(5, 6, seed=3)
        assert random_query(5, 6, seed=3) != random_query(5, 6, seed=4)

    def test_random_query_connected(self):
        from repro.core.components import components

        q = random_query(6, 6, seed=11, connected=True)
        assert len(components(q, [])) == 1

    def test_qn_shape(self):
        q = qn(4)
        assert len(q.atoms) == 4
        assert all(a.arity == 5 for a in q.atoms)

    def test_paper_corpus_names(self):
        assert set(all_named_queries()) == {"Q1", "Q2", "Q3", "Q4", "Q5"}


class TestWorkloads:
    def test_random_database_schema(self, query_q1):
        db = random_database(query_q1, 5, 10, seed=0)
        assert db.arity("enrolled") == 3
        assert db.arity("parent") == 2

    def test_planted_answer_makes_query_true(self, query_q5):
        db = random_database(query_q5, 3, 5, seed=1, plant_answer=True)
        assert naive_boolean_eval(query_q5, db)

    def test_deterministic(self, query_q1):
        a = random_database(query_q1, 4, 6, seed=5)
        b = random_database(query_q1, 4, 6, seed=5)
        assert sorted(a.facts()) == sorted(b.facts())

    def test_university_planted_pairs(self):
        from repro.generators.paper_queries import q1

        db = university_database(parent_teacher_pairs=2)
        assert naive_boolean_eval(q1(), db)

    def test_grid_database_binary_only(self, query_q1):
        with pytest.raises(ValueError):
            grid_database(query_q1, 3)

    def test_grid_database_size(self):
        q = cycle_query(3)
        db = grid_database(q, 3)
        assert db.tuple_count() == 2 * 12  # 12 grid edges, both directions


class TestQueryWorkload:
    def test_shape_budget_respected(self):
        from repro.engine import fingerprint
        from repro.generators.workloads import query_workload

        workload = query_workload(50, 5, seed=2)
        assert len(workload) == 50
        assert len({fingerprint(q) for q in workload}) <= 5

    def test_variants_are_isomorphic_but_distinct(self):
        from repro.engine import fingerprint, shape_isomorphism
        from repro.generators.families import cycle_query
        from repro.generators.workloads import renamed_variant

        base = cycle_query(5)
        variant = renamed_variant(base, seed=4)
        assert variant.predicates != base.predicates
        assert variant.variables != base.variables
        assert fingerprint(base) == fingerprint(variant)
        assert shape_isomorphism(base, variant) is not None

    def test_heads_project_onto_first_variables(self):
        from repro.generators.workloads import query_workload

        for q in query_workload(6, 3, seed=8):
            assert q.head_terms
            assert q.head_variables <= q.variables

    def test_renamed_variant_preserves_head_consistency(self):
        from repro.core.atoms import Variable
        from repro.generators.families import path_query
        from repro.generators.workloads import renamed_variant

        base = path_query(3).with_head((Variable("X1"),))
        variant = renamed_variant(base, seed=6)
        # the renamed head variable still occurs in the renamed body
        assert variant.head_variables <= variant.variables

    def test_deterministic_workload(self):
        from repro.generators.workloads import query_workload

        a = query_workload(10, 4, seed=12)
        b = query_workload(10, 4, seed=12)
        assert [str(q) for q in a] == [str(q) for q in b]


class TestUpdateWorkload:
    def _db(self):
        from repro.db.database import Database

        return Database.from_relations(
            {"e": [(i, i + 1) for i in range(20)]}
        )

    def test_deterministic(self):
        from repro.generators.workloads import update_workload

        a = update_workload(self._db(), 5, batch_size=6, seed=3)
        b = update_workload(self._db(), 5, batch_size=6, seed=3)
        assert [sorted(d) for d in a] == [sorted(d) for d in b]

    def test_db_not_mutated(self):
        from repro.generators.workloads import update_workload

        db = self._db()
        before = db.rows("e")
        update_workload(db, 5, batch_size=8, delete_ratio=0.5, seed=1)
        assert db.rows("e") == before

    def test_deletes_target_live_rows(self):
        """Replaying the stream against a copy of the database applies
        every change effectively — deletes always hit present rows."""
        from repro.generators.workloads import update_workload

        db = self._db()
        stream = update_workload(
            db, 8, batch_size=6, delete_ratio=0.6, reinsert_ratio=0.4, seed=7
        )
        replay = self._db()
        for delta in stream:
            effective = replay.apply(delta)
            assert set(effective.deleted("e")) == set(delta.deleted("e"))
            # inserts are effective too: fresh draws purge the graveyard,
            # so resurrection picks never duplicate a present row
            assert set(effective.inserted("e")) == set(delta.inserted("e"))

    def test_mixes_inserts_and_deletes(self):
        from repro.generators.workloads import update_workload

        stream = update_workload(
            self._db(), 10, batch_size=8, delete_ratio=0.5, seed=2
        )
        signs = {sign for delta in stream for _, _, sign in delta}
        assert signs == {1, -1}

    def test_delete_ratio_validated(self):
        import pytest

        from repro.generators.workloads import update_workload

        with pytest.raises(ValueError):
            update_workload(self._db(), 1, delete_ratio=1.5)

    def test_empty_database_rejected(self):
        import pytest

        from repro.db.database import Database
        from repro.generators.workloads import update_workload

        with pytest.raises(ValueError):
            update_workload(Database(), 1)

    def test_skew_concentrates_values(self):
        from repro.generators.workloads import update_workload

        wide = update_workload(
            self._db(), 20, batch_size=10, delete_ratio=0.0, skew=0.0, seed=5
        )
        narrow = update_workload(
            self._db(), 20, batch_size=10, delete_ratio=0.0, skew=0.9, seed=5
        )

        def distinct_values(stream):
            return len(
                {v for d in stream for _, row, _ in d for v in row}
            )

        assert distinct_values(narrow) <= distinct_values(wide)
