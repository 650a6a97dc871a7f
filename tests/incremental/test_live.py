"""LiveEngine facade: registration, plan-cache reuse, fan-out, threads."""

import threading

from repro.core.parser import parse_query
from repro.db.database import Database
from repro.engine import Engine
from repro.generators.families import path_query
from repro.incremental import Delta, LiveEngine


def triangle(predicate: str = "e"):
    return parse_query(
        f"ans(X) :- {predicate}(X,Y), {predicate}(Y,Z), {predicate}(Z,X)."
    )


class TestRegistration:
    def test_isomorphic_views_share_one_plan(self):
        db = Database.from_relations(
            {"e": [(1, 2), (2, 3), (3, 1)], "f": [(7, 8), (8, 9), (9, 7)]}
        )
        live = LiveEngine(db=db)
        first = live.register(triangle("e"))
        second = live.register(triangle("f"))
        assert not first.cache_hit and second.cache_hit
        assert live.engine.decompositions == 1
        assert first.answers().rows == {(1,), (2,), (3,)}
        assert second.answers().rows == {(7,), (8,), (9,)}

    def test_engine_live_shares_cache(self):
        engine = Engine()
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 1)]})
        engine.execute(triangle("e"), db)
        live = engine.live(db)
        handle = live.register(triangle("e"))
        assert handle.cache_hit
        assert engine.decompositions == 1

    def test_register_before_predicate_exists(self):
        """A view may be registered against a database that does not yet
        define its relations: it starts empty and fills from the stream."""
        live = LiveEngine()
        handle = live.register(triangle("e"))
        assert handle.answers().rows == set()
        live.apply(Delta.inserts("e", [(1, 2), (2, 3), (3, 1)]))
        assert handle.answers().rows == {(1,), (2,), (3,)}

    def test_unregister_stops_maintenance(self):
        live = LiveEngine()
        handle = live.register(triangle("e"))
        live.unregister(handle)
        assert len(live) == 0
        results = live.apply(Delta.inserts("e", [(1, 2), (2, 3), (3, 1)]))
        assert results == {}
        # the handle's view is frozen at unregistration time
        assert handle.answers().rows == set()


class TestFanOut:
    def test_untouched_views_not_visited(self):
        db = Database.from_relations(
            {"e": [(1, 2)], "g": [(5, 6)]}
        )
        live = LiveEngine(db=db)
        on_e = live.register(parse_query("ans(X,Y) :- e(X, Y)."))
        on_g = live.register(parse_query("ans(X,Y) :- g(X, Y)."))
        batches_before = on_g.view.batches
        results = live.apply(Delta.inserts("e", [(3, 4)]))
        assert set(results) == {on_e.view_id}
        assert on_g.view.batches == batches_before
        assert on_e.answers().rows == {(1, 2), (3, 4)}

    def test_noop_delta_reports_empty(self):
        db = Database.from_relations({"e": [(1, 2)]})
        live = LiveEngine(db=db)
        live.register(parse_query("ans(X,Y) :- e(X, Y)."))
        results = live.apply(Delta.inserts("e", [(1, 2)]))  # already there
        assert results == {}

    def test_insert_delete_conveniences(self):
        live = LiveEngine()
        handle = live.register(parse_query("ans(X,Y) :- e(X, Y)."))
        live.insert("e", (1, 2), (3, 4))
        assert handle.answers().rows == {(1, 2), (3, 4)}
        live.delete("e", (1, 2))
        assert handle.answers().rows == {(3, 4)}

    def test_subscriptions_fire_and_unsubscribe(self):
        live = LiveEngine()
        handle = live.register(parse_query("ans(X,Y) :- e(X, Y)."))
        seen = []
        unsubscribe = handle.subscribe(seen.append)
        live.insert("e", (1, 2))
        assert len(seen) == 1 and seen[0].inserted == {(1, 2)}
        live.insert("e", (1, 2))  # no-op: no notification
        assert len(seen) == 1
        unsubscribe()
        live.insert("e", (5, 6))
        assert len(seen) == 1

    def test_info_snapshot(self):
        live = LiveEngine()
        live.register(triangle("e"))
        live.insert("e", (1, 2))
        info = live.info()
        assert info["views"] == 1
        assert info["batches_applied"] == 1
        assert info["db_tuples"] == 1
        assert "plan_cache" in info


class TestStats:
    def test_per_batch_and_merged_stats(self):
        db = Database.from_relations({"e": [(1, 2), (2, 3), (3, 4)]})
        live = LiveEngine(db=db)
        query = path_query(2)
        head = tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        handle = live.register(query.with_head(head))
        loads = handle.stats.notes["batches"]
        assert loads == 1.0
        live.insert("e", (4, 5))
        assert handle.last_batch is not None
        assert handle.last_batch.notes["touched_rows"] >= 1
        assert handle.stats.notes["batches"] == loads + 1
        assert handle.stats.wall_time > 0

    def test_single_tuple_delta_touches_little(self):
        """The streaming claim in miniature: one inserted tuple touches a
        bounded neighbourhood, not the whole database."""
        rows = [(i, i + 1) for i in range(500)]
        db = Database.from_relations({"e": rows})
        live = LiveEngine(db=db)
        query = path_query(2)
        head = tuple(sorted(query.variables, key=lambda v: v.name)[:2])
        handle = live.register(query.with_head(head))
        live.insert("e", (1000, 1001))
        assert handle.last_batch.notes["touched_rows"] < 20


class TestThreadSafety:
    def test_concurrent_appliers_and_readers(self):
        live = LiveEngine()
        handle = live.register(parse_query("ans(X,Y) :- e(X, Y)."))
        errors = []

        def writer(offset):
            try:
                for i in range(25):
                    live.insert("e", (offset + i, offset + i + 1))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                for _ in range(50):
                    handle.answers()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=writer, args=(base,))
            for base in (0, 1000, 2000)
        ] + [threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(handle.answers()) == 75
        assert live.db.tuple_count() == 75


class TestSchemaSafety:
    def test_register_declares_arities(self):
        """A bad-arity batch is rejected before anything mutates: the
        database stays clean and later correct batches still apply."""
        import pytest

        from repro._errors import SchemaError

        live = LiveEngine()
        handle = live.register(parse_query("ans(X, Y) :- e(X, Y)."))
        with pytest.raises(SchemaError):
            live.apply(Delta.inserts("e", [(1, 2, 3)]))
        assert live.db.rows("e") == frozenset()
        live.apply(Delta.inserts("e", [(1, 2)]))
        assert handle.answers().rows == {(1, 2)}

    def test_register_rejects_conflicting_schema(self):
        import pytest

        from repro._errors import SchemaError

        live = LiveEngine(db=Database.from_relations({"e": [(1, 2)]}))
        with pytest.raises(SchemaError):
            live.register(parse_query("ans(X) :- e(X, X, X)."))


class TestCallbackIsolation:
    def test_raising_callback_cannot_desync_sibling_views(self):
        import pytest

        live = LiveEngine()
        noisy = live.register(parse_query("ans(X, Y) :- e(X, Y)."))
        quiet = live.register(parse_query("ans(A, B) :- e(B, A)."))

        def boom(_delta):
            raise RuntimeError("subscriber bug")

        noisy.subscribe(boom)
        seen = []
        quiet.subscribe(seen.append)
        with pytest.raises(RuntimeError):
            live.apply(Delta.inserts("e", [(7, 8)]))
        # Both views saw the change despite the raising callback, and the
        # well-behaved subscriber was still notified.
        assert noisy.answers().rows == {(7, 8)}
        assert quiet.answers().rows == {(8, 7)}
        assert len(seen) == 1
        # a later delete stays consistent everywhere
        with pytest.raises(RuntimeError):
            live.apply(Delta.deletes("e", [(7, 8)]))
        assert noisy.answers().rows == set()
        assert quiet.answers().rows == set()


class TestLifecycle:
    def test_close_closes_a_privately_created_engine(self):
        live = LiveEngine()
        engine = live.engine
        assert live._owns_engine
        live.register(parse_query("ans(X, Y) :- e(X, Y)."))
        live.close()
        # The owned engine was closed with the LiveEngine (close is
        # idempotent on both sides).
        engine.close()

    def test_close_leaves_a_borrowed_engine_alone(self):
        with Engine() as engine:
            live = LiveEngine(engine=engine)
            assert not live._owns_engine
            handle = live.register(parse_query("ans(X, Y) :- e(X, Y)."))
            live.close()
            # The caller's engine is still fully usable afterwards.
            db = Database()
            db.add_fact("e", 1, 2)
            result = engine.execute(handle.query, db)
            assert result.answer.rows == {(1, 2)}

    def test_declare_registers_an_empty_predicate(self):
        live = LiveEngine()
        live.declare("e", 2)
        handle = live.register(parse_query("ans(X, Y) :- e(X, Y)."))
        assert handle.answers().rows == set()
        live.apply(Delta.inserts("e", [(1, 2)]))
        assert handle.answers().rows == {(1, 2)}
        live.close()

    def test_view_updates_take_no_parallelism(self):
        import pytest

        with pytest.raises(TypeError, match="parallelism"):
            LiveEngine(parallelism=2)
        with Engine() as engine:
            with pytest.raises(TypeError, match="parallelism"):
                engine.live(parallelism=2)
            assert not hasattr(engine.live(), "parallelism")

    def test_untouched_views_are_not_scheduled(self):
        live = LiveEngine()
        touched = live.register(parse_query("ans(X, Y) :- e(X, Y)."))
        untouched = live.register(parse_query("ans(X, Y) :- f(X, Y)."))
        before = untouched.view.batches
        changes = live.apply(Delta.inserts("e", [(1, 2)]))
        assert touched.view_id in changes
        assert untouched.view_id not in changes
        assert untouched.view.batches == before
