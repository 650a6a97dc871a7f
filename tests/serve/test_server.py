"""End-to-end server tests over real sockets.

The acceptance scenarios of the serving tier:

* two tenants submitting renamed-isomorphic queries **concurrently**
  plan exactly once (shared fingerprint-keyed cache + single-flight
  dedup) and each get their own correct answers;
* an over-budget tenant degrades to typed budget errors while its
  neighbours keep executing;
* a saturated server sheds with typed retryable errors, the queue stays
  bounded, and a request whose queue wait times out is never executed.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro._errors import BudgetExceeded, ParseError
from repro.db.database import Database
from repro.serve import (
    InternalError,
    RateLimited,
    ServeClient,
    ServerOverloaded,
    UnknownTenantError,
    serve_in_thread,
)
from repro.serve.protocol import MAX_LINE_BYTES, ProtocolError
from repro.serve.server import _Connection

PATH2_A = "ans(X, Z) :- e(X, Y), e(Y, Z)"
PATH2_B = "ans(A, C) :- r(A, B), r(B, C)"  # renamed-isomorphic to PATH2_A


@pytest.fixture
def server():
    with serve_in_thread() as st:
        yield st


class TestBasics:
    def test_ping_and_hello(self, server):
        with ServeClient(server.host, server.port) as client:
            assert client.ping()
            info = client.call("hello", tenant="t0")
            assert info["tenant"] == "t0"
            assert info["limits"]["max_inflight"] == 8

    def test_ops_require_hello(self, server):
        with ServeClient(server.host, server.port) as client:
            with pytest.raises(UnknownTenantError):
                client.query(PATH2_A)

    def test_query_roundtrip(self, server):
        with ServeClient(server.host, server.port, tenant="t1") as client:
            client.load("e", [(1, 2), (2, 3), (3, 4)])
            result = client.query(PATH2_A)
            assert result["rows"] == [[1, 3], [2, 4]]
            assert result["attributes"] == ["X", "Z"]
            assert result["boolean"] is True

    def test_declare_and_apply_signed_delta(self, server):
        with ServeClient(server.host, server.port, tenant="t2") as client:
            client.declare("e", 2)
            client.load("e", [(1, 2), (2, 3)])
            out = client.apply({"e": [((1, 2), -1), ((9, 10), 1)]})
            assert out["db_tuples"] == 2
            result = client.query("ans(X, Y) :- e(X, Y)")
            assert result["rows"] == [[2, 3], [9, 10]]

    def test_parse_error_is_typed(self, server):
        with ServeClient(server.host, server.port, tenant="t3") as client:
            with pytest.raises(ParseError):
                client.query("this is not a rule")

    def test_malformed_request_is_protocol_error(self, server):
        with ServeClient(server.host, server.port, tenant="t4") as client:
            with pytest.raises(ProtocolError):
                client.call("load", predicate="e", rows="not-a-list")

    def test_query_many(self, server):
        with ServeClient(server.host, server.port, tenant="t5") as client:
            client.load("e", [(1, 2), (2, 3)])
            out = client.query_many([PATH2_A, "ans(X, Y) :- e(X, Y)"])
            assert len(out["results"]) == 2
            assert all(r["ok"] for r in out["results"])
            assert out["results"][0]["rows"] == [[1, 3]]
            assert out["failures"] == 0

    def test_stats_op(self, server):
        with ServeClient(server.host, server.port, tenant="t6") as client:
            client.load("e", [(1, 2)])
            client.query("ans(X, Y) :- e(X, Y)")
            stats = client.stats()
            assert "t6" in stats["tenants"]
            assert stats["tenants"]["t6"]["requests"] >= 1
            assert stats["admission"]["admitted"] >= 1
            assert "plan_cache" in stats


class TestConstruction:
    def test_the_backend_option_is_gone(self):
        """Requests run on the engine's one sequential sweep; a server
        offers no backend to choose."""
        from repro.serve.server import QueryServer

        with pytest.raises(TypeError, match="backend"):
            QueryServer(backend="thread")


class TestMultiTenancy:
    def test_isomorphic_queries_across_tenants_plan_once(self, server):
        """The headline: two tenants, renamed-isomorphic queries fired
        concurrently from a cold cache — exactly ONE decomposition, and
        each tenant's answers come from its own database."""
        barrier = threading.Barrier(2)
        results: dict[str, dict] = {}
        errors: list[Exception] = []

        def tenant_run(name: str, predicate: str, query: str) -> None:
            try:
                with ServeClient(
                    server.host, server.port, tenant=name
                ) as client:
                    base = 10 if name == "acme" else 100
                    client.load(
                        predicate,
                        [(base, base + 1), (base + 1, base + 2)],
                    )
                    barrier.wait(timeout=10.0)
                    results[name] = client.query(query)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(
                target=tenant_run, args=("acme", "e", PATH2_A)
            ),
            threading.Thread(
                target=tenant_run, args=("beta", "r", PATH2_B)
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        # Isolation: each tenant sees only its own facts.
        assert results["acme"]["rows"] == [[10, 12]]
        assert results["beta"]["rows"] == [[100, 102]]
        # Sharing: one decomposition served both shapes.
        assert server.server.engine.decompositions == 1

    def test_over_budget_tenant_is_isolated(self, server):
        """A tenant with spent quota gets typed budget errors; other
        tenants on the same server keep executing."""
        with ServeClient(server.host, server.port, tenant="ok") as good, \
                ServeClient(server.host, server.port, tenant="broke") as bad:
            good.load("e", [(1, 2), (2, 3)])
            bad.load("e", [(5, 6), (6, 7)])
            # Exhaust the third tenant's quota directly (deterministic:
            # no wall-clock-dependent spend loop).
            tenant = server.server.tenants["broke"]
            tenant.total_budget = 0.001
            tenant.consumed = 1.0
            with pytest.raises(BudgetExceeded):
                bad.query(PATH2_A)
            # The neighbour is untouched.
            assert good.query(PATH2_A)["rows"] == [[1, 3]]
            # And the broke tenant's failure is permanent-typed, not
            # retryable shedding.
            with pytest.raises(BudgetExceeded):
                bad.query(PATH2_A)
            snap = server.server.tenants["broke"].snapshot()
            # No query ever executed (loads are not charged requests).
            assert snap["requests"] == 0

    def test_query_many_bills_requests_that_blow_their_budget(
        self, server, monkeypatch
    ):
        """A batch request that runs until its budget runs out spent that
        time: the tenant's quota is charged for it, not for zero.  The
        requests are slow by construction — every base-relation read of
        the tenant's database stalls for two budgets."""
        budget = 0.005
        with ServeClient(server.host, server.port, tenant="bill") as client:
            client.load("e", [(1, 2), (2, 3), (3, 4)])
            tenant = server.server.tenants["bill"]
            snapshot = tenant.db.snapshot

            def stalling(predicate):
                time.sleep(2 * budget)
                return snapshot(predicate)

            monkeypatch.setattr(tenant.db, "snapshot", stalling)
            before = tenant.snapshot()["consumed_seconds"]
            out = client.query_many([PATH2_A] * 3, budget_ms=budget * 1e3)
            failed = [r for r in out["results"] if not r["ok"]]
            assert len(failed) == 3
            assert all(
                r["error"]["type"] == "BudgetExceeded" for r in failed
            )
            consumed = tenant.snapshot()["consumed_seconds"] - before
            assert consumed >= len(failed) * budget

    def test_rate_limited_tenant_gets_retry_after(self):
        with serve_in_thread(rate=2.0, burst=1.0) as st:
            with ServeClient(st.host, st.port, tenant="rl") as client:
                client.load("e", [(1, 2)])
                q = "ans(X, Y) :- e(X, Y)"
                client.query(q)  # burst token spent by load+query? load
                # is not rate limited (mutations bypass admit); the
                # query takes the single burst token.
                with pytest.raises(RateLimited) as excinfo:
                    client.query(q)
                assert excinfo.value.retry_after > 0.0


class TestSaturation:
    def test_overload_sheds_typed_and_bounded(self):
        """max_inflight=1, max_queue=2: with the executor deliberately
        blocked, the 2nd request queues, a queue-timeout request sheds
        without executing, and further arrivals shed immediately — all
        with typed retryable errors, queue depth never exceeding the
        bound."""
        with serve_in_thread(max_inflight=1, max_queue=2) as st:
            with ServeClient(st.host, st.port, tenant="sat") as seeder:
                seeder.load("e", [(1, 2), (2, 3)])
            tenant = st.server.tenants["sat"]
            admission = st.server.admission

            # Block execution: queries need the tenant read lock.
            tenant.rw.acquire_write()
            outcomes: dict[str, object] = {}

            def issue(tag: str, **params) -> None:
                try:
                    with ServeClient(st.host, st.port, tenant="sat") as c:
                        outcomes[tag] = c.query(PATH2_A, **params)
                except Exception as error:  # noqa: BLE001 - recorded
                    outcomes[tag] = error

            def wait_for(predicate, timeout=10.0):
                deadline = time.monotonic() + timeout
                while time.monotonic() < deadline:
                    if predicate():
                        return True
                    time.sleep(0.01)
                return False

            t_run = threading.Thread(target=issue, args=("running",))
            t_run.start()
            assert wait_for(lambda: admission.snapshot()["inflight"] == 1)

            t_queued = threading.Thread(target=issue, args=("queued",))
            t_queued.start()
            assert wait_for(lambda: admission.snapshot()["queued"] == 1)

            # Queue-timeout request: waits 100ms, then sheds WITHOUT
            # ever executing.
            t_timeout = threading.Thread(
                target=issue, args=("timed_out",),
                kwargs={"queue_timeout_ms": 100},
            )
            t_timeout.start()
            assert wait_for(lambda: admission.snapshot()["queued"] == 2)

            # Queue now full: immediate typed shed.
            issue("shed_now")
            assert isinstance(outcomes["shed_now"], ServerOverloaded)
            assert outcomes["shed_now"].retryable is True
            assert outcomes["shed_now"].retry_after > 0.0

            t_timeout.join(timeout=30.0)
            assert isinstance(outcomes["timed_out"], ServerOverloaded)

            snap = admission.snapshot()
            assert snap["max_queued"] <= 2  # bounded, never grew past
            assert snap["shed_queue_full"] >= 1
            assert snap["shed_timeout"] == 1

            # Unblock: the running and queued requests complete fine.
            tenant.rw.release_write()
            t_run.join(timeout=30.0)
            t_queued.join(timeout=30.0)
            assert outcomes["running"]["rows"] == [[1, 3]]
            assert outcomes["queued"]["rows"] == [[1, 3]]

            # The timed-out request never executed: only the two
            # completed queries were charged to the tenant.
            assert tenant.snapshot()["requests"] == 2


class TestSubscriptionLifecycle:
    def test_disconnect_unregisters_views(self, server):
        """Dropping a connection must unregister its views from the
        owning tenant's LiveEngine — not just detach the callbacks —
        or every disconnect leaks a forever-maintained view."""
        with ServeClient(server.host, server.port, tenant="gone") as client:
            client.load("e", [(1, 2), (2, 3)])
            client.subscribe(PATH2_A)
            tenant = server.server.tenants["gone"]
            assert len(tenant.live) == 1
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and len(tenant.live):
            time.sleep(0.01)
        assert len(tenant.live) == 0

    def test_unsubscribe_after_rehello_targets_owning_tenant(self, server):
        """View ids are per-LiveEngine counters: unsubscribing after a
        re-'hello' rebind must unregister the view of the tenant that
        owned it at subscribe time, not a same-id view of the currently
        bound tenant."""
        with ServeClient(server.host, server.port, tenant="own_a") as ca, \
                ServeClient(server.host, server.port, tenant="own_b") as cb:
            ca.load("e", [(1, 2)])
            cb.load("e", [(5, 6)])
            sub_a = ca.subscribe(PATH2_A)["sub"]  # own_a's view id 0
            cb.subscribe(PATH2_A)  # own_b's view id 0
            ca.call("hello", tenant="own_b")  # rebind ca's connection
            ca.unsubscribe(sub_a)
            assert len(server.server.tenants["own_a"].live) == 0
            assert len(server.server.tenants["own_b"].live) == 1


class TestRobustness:
    def test_handler_bug_stays_in_protocol(self, server):
        """A non-ReproError escaping a handler fails the request with a
        typed InternalError; the connection keeps serving."""
        with ServeClient(server.host, server.port, tenant="rb") as client:
            client.declare("e", 2)
            # A non-iterable row raises TypeError inside the load
            # handler — previously that killed the whole connection.
            with pytest.raises(InternalError):
                client.call("load", predicate="e", rows=[5])
            assert client.ping()

    def test_oversized_response_is_replaced_with_typed_error(self):
        async def main():
            conn = _Connection(None, 8)
            await conn.send({
                "id": 7,
                "ok": True,
                "result": {"blob": "x" * (MAX_LINE_BYTES + 1)},
            })
            data = conn.queue.get_nowait()
            assert len(data) <= MAX_LINE_BYTES
            message = json.loads(data)
            assert message["id"] == 7
            assert message["ok"] is False
            assert message["error"]["type"] == "ResponseTooLarge"

        asyncio.run(main())

    def test_oversized_push_drops_the_subscriber(self):
        async def main():
            conn = _Connection(None, 8)
            consumed = conn.try_send({
                "push": "delta",
                "sub": 1,
                "blob": "x" * (MAX_LINE_BYTES + 1),
            })
            assert consumed is True  # not retried: connection goes down
            assert conn.closing
            notice = json.loads(conn.queue.get_nowait())
            assert notice["push"] == "error"
            assert notice["type"] == "ResponseTooLarge"

        asyncio.run(main())

    def test_client_detects_oversized_line(self):
        client = ServeClient.__new__(ServeClient)
        client._file = io.BytesIO(b"x" * (MAX_LINE_BYTES + 2))
        with pytest.raises(ProtocolError, match="oversized"):
            client._read_message()

    def test_client_detects_mid_message_close(self):
        client = ServeClient.__new__(ServeClient)
        client._file = io.BytesIO(b'{"v":1')
        with pytest.raises(ConnectionError):
            client._read_message()


class TestSeedDatabase:
    def test_every_tenant_starts_from_the_seed(self):
        seed = Database()
        seed.add_fact("e", 1, 2)
        seed.add_fact("e", 2, 3)
        with serve_in_thread(seed_db=seed) as st:
            with ServeClient(st.host, st.port, tenant="a") as a:
                assert a.query(PATH2_A)["rows"] == [[1, 3]]
                a.load("e", [(3, 4)])
            with ServeClient(st.host, st.port, tenant="b") as b:
                # b's copy is unaffected by a's insert.
                assert b.query(PATH2_A)["rows"] == [[1, 3]]
