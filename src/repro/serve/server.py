"""The asyncio query service: many tenants, one plan cache.

:class:`QueryServer` is a long-lived process serving the newline-
delimited JSON protocol of :mod:`repro.serve.protocol` over TCP.  The
event loop owns connections, admission, and push delivery; the actual
engine calls — which are synchronous, CPU-bound Python — run on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` whose width
equals the admission controller's ``max_inflight``, so the executor can
never accumulate hidden backlog behind the controller's back.

The sharing structure is the whole point:

* **one** :class:`~repro.engine.Engine` (and plan cache) serves every
  tenant — renamed-isomorphic queries across tenants cost a transport,
  not a decomposition search (and the engine's single-flight gate
  collapses concurrent first-misses of one shape into one search);
* **per-tenant** :class:`~repro.serve.tenant.Tenant` state isolates
  data, budgets, and rate limits — a tenant blowing its cumulative
  budget gets typed :class:`~repro.serve.tenant.TenantBudgetExceeded`
  errors while its neighbours keep executing;
* **admission first**: rate limit → cumulative budget → cost gate →
  bounded queue, all *before* a request touches the executor, so an
  overloaded server degrades to cheap typed ``ServerOverloaded``
  responses instead of queueing without bound.

Request budgets are anchored at execution start (``Engine.execute``
computes the deadline when the executor picks the request up — PR 4
semantics), while ``queue_timeout_ms`` bounds the wait *before* that
anchor; a request that outwaits it is shed, never executed.

:func:`serve_in_thread` runs a server on a background thread with its
own event loop — how the benchmark, the tests, and the quickstart
example embed a server in one process.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from .. import __version__ as _version
from .._errors import ReproError
from ..core.parser import parse_query
from ..core.query import ConjunctiveQuery
from ..db.database import Database
from ..engine.executor import Engine, cheapest
from ..incremental.delta import Delta
from ..obs import get_registry
from .admission import AdmissionController
from .protocol import (
    MAX_LINE_BYTES,
    MODES,
    InternalError,
    ProtocolError,
    ResponseTooLarge,
    UnknownTenantError,
    decode_request,
    encode,
    error_response,
    ok_response,
    push_message,
)
from .push import PushSubscription
from .tenant import Tenant

_log = logging.getLogger(__name__)


class _Connection:
    """One client connection: reader state + a writer task draining an
    outgoing queue, so responses and push messages interleave whole-line
    atomically no matter which coroutine produced them."""

    def __init__(
        self,
        writer: asyncio.StreamWriter,
        queue_size: int,
    ):
        self.writer = writer
        self.queue: asyncio.Queue[bytes | None] = asyncio.Queue(
            maxsize=max(8, queue_size)
        )
        self.tenant: Tenant | None = None
        self.subs: dict[int, PushSubscription] = {}
        self.closing = False

    async def send(self, message: dict[str, Any]) -> None:
        """Enqueue a response (awaits when the queue is full — request/
        response traffic is flow-controlled by the client's reads).

        A response that serializes past ``MAX_LINE_BYTES`` would desync
        the client's line framing; it is replaced with a typed
        :class:`~repro.serve.protocol.ResponseTooLarge` error carrying
        the same request id."""
        if self.closing:
            return
        data = encode(message)
        if len(data) > MAX_LINE_BYTES:
            data = encode(
                error_response(
                    message.get("id"),
                    ResponseTooLarge(
                        f"response serialized to {len(data)} bytes, past "
                        f"the {MAX_LINE_BYTES}-byte line limit; narrow "
                        "the query or load in smaller batches"
                    ),
                )
            )
        await self.queue.put(data)

    def try_send(self, message: dict[str, Any]) -> bool:
        """Enqueue a push without waiting; ``False`` = queue full.

        A push too large for one line can never be delivered whole, so
        the subscriber is treated like a lapsed one: dropped with a
        typed error (returns ``True`` — the payload is consumed, the
        connection is going down)."""
        if self.closing:
            return False
        data = encode(message)
        if len(data) > MAX_LINE_BYTES:
            self.drop(
                ResponseTooLarge(
                    "coalesced push delta exceeds the line limit; "
                    "reconnect and re-subscribe"
                )
            )
            return True
        try:
            self.queue.put_nowait(data)
            return True
        except asyncio.QueueFull:
            return False

    def drop(self, error: Exception) -> None:
        """Terminate the connection after a best-effort typed notice
        (lapsed subscribers land here)."""
        if self.closing:
            return
        self.closing = True
        try:
            self.queue.put_nowait(
                encode(push_message("error", error=str(error), type=type(error).__name__))
            )
        except asyncio.QueueFull:
            pass
        try:
            self.queue.put_nowait(None)  # writer-task sentinel: close
        except asyncio.QueueFull:
            # Writer will notice `closing` once the queue drains.
            pass

    def close_subs(self) -> None:
        """Detach every subscription AND unregister its view from the
        owning tenant's ``LiveEngine`` — otherwise each disconnect
        leaves a dead client's view maintained forever."""
        for sub in self.subs.values():
            sub.close()
            if sub.owner is not None:
                sub.owner.live.unregister(sub.handle)
        self.subs.clear()

    async def write_loop(self) -> None:
        try:
            while True:
                item = await self.queue.get()
                if item is None:
                    break
                self.writer.write(item)
                await self.writer.drain()
                if self.closing and self.queue.empty():
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closing = True
            try:
                self.writer.close()
            except Exception:
                pass


class QueryServer:
    """A multi-tenant conjunctive-query service over one shared engine.

    Parameters
    ----------
    engine:
        The shared planning/execution engine.  A private one (``mode``
        forwarded) is created — and closed with the server — when
        omitted.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, readable from
        :attr:`port` after :meth:`start`.
    seed_db:
        Template database copied into every new tenant.
    max_inflight / max_queue / max_estimated_rows:
        Admission-control bounds (see
        :class:`~repro.serve.admission.AdmissionController`).
    request_budget / tenant_budget / rate / burst:
        Defaults for new tenants (per-request seconds, cumulative
        seconds, token-bucket rate/burst).
    push_queue / push_max_pending:
        Per-connection outgoing queue depth, and the coalesced-delta
        bound past which a slow subscriber is disconnected.
    """

    def __init__(
        self,
        engine: Engine | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        seed_db: Database | None = None,
        max_inflight: int = 8,
        max_queue: int = 64,
        max_estimated_rows: float | None = None,
        request_budget: float | None = None,
        tenant_budget: float | None = None,
        rate: float | None = None,
        burst: float | None = None,
        push_queue: int = 256,
        push_max_pending: int = 100_000,
        mode: str = "auto",
        slow_query_ms: float | None = None,
        flight_dump: str | None = None,
    ):
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else Engine(
            mode=mode,
            slow_query_ms=slow_query_ms,
            flight_dump=flight_dump,
        )
        self.host = host
        self.port = port
        self.seed_db = seed_db
        self.request_budget = request_budget
        self.tenant_budget = tenant_budget
        self.rate = rate
        self.burst = burst
        self.push_queue = push_queue
        self.push_max_pending = push_max_pending
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_queue=max_queue,
            max_estimated_rows=max_estimated_rows,
        )
        self.tenants: dict[str, Tenant] = {}
        self._tenants_lock = threading.Lock()
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._next_sub = 0
        self._started = time.monotonic()
        self._metrics = get_registry().scoped("serve")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        """Bind and begin accepting connections (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.admission.max_inflight,
            thread_name_prefix="serve-exec",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_LINE_BYTES + 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, close tenants/executor, release the engine
        (when server-owned).  Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)
        with self._tenants_lock:
            tenants, self.tenants = list(self.tenants.values()), {}
        for tenant in tenants:
            tenant.close()
        if self._owns_engine:
            self.engine.close()

    # -- tenancy -----------------------------------------------------------
    def _tenant(self, tenant_id: str) -> Tenant:
        with self._tenants_lock:
            tenant = self.tenants.get(tenant_id)
            if tenant is None:
                tenant = Tenant(
                    tenant_id,
                    self.engine,
                    seed_db=self.seed_db,
                    request_budget=self.request_budget,
                    total_budget=self.tenant_budget,
                    rate=self.rate,
                    burst=self.burst,
                )
                self.tenants[tenant_id] = tenant
                self._metrics.counter("tenants_created").inc()
            return tenant

    @staticmethod
    def _bound_tenant(conn: _Connection) -> Tenant:
        if conn.tenant is None:
            raise UnknownTenantError(
                "no tenant bound; send a 'hello' op first"
            )
        return conn.tenant

    # -- connection handling ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, self.push_queue)
        writer_task = asyncio.ensure_future(conn.write_loop())
        self._metrics.counter("connections").inc()
        try:
            while not conn.closing:
                try:
                    line = await reader.readline()
                except (
                    ValueError,
                    asyncio.LimitOverrunError,
                ):  # oversized line: unrecoverable framing loss
                    await conn.send(
                        error_response(
                            None,
                            ProtocolError("message exceeds the line limit"),
                        )
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(conn, line)
        finally:
            conn.close_subs()
            if not conn.closing:
                conn.closing = True
                try:
                    conn.queue.put_nowait(None)
                except asyncio.QueueFull:
                    writer_task.cancel()
            try:
                await asyncio.wait_for(writer_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError, TimeoutError):
                writer_task.cancel()

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        request_id: Any = None
        try:
            message = decode_request(line)
            request_id = message.get("id")
            result = await self._dispatch(conn, message)
            await conn.send(ok_response(request_id, result))
        except ReproError as error:
            self._metrics.counter("errors").inc()
            await conn.send(error_response(request_id, error))
        except Exception as error:  # noqa: BLE001 - keep failures in-protocol
            # A handler bug must fail the *request*, not the connection:
            # answer with a typed internal error and keep reading.
            self._metrics.counter("internal_errors").inc()
            _log.exception("unhandled error serving request %r", request_id)
            await conn.send(
                error_response(
                    request_id,
                    InternalError(
                        f"internal server error: "
                        f"{type(error).__name__}: {error}"
                    ),
                )
            )

    async def _dispatch(
        self, conn: _Connection, message: dict[str, Any]
    ) -> dict[str, Any]:
        op = message["op"]
        if op == "ping":
            return {"pong": True}
        if op == "hello":
            return self._op_hello(conn, message)
        if op == "stats":
            return self.stats()
        tenant = self._bound_tenant(conn)
        if op == "declare":
            return await self._op_declare(tenant, message)
        if op == "load":
            return await self._op_load(tenant, message)
        if op == "apply":
            return await self._op_apply(tenant, message)
        if op == "query":
            return await self._op_query(tenant, message)
        if op == "query_many":
            return await self._op_query_many(tenant, message)
        if op == "subscribe":
            return await self._op_subscribe(conn, tenant, message)
        if op == "unsubscribe":
            return self._op_unsubscribe(conn, message)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    # -- ops ---------------------------------------------------------------
    def _op_hello(
        self, conn: _Connection, message: dict[str, Any]
    ) -> dict[str, Any]:
        tenant_id = message.get("tenant")
        if not isinstance(tenant_id, str) or not tenant_id:
            raise ProtocolError("hello needs a non-empty 'tenant' string")
        conn.tenant = self._tenant(tenant_id)
        return {
            "tenant": tenant_id,
            "server": _version,
            "limits": {
                "max_inflight": self.admission.max_inflight,
                "max_queue": self.admission.max_queue,
                "request_budget": conn.tenant.request_budget,
                "total_budget": conn.tenant.total_budget,
                "rate": self.rate,
            },
        }

    async def _op_declare(
        self, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        predicate = message.get("predicate")
        arity = message.get("arity")
        if not isinstance(predicate, str) or not isinstance(arity, int):
            raise ProtocolError("declare needs 'predicate' and int 'arity'")

        def work() -> dict[str, Any]:
            with tenant.rw.write():
                tenant.live.declare(predicate, arity)
            return {"predicate": predicate, "arity": arity}

        return await self._run(work)

    async def _op_load(
        self, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        predicate = message.get("predicate")
        rows = message.get("rows")
        if not isinstance(predicate, str) or not isinstance(rows, list):
            raise ProtocolError("load needs 'predicate' and a 'rows' list")
        delta = Delta.inserts(predicate, [tuple(row) for row in rows])
        return await self._apply_delta(tenant, delta)

    async def _op_apply(
        self, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        changes = message.get("changes")
        if not isinstance(changes, dict):
            raise ProtocolError(
                "apply needs 'changes': {predicate: [[row, sign], ...]}"
            )
        parsed: dict[str, dict[tuple, int]] = {}
        for predicate, entries in changes.items():
            if not isinstance(entries, list):
                raise ProtocolError(f"changes[{predicate!r}] is not a list")
            rows: dict[tuple, int] = {}
            for entry in entries:
                try:
                    row, sign = entry
                    rows[tuple(row)] = int(sign)
                except (TypeError, ValueError):
                    raise ProtocolError(
                        f"changes[{predicate!r}] entries must be "
                        "[row, sign] pairs"
                    ) from None
            parsed[predicate] = rows
        return await self._apply_delta(tenant, Delta(parsed))

    async def _apply_delta(
        self, tenant: Tenant, delta: Delta
    ) -> dict[str, Any]:
        """Fold one delta into the tenant (admitted: mutations occupy an
        executor slot like queries do — a load storm must not starve the
        pool invisibly)."""
        await self.admission.acquire()
        started = time.perf_counter()
        try:

            def work() -> dict[str, Any]:
                before = tenant.db.tuple_count()
                with tenant.rw.write():
                    changes = tenant.live.apply(delta)
                return {
                    "applied": len(delta),
                    "effective": tenant.db.tuple_count() - before,
                    "db_tuples": tenant.db.tuple_count(),
                    "db_version": tenant.db.version,
                    "changed_views": sum(1 for d in changes.values() if d),
                }

            return await self._run(work)
        finally:
            self.admission.release(time.perf_counter() - started)

    def _parse_query(self, text: Any, name: str = "Q") -> ConjunctiveQuery:
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("missing query text 'q'")
        return parse_query(text, name=name)

    #: Envelope mode → engine semiring tag (``top_k`` is the tropical
    #: semiring plus a k-smallest cut on the annotations).
    _MODE_SEMIRING = {
        "count": "count",
        "top_k": "mincost",
        "mincost": "mincost",
        "provenance": "provenance",
        "prob": "prob",
    }

    def _parse_mode(
        self, message: dict[str, Any]
    ) -> tuple[str, str | None, int]:
        """Validate the envelope's evaluation mode; returns
        ``(mode, semiring tag or None, k)``."""
        mode = message.get("mode", "set")
        if mode not in MODES:
            raise ProtocolError(
                f"unknown mode {mode!r}; expected one of {sorted(MODES)}"
            )
        k = message.get("k", 1)
        if mode == "top_k" and (not isinstance(k, int) or k < 1):
            raise ProtocolError("mode 'top_k' needs a positive int 'k'")
        return mode, self._MODE_SEMIRING.get(mode), k

    @staticmethod
    def _wire_value(tag: str, value: Any) -> Any:
        """One annotation as JSON-representable data (tuples → lists,
        witness sets ordered deterministically)."""
        if tag == "mincost":
            cost, witness = value
            return [cost, [[p, list(r)] for p, r in witness]]
        if tag == "provenance":
            return [
                sorted(([p, list(r)] for p, r in ws), key=repr)
                for ws in sorted(value, key=repr)
            ]
        return value

    async def _op_query(
        self, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        query = self._parse_query(message.get("q"))
        mode, semiring, k = self._parse_mode(message)
        tenant.admit()
        self.admission.check_cost(query, tenant.db)
        budget = tenant.effective_budget(_ms(message.get("budget_ms")))
        queue_timeout = _ms(message.get("queue_timeout_ms"))
        await self.admission.acquire(queue_timeout)
        self._metrics.counter("requests").inc()
        started = time.perf_counter()
        try:

            def work() -> dict[str, Any]:
                with tenant.rw.read():
                    # Engine.execute anchors the budget deadline *here*,
                    # on the executor thread, at execution start.
                    result = self.engine.execute(
                        query, tenant.db, budget=budget, semiring=semiring
                    )
                tenant.charge(result.elapsed)
                payload = {
                    "rows": [list(r) for r in sorted(
                        result.answer.rows, key=repr
                    )],
                    "attributes": list(result.answer.attributes),
                    "boolean": result.boolean,
                    "cache_hit": result.cache_hit,
                    "width": result.width,
                    "method": result.method,
                    "mode": mode,
                    "elapsed_ms": round(result.elapsed * 1e3, 3),
                }
                if semiring is not None:
                    annotations = result.annotations or {}
                    if mode == "top_k":
                        payload["top"] = [
                            {
                                "row": list(row),
                                "cost": cost,
                                "witness": [[p, list(r)] for p, r in witness],
                            }
                            for row, cost, witness in cheapest(annotations, k)
                        ]
                    else:
                        payload["annotations"] = [
                            [list(row), self._wire_value(semiring, value)]
                            for row, value in sorted(
                                annotations.items(), key=lambda kv: repr(kv[0])
                            )
                        ]
                        payload["total"] = self._wire_value(
                            semiring, result.answer.total()
                        )
                return payload

            try:
                response = await self._run(work)
            except ReproError:
                tenant.charge(time.perf_counter() - started, ok=False)
                raise
            self._metrics.histogram("request_seconds").observe(
                time.perf_counter() - started
            )
            return response
        finally:
            self.admission.release(time.perf_counter() - started)

    async def _op_query_many(
        self, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        texts = message.get("qs")
        if not isinstance(texts, list) or not texts:
            raise ProtocolError("query_many needs a non-empty 'qs' list")
        queries = [
            self._parse_query(text, name=f"Q{i}")
            for i, text in enumerate(texts)
        ]
        mode, semiring, _ = self._parse_mode(message)
        if mode == "top_k":
            raise ProtocolError(
                "query_many does not support mode 'top_k'; "
                "use 'query' (or mode 'mincost')"
            )
        tenant.admit()
        for query in queries:
            self.admission.check_cost(query, tenant.db)
        budget = tenant.effective_budget(_ms(message.get("budget_ms")))
        queue_timeout = _ms(message.get("queue_timeout_ms"))
        await self.admission.acquire(queue_timeout)
        self._metrics.counter("requests").inc()
        started = time.perf_counter()
        try:

            def work() -> dict[str, Any]:
                with tenant.rw.read():
                    batch = self.engine.execute_many(
                        queries, db=tenant.db, budget=budget,
                        semiring=semiring,
                    )
                tenant.charge(
                    sum(r.elapsed for r in batch),
                    ok=batch.failures == 0,
                )
                results = []
                for item in batch:
                    if item.ok:
                        entry = {
                            "ok": True,
                            "rows": [
                                list(r)
                                for r in sorted(
                                    item.answer.rows, key=repr
                                )
                            ],
                            "cache_hit": item.cache_hit,
                            "elapsed_ms": round(item.elapsed * 1e3, 3),
                        }
                        if semiring is not None:
                            entry["total"] = self._wire_value(
                                semiring, item.answer.total()
                            )
                        results.append(entry)
                    else:
                        results.append(
                            {
                                "ok": False,
                                "error": {
                                    "type": (
                                        "BudgetExceeded"
                                        if item.method == "budget"
                                        else "EvaluationError"
                                    ),
                                    "message": item.error,
                                    "retryable": False,
                                },
                            }
                        )
                return {
                    "results": results,
                    "cache_hits": batch.cache_hits,
                    "failures": batch.failures,
                    "mode": mode,
                    "elapsed_ms": round(batch.elapsed * 1e3, 3),
                }

            return await self._run(work)
        finally:
            self.admission.release(time.perf_counter() - started)

    async def _op_subscribe(
        self, conn: _Connection, tenant: Tenant, message: dict[str, Any]
    ) -> dict[str, Any]:
        query = self._parse_query(message.get("q"))
        tenant.admit()
        self.admission.check_cost(query, tenant.db)
        await self.admission.acquire()
        started = time.perf_counter()
        try:

            def work():
                # LiveEngine.register serialises against apply through
                # the live lock; initial materialisation reads the db
                # under it.
                return tenant.live.register(query)

            handle = await self._run(work)
        finally:
            self.admission.release(time.perf_counter() - started)
        self._next_sub += 1
        sub = PushSubscription(
            self._next_sub,
            handle,
            self._loop,
            conn.try_send,
            conn.drop,
            max_pending_rows=self.push_max_pending,
            owner=tenant,
        )
        conn.subs[sub.sub_id] = sub
        tenant.metrics.counter("subscriptions").inc()
        answers = handle.answers()
        return {
            "sub": sub.sub_id,
            "rows": [list(r) for r in sorted(answers.rows, key=repr)],
            "attributes": list(answers.attributes),
            "width": handle.width,
            "method": handle.method,
            "cache_hit": handle.cache_hit,
        }

    def _op_unsubscribe(
        self, conn: _Connection, message: dict[str, Any]
    ) -> dict[str, Any]:
        sub_id = message.get("sub")
        sub = conn.subs.pop(sub_id, None)
        if sub is None:
            raise ProtocolError(f"unknown subscription {sub_id!r}")
        sub.close()
        # Unregister against the tenant that owned the view at subscribe
        # time — NOT the currently bound tenant: a re-'hello' may have
        # rebound the connection, and view ids are per-engine counters,
        # so the wrong engine could hold an unrelated view under this id.
        if sub.owner is not None:
            sub.owner.live.unregister(sub.handle)
        return {"sub": sub_id, "unsubscribed": True}

    # -- helpers -----------------------------------------------------------
    async def _run(self, fn):
        """Run a synchronous engine call on the bounded executor."""
        return await self._loop.run_in_executor(self._executor, fn)

    def stats(self) -> dict[str, Any]:
        """The ``stats`` op: cache/admission/tenant state in one view."""
        with self._tenants_lock:
            tenants = {
                tid: t.snapshot() for tid, t in sorted(self.tenants.items())
            }
        return {
            "server": _version,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "plan_cache": self.engine.cache.info(),
            "decompositions": self.engine.decompositions,
            "admission": self.admission.snapshot(),
            "tenants": tenants,
        }


def _ms(value: Any) -> float | None:
    """Milliseconds-on-the-wire to seconds (None passes through)."""
    if value is None:
        return None
    try:
        return max(0.0, float(value)) / 1e3
    except (TypeError, ValueError):
        raise ProtocolError(f"bad millisecond value {value!r}") from None


class ServerThread:
    """A :class:`QueryServer` running on a dedicated thread + loop.

    ``with serve_in_thread(...) as st:`` gives tests, benchmarks, and
    examples an in-process server whose ``host``/``port`` are bound by
    the time the constructor returns; :meth:`stop` (or the context exit)
    shuts the loop down and joins the thread.
    """

    def __init__(self, server: QueryServer):
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error

    def _main(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def boot() -> None:
            try:
                await self.server.start()
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
            finally:
                self._ready.set()

        self._loop.run_until_complete(boot())
        if self._startup_error is None:
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self.server.stop())
                # Connection handlers blocked on reads are cancelled so
                # the loop closes clean (clients see the socket drop).
                pending = [
                    t for t in asyncio.all_tasks(self._loop) if not t.done()
                ]
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
        self._loop.close()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(**kwargs: Any) -> ServerThread:
    """Start a :class:`QueryServer` on a background thread; returns once
    the port is bound."""
    return ServerThread(QueryServer(**kwargs))
