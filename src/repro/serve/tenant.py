"""Per-tenant state: database, rate limits, and inference budgets.

Each tenant of a :class:`~repro.serve.server.QueryServer` owns an
isolated :class:`~repro.db.database.Database` (loaded and mutated only
through that tenant's connection ops) wrapped in a
:class:`~repro.incremental.live.LiveEngine` so push subscriptions ride
the existing :class:`~repro.incremental.view.MaterializedView`
answer-delta machinery.  What tenants *share* is the server's single
planning :class:`~repro.engine.Engine` — and with it the
fingerprint-keyed plan cache, so two tenants submitting renamed-
isomorphic queries cost one decomposition search plus one transport.

Budgets are first-class, mapped onto the existing
:class:`~repro._errors.BudgetExceeded` machinery:

* **per-request budget** — wall-clock seconds forwarded to
  ``Engine.execute(budget=...)``; the deadline is anchored at execution
  start (PR 4 semantics), never at queue entry;
* **cumulative budget** — total execution seconds a tenant may consume
  over its lifetime.  Each finished request is charged its measured
  latency; once spent, further requests raise
  :class:`TenantBudgetExceeded` *before* touching the engine, so an
  over-budget tenant degrades to cheap typed errors instead of
  consuming shared pool capacity.
* **token-bucket rate limit** — requests per second with a burst
  allowance; an empty bucket raises
  :class:`~repro.serve.protocol.RateLimited` carrying the exact
  ``retry_after`` until the next token.

Per-tenant metrics land in the process-global registry under
``tenant.<id>.*`` via :meth:`~repro.obs.metrics.MetricsRegistry.scoped`
(``repro stats --json`` groups them back per tenant).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any

from .._errors import BudgetExceeded
from ..db.database import Database
from ..engine.executor import Engine
from ..incremental.live import LiveEngine
from ..obs import get_registry
from .protocol import RateLimited


class TenantBudgetExceeded(BudgetExceeded):
    """A tenant's *cumulative* execution budget is spent.

    Subclasses :class:`BudgetExceeded`, so every existing handler of
    blown budgets (``execute_many`` fault isolation, the CLI, the
    flight recorder's auto-dump) treats it identically; the wire payload
    still names the subclass, letting clients distinguish "this request
    was too slow" from "this tenant is out of quota".
    """


class ReadWriteLock:
    """A writer-preferring read-write lock for tenant databases.

    Queries evaluate concurrently (shared), while mutations — ``load`` /
    ``apply`` / ``declare``, which fold deltas into the tenant's
    database and views — take the lock exclusively.  The engine reads
    :class:`~repro.db.database.Database` row sets outside any lock, so
    without this a delta landing mid-query could mutate a set another
    thread is iterating.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class TokenBucket:
    """A thread-safe token bucket: *rate* tokens/second, *burst* deep.

    ``try_acquire`` never blocks — it either takes a token and returns
    0.0, or returns the seconds until one becomes available (the
    ``Retry-After`` hint for :class:`RateLimited`).
    """

    def __init__(self, rate: float, burst: float | None = None):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, rate)
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        """Take *tokens* now if available (return 0.0), else the wait."""
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    @property
    def available(self) -> float:
        with self._lock:
            now = time.monotonic()
            return min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )


class Tenant:
    """One tenant's isolated state inside a shared server.

    Parameters
    ----------
    tenant_id:
        The name the ``hello`` op bound.  Also the metric label:
        counters land under ``tenant.<id>.*``.
    engine:
        The server's shared planning engine (plan cache included).
    seed_db:
        Optional template database copied into this tenant at creation
        (``repro serve FACTS`` preloads every tenant with the file).
    request_budget:
        Default per-request execution budget in seconds (``None`` =
        unbounded); individual requests may pass a smaller one.
    total_budget:
        Cumulative execution-seconds quota (``None`` = unmetered).
    rate / burst:
        Token-bucket admission rate (requests/second) and depth;
        ``rate=None`` disables rate limiting.
    """

    def __init__(
        self,
        tenant_id: str,
        engine: Engine,
        seed_db: Database | None = None,
        request_budget: float | None = None,
        total_budget: float | None = None,
        rate: float | None = None,
        burst: float | None = None,
    ):
        self.tenant_id = tenant_id
        db = Database()
        if seed_db is not None:
            for predicate in seed_db.predicates():
                db.declare(predicate, seed_db.arity(predicate))
                for row in seed_db.rows(predicate):
                    db.add_fact(predicate, *row)
        self.live = LiveEngine(db=db, engine=engine)
        self.rw = ReadWriteLock()
        self.request_budget = request_budget
        self.total_budget = total_budget
        self.bucket = TokenBucket(rate, burst) if rate is not None else None
        self.consumed = 0.0
        self.requests = 0
        self.failures = 0
        self.shed = 0
        self._lock = threading.Lock()
        self.metrics = get_registry().scoped(f"tenant.{tenant_id}")

    @property
    def db(self) -> Database:
        return self.live.db

    # -- admission hooks ---------------------------------------------------
    def admit(self) -> None:
        """Rate-limit and quota gate, called before a request queues.

        Raises :class:`RateLimited` (retryable, with the bucket's exact
        refill time) or :class:`TenantBudgetExceeded` (terminal until an
        operator raises the quota).  Passing costs one token.
        """
        self.check_budget()
        if self.bucket is not None:
            wait = self.bucket.try_acquire()
            if wait > 0.0:
                self.metrics.counter("rate_limited").inc()
                with self._lock:
                    self.shed += 1
                raise RateLimited(
                    f"tenant {self.tenant_id!r} over {self.bucket.rate:g} "
                    f"req/s; retry in {wait:.3f}s",
                    retry_after=wait,
                )

    def check_budget(self) -> None:
        """Raise :class:`TenantBudgetExceeded` once the quota is spent."""
        if self.total_budget is None:
            return
        with self._lock:
            spent = self.consumed
        if spent >= self.total_budget:
            self.metrics.counter("budget_rejected").inc()
            raise TenantBudgetExceeded(
                f"tenant {self.tenant_id!r} spent {spent:.3f}s of its "
                f"{self.total_budget:g}s cumulative budget"
            )

    def effective_budget(self, requested: float | None) -> float | None:
        """The per-request budget to hand the engine: the smaller of the
        request's own ask, the tenant default, and — under a cumulative
        quota — whatever quota remains (a request can never be granted
        more runtime than the tenant has left)."""
        candidates = [
            b for b in (requested, self.request_budget) if b is not None
        ]
        if self.total_budget is not None:
            with self._lock:
                candidates.append(
                    max(0.0, self.total_budget - self.consumed)
                )
        return min(candidates) if candidates else None

    # -- accounting --------------------------------------------------------
    def charge(self, seconds: float, ok: bool = True) -> None:
        """Account one finished request against the cumulative budget."""
        with self._lock:
            self.consumed += seconds
            self.requests += 1
            if not ok:
                self.failures += 1
        self.metrics.counter("requests").inc()
        if not ok:
            self.metrics.counter("failures").inc()
        self.metrics.counter("execute_seconds").inc(max(0.0, seconds))
        self.metrics.histogram("request_seconds").observe(max(0.0, seconds))

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "tenant": self.tenant_id,
                "requests": self.requests,
                "failures": self.failures,
                "shed": self.shed,
                "consumed_seconds": round(self.consumed, 6),
                "total_budget": self.total_budget,
                "request_budget": self.request_budget,
                "rate": self.bucket.rate if self.bucket else None,
                "db_tuples": self.db.tuple_count(),
                "views": len(self.live),
            }

    def close(self) -> None:
        """Close the tenant's ``LiveEngine`` (the shared planning engine
        is owned — and closed — by the server)."""
        self.live.close()

    def __repr__(self) -> str:
        return (
            f"<Tenant {self.tenant_id!r}: {self.db.tuple_count()} tuples, "
            f"{len(self.live)} views>"
        )
