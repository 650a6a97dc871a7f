"""Admission control: bounded queues over the shared execution pool.

A server that accepts every request eventually queues without bound and
blows every deadline at once; the serving tier instead gates admission
*before* work starts, in three layers:

1. **cost gate** — a :class:`~repro.db.stats.CardinalityEstimator`
   estimate of the query's input volume against the tenant's own
   database.  Requests estimated beyond ``max_estimated_rows`` are
   rejected outright with :class:`~repro.serve.protocol.QueryRejected`
   (not retryable: the same query meets the same gate tomorrow).
2. **bounded queue** — at most ``max_inflight`` requests execute on the
   worker pool and at most ``max_queue`` wait behind them.  A request
   arriving past both bounds is *shed* immediately with
   :class:`~repro.serve.protocol.ServerOverloaded`, whose
   ``retry_after`` hint is the EWMA service time scaled by the current
   queue depth — a ``Retry-After`` header in exception form.
3. **queue-wait timeout** — a queued request whose ``queue_timeout``
   elapses before a slot frees is shed *without ever executing* (the
   PR 4 budget semantics anchor execution deadlines at execution start;
   the queue timeout is the complementary bound on time spent waiting
   to start).

The controller is asyncio-native (acquire awaits a slot on the event
loop) but thread-safe to release from executor callbacks.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any

from ..core.query import ConjunctiveQuery
from ..db.database import Database
from ..db.stats import CardinalityEstimator
from ..obs import get_registry
from .protocol import QueryRejected, ServerOverloaded

#: Fallback service-time estimate before any request completes (seeds
#: the retry-after hint; EWMA takes over from the first completion).
INITIAL_SERVICE_SECONDS = 0.05

#: EWMA smoothing factor for observed service times.
EWMA_ALPHA = 0.2


def estimate_cost(query: ConjunctiveQuery, db: Database | None) -> float:
    """The admission-time cost proxy: estimated input rows summed over
    the query's atoms (System-R selectivities, memoised per estimator).

    Deliberately the *same* estimate the planner uses for join orders
    and layouts — the gate and the plan never disagree about what
    "expensive" means.
    """
    estimator = CardinalityEstimator(db)
    return float(sum(estimator.atom_rows(atom) for atom in query.atoms))


class AdmissionController:
    """Bounded inflight + bounded queue + cost gate over one worker pool.

    Parameters
    ----------
    max_inflight:
        Requests executing concurrently (the executor pool width).
    max_queue:
        Requests allowed to wait for a slot; past this, shed.
    max_estimated_rows:
        Cost-gate ceiling on :func:`estimate_cost` (``None`` disables).
    """

    def __init__(
        self,
        max_inflight: int = 8,
        max_queue: int = 64,
        max_estimated_rows: float | None = None,
    ):
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self.max_estimated_rows = max_estimated_rows
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._lock = threading.Lock()
        self.inflight = 0
        self.queued = 0
        self.max_queued = 0
        self.admitted = 0
        self.shed_queue_full = 0
        self.shed_timeout = 0
        self.rejected_cost = 0
        self.ewma_service = INITIAL_SERVICE_SECONDS
        self._metrics = get_registry().scoped("serve.admission")

    # -- gates -------------------------------------------------------------
    def check_cost(
        self, query: ConjunctiveQuery, db: Database | None
    ) -> float:
        """Apply the cost gate; returns the estimate for observability."""
        cost = estimate_cost(query, db)
        if (
            self.max_estimated_rows is not None
            and cost > self.max_estimated_rows
        ):
            with self._lock:
                self.rejected_cost += 1
            self._metrics.counter("rejected_cost").inc()
            raise QueryRejected(
                f"query {query.name} estimated at {cost:.0f} input rows, "
                f"over the server's {self.max_estimated_rows:.0f}-row "
                "admission ceiling"
            )
        return cost

    def _retry_after(self) -> float:
        """How long until capacity plausibly returns: the smoothed
        service time scaled by how many service periods of work are
        already committed ahead of a new arrival."""
        with self._lock:
            backlog = self.inflight + self.queued
            service = self.ewma_service
        return max(0.001, service * (backlog + 1) / self.max_inflight)

    async def acquire(self, queue_timeout: float | None = None) -> None:
        """Wait for an execution slot, shedding instead of queueing
        without bound.

        Raises :class:`ServerOverloaded` immediately when the queue is
        full, or after *queue_timeout* seconds of waiting (the request
        never executes — its deadline was going to be blown anyway).
        """
        with self._lock:
            if self.inflight >= self.max_inflight and (
                self.queued >= self.max_queue
            ):
                self.shed_queue_full += 1
                self._metrics.counter("shed_queue_full").inc()
                raise ServerOverloaded(
                    f"server saturated ({self.inflight} inflight, "
                    f"{self.queued} queued of {self.max_queue})",
                    retry_after=self._retry_after_locked(),
                )
            self.queued += 1
            if self.queued > self.max_queued:
                self.max_queued = self.queued
        self._metrics.gauge("queued").set(self.queued)
        try:
            try:
                await asyncio.wait_for(
                    self._slots.acquire(), timeout=queue_timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                with self._lock:
                    self.shed_timeout += 1
                self._metrics.counter("shed_timeout").inc()
                raise ServerOverloaded(
                    f"queued past the {queue_timeout:.3f}s queue timeout; "
                    "request shed before execution",
                    retry_after=self._retry_after(),
                ) from None
        finally:
            with self._lock:
                self.queued -= 1
            self._metrics.gauge("queued").set(self.queued)
        with self._lock:
            self.inflight += 1
            self.admitted += 1
        self._metrics.counter("admitted").inc()
        self._metrics.gauge("inflight").set(self.inflight)

    def _retry_after_locked(self) -> float:
        backlog = self.inflight + self.queued
        return max(
            0.001, self.ewma_service * (backlog + 1) / self.max_inflight
        )

    def release(self, service_seconds: float | None = None) -> None:
        """Return a slot, feeding the observed service time into the
        retry-after EWMA.  Must run on the event loop
        (:class:`asyncio.Semaphore` is not thread-safe); the server
        releases after ``await``-ing the executor future, which is
        exactly there."""
        with self._lock:
            self.inflight -= 1
            if service_seconds is not None and service_seconds >= 0:
                self.ewma_service += EWMA_ALPHA * (
                    service_seconds - self.ewma_service
                )
        self._metrics.gauge("inflight").set(self.inflight)
        self._slots.release()

    # -- observability -----------------------------------------------------
    @property
    def shed(self) -> int:
        with self._lock:
            return self.shed_queue_full + self.shed_timeout

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self.inflight,
                "queued": self.queued,
                "max_queued": self.max_queued,
                "admitted": self.admitted,
                "shed_queue_full": self.shed_queue_full,
                "shed_timeout": self.shed_timeout,
                "rejected_cost": self.rejected_cost,
                "ewma_service_seconds": round(self.ewma_service, 6),
                "max_estimated_rows": self.max_estimated_rows,
            }
