"""The ``LiveEngine`` facade: standing queries over an update stream.

One object owns the mutable :class:`~repro.db.database.Database` and a
set of registered :class:`~repro.incremental.view.MaterializedView`\\ s::

    live = LiveEngine(db)                # or Engine(...).live(db)
    handle = live.register(query)        # decompose via the plan cache
    changes = live.apply(delta)          # all touched views, one batch
    handle.answers()                     # always-fresh answer relation

``register`` plans through a shared :class:`repro.engine.Engine`, so two
structurally identical views (same hypergraph shape under renaming) cost
one decomposition search — the fingerprint/isomorphism transport of the
plan cache serves live views exactly as it serves one-shot requests.

``apply`` first folds the batch into the database (obtaining the
*effective* delta under set semantics), then applies it, in the
caller's thread, to every view whose atoms mention a touched predicate;
untouched views pay nothing.
All public methods (including handle reads) are serialised by an
:class:`threading.RLock` — like the plan cache, a ``LiveEngine`` may be
shared between request threads.  Subscriber callbacks run while the lock
is held (re-entrant calls from the same thread are fine); keep them
short.  Callbacks run only after *every* affected view's state is up to
date, and a raising callback is isolated: the remaining callbacks still
fire and the first exception is re-raised once the fan-out completes.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from ..core.query import ConjunctiveQuery
from ..db.database import Database
from ..db.relation import Relation
from ..db.stats import EvalStats
from ..engine.executor import Engine
from ..obs import current_tracer, get_registry
from .delta import Delta, Value
from .view import AnswerDelta, MaterializedView


class ViewHandle:
    """A registered view: identity, provenance, and the live answers.

    Reads go through the owning engine's lock, so a handle may be polled
    from one thread while another thread applies deltas.
    """

    __slots__ = (
        "view_id", "query", "view", "width", "method", "cache_hit", "_lock"
    )

    def __init__(
        self,
        view_id: int,
        query: ConjunctiveQuery,
        view: MaterializedView,
        width: int,
        method: str,
        cache_hit: bool,
        lock: threading.RLock,
    ):
        self.view_id = view_id
        self.query = query
        self.view = view
        self.width = width
        self.method = method
        self.cache_hit = cache_hit
        self._lock = lock

    def answers(self) -> Relation:
        with self._lock:
            return self.view.answers()

    @property
    def boolean(self) -> bool:
        with self._lock:
            return self.view.boolean

    @property
    def stats(self) -> EvalStats:
        """Merged maintenance stats across all batches (including the
        initial load)."""
        with self._lock:
            return self.view.stats

    @property
    def last_batch(self) -> EvalStats | None:
        with self._lock:
            return self.view.last_batch

    def subscribe(
        self, callback: Callable[[AnswerDelta], None]
    ) -> Callable[[], None]:
        with self._lock:
            return self.view.subscribe(callback)

    def __repr__(self) -> str:
        return (
            f"<ViewHandle #{self.view_id} {self.query.name}: "
            f"width {self.width} [{self.method}"
            f"{', cached' if self.cache_hit else ''}]>"
        )


class LiveEngine:
    """Register queries once; keep every answer fresh under deltas.

    Parameters
    ----------
    db:
        The database instance the engine owns and mutates.  A fresh empty
        one by default — streams may build the instance from nothing.
    engine:
        The planning :class:`repro.engine.Engine` (and with it the shared
        plan cache).  A private one is created when omitted.
    """

    def __init__(
        self,
        db: Database | None = None,
        engine: Engine | None = None,
    ):
        self.db = db if db is not None else Database()
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else Engine()
        self._lock = threading.RLock()
        self._views: dict[int, ViewHandle] = {}
        self._next_id = 0
        self.batches_applied = 0

    def close(self) -> None:
        """Close the planning engine when it was created privately by
        this ``LiveEngine`` (a caller-supplied engine stays the caller's
        to close).  Idempotent; the live engine remains usable
        afterwards."""
        if self._owns_engine:
            self.engine.close()

    def __enter__(self) -> "LiveEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- registration -----------------------------------------------------
    def register(self, query: ConjunctiveQuery) -> ViewHandle:
        """Plan *query* (through the cache), materialise it against the
        current database, and keep it maintained from now on.

        The query's predicate arities are declared on the database, so a
        later batch contradicting them is rejected by the upfront schema
        check of :meth:`Database.apply` — *before* anything mutates.  A
        query contradicting the database's existing schema is rejected
        here, at registration.
        """
        with self._lock:
            for predicate, arity in query.arities.items():
                self.db.declare(predicate, arity)
            plan = self.engine.plan(query, self.db)
            # Views fed by this engine receive deltas that Database.apply
            # already made effective, so they skip the base shadow.
            view = MaterializedView(query, self.db, plan, track_base=False)
            handle = ViewHandle(
                self._next_id,
                query,
                view,
                plan.width,
                plan.provenance,
                plan.cache_hit,
                self._lock,
            )
            self._views[handle.view_id] = handle
            self._next_id += 1
            return handle

    def declare(self, predicate: str, arity: int) -> None:
        """Declare a base predicate's arity on the owned database (under
        the live lock, so it serialises against in-flight batches)."""
        with self._lock:
            self.db.declare(predicate, arity)

    def unregister(self, handle: ViewHandle) -> None:
        with self._lock:
            self._views.pop(handle.view_id, None)

    def views(self) -> tuple[ViewHandle, ...]:
        with self._lock:
            return tuple(self._views.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    # -- updates ----------------------------------------------------------
    def apply(self, delta: Delta) -> dict[int, AnswerDelta]:
        """Fold one batch into the database and every affected view.

        Returns ``view_id -> AnswerDelta`` for the views whose atoms
        mention a touched predicate (the delta may still be empty when
        the changes did not alter that view's answers).

        Updates happen in two phases: first every affected view's state
        is brought up to date, then subscribers are notified — so a
        raising callback (its exception is re-raised after the fan-out
        completes) can never leave a sibling view out of sync with the
        database.
        """
        with self._lock, current_tracer().span(
            "live.apply", views=len(self._views)
        ) as batch_span:
            effective = self.db.apply(delta)
            results: dict[int, AnswerDelta] = {}
            touched: list = []
            if effective:
                touched = [
                    (view_id, handle)
                    for view_id, handle in self._views.items()
                    if effective.touches(handle.view.predicates)
                ]
                for view_id, handle in touched:
                    results[view_id] = handle.view.apply(
                        effective, notify=False
                    )
            self.batches_applied += 1
            batch_span.set(
                touched_views=len(touched),
                changed_views=sum(1 for d in results.values() if d),
            )
            get_registry().counter("live.batches").inc()
            errors: list[BaseException] = []
            for view_id, answer_delta in results.items():
                handle = self._views.get(view_id)
                if handle is None:
                    continue
                try:
                    handle.view.notify_subscribers(answer_delta)
                except BaseException as error:  # noqa: BLE001 - deferred
                    errors.append(error)
            if errors:
                raise errors[0]
            return results

    def insert(
        self, predicate: str, *rows: Iterable[Value]
    ) -> dict[int, AnswerDelta]:
        """Convenience: ``apply(Delta.inserts(predicate, rows))``."""
        return self.apply(Delta.inserts(predicate, rows))

    def delete(
        self, predicate: str, *rows: Iterable[Value]
    ) -> dict[int, AnswerDelta]:
        """Convenience: ``apply(Delta.deletes(predicate, rows))``."""
        return self.apply(Delta.deletes(predicate, rows))

    # -- introspection ----------------------------------------------------
    def info(self) -> dict[str, object]:
        with self._lock:
            return {
                "views": len(self._views),
                "batches_applied": self.batches_applied,
                "db_tuples": self.db.tuple_count(),
                "db_version": self.db.version,
                "plan_cache": self.engine.cache.info(),
            }

    def __repr__(self) -> str:
        return (
            f"<LiveEngine {len(self)} views over "
            f"{self.db.tuple_count()} tuples>"
        )
