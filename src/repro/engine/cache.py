"""A thread-safe LRU plan cache keyed on structural fingerprints.

The cache stores hypertree decompositions under the fingerprint of the
query that produced them.  A lookup for a structurally identical query —
same hypergraph shape, arbitrary variable/predicate renaming — finds the
entry, certifies it with an explicit isomorphism, and *transports* the
decomposition onto the incoming query's atoms:

1. rename every χ variable and λ-atom through the isomorphism, giving a
   decomposition over the incoming query's variables;
2. swap each λ atom for a witness atom of the incoming query with the
   same variable set via the Theorem A.7 map
   (:func:`repro.core.canonical.hypergraph_decomposition_to_query`).

Validity is preserved because Definition 4.1's conditions see atoms only
through their variable sets; the independent GHTD checker re-certifies
every transported plan anyway, so a bug in the isomorphism search can
cost a cache miss but never a wrong answer.  A lookup for the stored
query itself skips all of it: the stored tree is handed back as it is.
The entry remembers each certified transport by the incoming body, so a
renamed variant is searched and certified once, and every later lookup
hands its tree back the way the identity case does.

An entry also holds the physical plans the engine compiled over its
decomposition, per database (weakly — a dropped database takes its
plans with it) and keyed by query, decomposition root, method and
layout policy, each stamped with the database version it was priced
at (:meth:`PlanCache.recall_plan` / :meth:`PlanCache.keep_plan`).
Evicting the entry drops them; ``maxsize`` bounds each memo, so a
disabled cache remembers nothing.

Because 1-WL fingerprints can (rarely) collide for non-isomorphic
shapes, each fingerprint maps to a *bucket* of entries; lookups try each
entry's isomorphism in turn and fall through to a miss.

Buckets are keyed ``(fingerprint, semiring tag)`` — ``"set"`` for plain
set semantics — so per-semiring hit rates stay observable and eviction
treats each workload family independently.  Decompositions themselves
are *semiring-independent* (they fix evaluation structure, not the
algebra annotations are folded in), so a miss under one tag first tries
to **promote** a sibling tag's entry at the same fingerprint: the first
``Engine.count`` of a shape that set semantics already planned costs a
transport, not a decomposition.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.atoms import Atom
from ..core.canonical import hypergraph_decomposition_to_query
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.query import ConjunctiveQuery
from ..heuristics.validate import check_decomposition
from .fingerprint import fingerprint, shape_isomorphism

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..db.database import Database
    from .plan import QueryPlan


@dataclass(frozen=True)
class CachedPlan:
    """One stored shape: the representative query it was planned for,
    its decomposition, and provenance from the planner — plus the memos
    that live and die with it: the certified transported tree per
    incoming body, and the compiled plans per database."""

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    width: int
    method: str
    transports: dict[tuple[Atom, ...], HTNode] = field(
        default_factory=dict, compare=False, repr=False
    )
    plans: weakref.WeakKeyDictionary[Database, dict] = field(
        default_factory=weakref.WeakKeyDictionary, compare=False, repr=False
    )


@dataclass(frozen=True)
class CacheHit:
    """A successful lookup: the decomposition transported onto the
    incoming query, plus the stored provenance and the entry that
    answered (where the engine memoises compiled plans)."""

    decomposition: HypertreeDecomposition
    width: int
    method: str
    entry: CachedPlan | None = None


def _bounded_put(memo: dict, key, value, bound: int) -> None:
    """Store *value* as *memo*'s most recent item, dropping the oldest
    beyond *bound* items."""
    memo.pop(key, None)
    memo[key] = value
    while len(memo) > bound:
        del memo[next(iter(memo))]


def transport_plan(
    entry: CachedPlan, query: ConjunctiveQuery
) -> HypertreeDecomposition | None:
    """Carry *entry*'s decomposition onto *query*, or ``None`` if the two
    are not actually isomorphic (fingerprint collision or step cap).

    A request for the stored query itself — same atoms, whatever the
    head — gets the stored tree under its own query: nothing is
    transported, so there is no isomorphism to find and nothing to
    re-certify (the tree is shared, and never mutated:
    :meth:`~repro.core.hypertree.HypertreeDecomposition.complete`
    copies)."""
    if entry.query.atoms == query.atoms:
        return HypertreeDecomposition(query, entry.decomposition.root)
    varmap = shape_isomorphism(entry.query, query)
    if varmap is None:
        return None
    renamed = entry.decomposition.map_nodes(
        lambda n: (
            frozenset(varmap[v] for v in n.chi),
            frozenset(a.rename(varmap) for a in n.lam),
        )
    )
    transported = hypergraph_decomposition_to_query(
        query, HypertreeDecomposition(query, renamed.root)
    )
    # Independent certification: a transported plan must be a valid GHTD
    # of the *incoming* query, not just of the representative.
    if check_decomposition(transported):
        return None
    return transported


class PlanCache:
    """Thread-safe LRU cache: ``(fingerprint, semiring tag)`` → bucket of
    :class:`CachedPlan`.

    ``maxsize`` bounds the number of stored plans (0 disables caching
    entirely: every lookup is a miss and stores are dropped).  Counters:

    * :attr:`hits` — lookups answered from the cache;
    * :attr:`misses` — lookups that fell through (unknown fingerprint,
      failed certification, or caching disabled);
    * :attr:`promotions` — hits served by copying a sibling semiring
      tag's entry at the same fingerprint (decompositions are
      semiring-independent, so the structure is shared across tags);
    * :attr:`evictions` — plans dropped to respect ``maxsize``.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._buckets: OrderedDict[tuple[str, str], list[CachedPlan]] = (
            OrderedDict()
        )
        # fingerprint → tags holding a bucket for it, for promotion.
        self._tags_of: dict[str, set[str]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.evictions = 0

    def lookup(
        self, query: ConjunctiveQuery, semiring_tag: str = "set"
    ) -> CacheHit | None:
        """Find and transport a plan for *query*'s shape under the given
        semiring tag (None = miss).  A miss under this tag first tries
        the sibling tags at the same fingerprint and promotes a match."""
        fp = fingerprint(query)
        key = (fp, semiring_tag)
        with self._lock:
            bucket = list(self._buckets.get(key, ()))
            if bucket:
                self._buckets.move_to_end(key)
            sibling_tags = [
                t for t in self._tags_of.get(fp, ()) if t != semiring_tag
            ]
        # The isomorphism search and transport run outside the lock: they
        # only read immutable entries, so concurrent lookups proceed in
        # parallel and the lock guards bookkeeping alone.
        for entry in bucket:
            transported = self._transport(entry, query)
            if transported is not None:
                with self._lock:
                    self.hits += 1
                return CacheHit(transported, entry.width, entry.method, entry)
        for tag in sibling_tags:
            with self._lock:
                sibling = list(self._buckets.get((fp, tag), ()))
            for entry in sibling:
                transported = self._transport(entry, query)
                if transported is not None:
                    with self._lock:
                        self.hits += 1
                        self.promotions += 1
                    # Copy the shape into this tag's bucket so the next
                    # lookup hits directly.
                    promoted = self.store(
                        query, transported, entry.width, entry.method,
                        semiring_tag=semiring_tag,
                    )
                    return CacheHit(
                        transported, entry.width, entry.method, promoted
                    )
        with self._lock:
            self.misses += 1
        return None

    def _transport(
        self, entry: CachedPlan, query: ConjunctiveQuery
    ) -> HypertreeDecomposition | None:
        """:func:`transport_plan`, searched and certified once per
        incoming body: the entry remembers the certified tree, and hands
        it back under the request's query as the identity case does."""
        with self._lock:
            root = entry.transports.get(query.atoms)
        if root is not None:
            return HypertreeDecomposition(query, root)
        transported = transport_plan(entry, query)
        if transported is not None and transported.root is not (
            entry.decomposition.root
        ):
            with self._lock:
                _bounded_put(
                    entry.transports, query.atoms, transported.root,
                    self.maxsize,
                )
        return transported

    def recall_plan(
        self, entry: CachedPlan, db: Database, key: tuple
    ) -> tuple[int, QueryPlan] | None:
        """The plan compiled over *entry* against *db* under *key*, as
        ``(database version it was priced at, plan)``, or ``None``."""
        with self._lock:
            plans = entry.plans.get(db)
            return None if plans is None else plans.get(key)

    def keep_plan(
        self,
        entry: CachedPlan,
        db: Database,
        key: tuple,
        version: int,
        plan: QueryPlan,
    ) -> None:
        """Remember *plan* as compiled over *entry* against *db* at
        *version* under *key*, replacing what *key* held.  At most
        ``maxsize`` databases per entry and plans per database."""
        with self._lock:
            plans = entry.plans.get(db)
            if plans is None:
                plans = {}
                _bounded_put(entry.plans, db, plans, self.maxsize)
            _bounded_put(plans, key, (version, plan), self.maxsize)

    def store(
        self,
        query: ConjunctiveQuery,
        decomposition: HypertreeDecomposition,
        width: int,
        method: str,
        semiring_tag: str = "set",
    ) -> CachedPlan | None:
        """Insert a freshly computed plan under *query*'s fingerprint and
        semiring tag; returns the new entry (``None`` when caching is
        disabled or an isomorphic entry was already there)."""
        if self.maxsize <= 0:
            return None
        fp = fingerprint(query)
        key = (fp, semiring_tag)
        entry = CachedPlan(query.as_boolean(), decomposition, width, method)
        with self._lock:
            # Concurrent misses of one shape race to store it; dedup
            # against isomorphic entries under the lock (check-then-act
            # must be atomic) so the bucket never accumulates copies.
            # Stores are rare — cold misses only — so holding the lock
            # through the small isomorphism search is fine.
            bucket = self._buckets.setdefault(key, [])
            if any(
                shape_isomorphism(e.query, entry.query) is not None
                for e in bucket
            ):
                return None
            bucket.append(entry)
            self._buckets.move_to_end(key)
            self._tags_of.setdefault(fp, set()).add(semiring_tag)
            self._size += 1
            # Evict least-recently-used buckets, but never the one just
            # written: a single bucket of colliding shapes may therefore
            # exceed maxsize slightly rather than self-destruct.
            while self._size > self.maxsize and len(self._buckets) > 1:
                (evicted_fp, evicted_tag), evicted = self._buckets.popitem(
                    last=False
                )
                self._size -= len(evicted)
                self.evictions += len(evicted)
                tags = self._tags_of.get(evicted_fp)
                if tags is not None:
                    tags.discard(evicted_tag)
                    if not tags:
                        del self._tags_of[evicted_fp]
        return entry

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()
            self._tags_of.clear()
            self._size = 0

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def snapshot(self) -> dict[str, int]:
        """Lock-consistent counter read: hits/misses/evictions/size
        captured under one lock acquisition, so a snapshot taken while
        other threads look plans up is a coherent point-in-time view
        (reading the bare attributes one by one can pair a pre-lookup
        hit count with a post-lookup miss count)."""
        with self._lock:
            return {
                "size": self._size,
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "promotions": self.promotions,
                "evictions": self.evictions,
            }

    def info(self) -> dict[str, int | float]:
        """Counter snapshot plus the derived hit rate."""
        counters = self.snapshot()
        lookups = counters["hits"] + counters["misses"]
        counters["hit_rate"] = (
            (counters["hits"] / lookups) if lookups else 0.0
        )
        return counters
