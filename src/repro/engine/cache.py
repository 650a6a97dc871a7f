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
decomposition, one per query, decomposition root, method, layout
policy and semiring tag (:meth:`PlanCache.recall_plan` /
:meth:`PlanCache.keep_plan`).  A plan names no database: it carries the
estimator reads it was priced on, re-checked on each request's.
Evicting the entry drops them; ``maxsize`` bounds each memo, so a
disabled cache remembers nothing.

Because 1-WL fingerprints can (rarely) collide for non-isomorphic
shapes, each fingerprint maps to a *bucket* of entries; lookups try each
entry's isomorphism in turn and fall through to a miss.

The fingerprint alone keys a bucket.  A decomposition depends only on
the query's hypergraph (Definition 4.1), and the Lemma 4.6 / Theorem
4.8 evaluation over it is the same for every commutative semiring, so
one entry serves set semantics and every annotated request of its
shape.  Only the compiled plan depends on the semiring (a *weighted*
plan, or a row plan for values no weight column holds), which is why
the semiring tag is part of the plan-memo key and not of the bucket's.
"""

from __future__ import annotations

import threading
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
    from .plan import QueryPlan


@dataclass(frozen=True)
class CachedPlan:
    """One stored shape: the representative query it was planned for,
    its decomposition, and provenance from the planner — plus the memos
    that live and die with it: the certified transported tree per
    incoming body, and the compiled plan per plan-memo key."""

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    width: int
    method: str
    transports: dict[tuple[Atom, ...], HTNode] = field(
        default_factory=dict, compare=False, repr=False
    )
    plans: dict = field(default_factory=dict, compare=False, repr=False)


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
    """Thread-safe LRU cache: fingerprint → bucket of :class:`CachedPlan`.

    ``maxsize`` bounds the number of stored plans (0 disables caching
    entirely: every lookup is a miss and stores are dropped).  Counters:

    * :attr:`hits` — lookups answered from the cache;
    * :attr:`misses` — lookups that fell through (unknown fingerprint,
      failed certification, or caching disabled);
    * :attr:`evictions` — plans dropped to respect ``maxsize``.

    :meth:`lookup` and :meth:`store` still accept ``semiring_tag=``, which
    selects nothing: only the end-to-end benchmark under
    ``benchmarks/e2e`` passes it.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._lock = threading.RLock()
        self._buckets: OrderedDict[str, list[CachedPlan]] = OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(
        self, query: ConjunctiveQuery, semiring_tag: str = "set"
    ) -> CacheHit | None:
        """Find and transport a plan for *query*'s shape (None = miss);
        *semiring_tag* selects nothing."""
        fp = fingerprint(query)
        with self._lock:
            bucket = list(self._buckets.get(fp, ()))
            if bucket:
                self._buckets.move_to_end(fp)
        # The isomorphism search and transport run outside the lock: they
        # only read immutable entries, so concurrent lookups proceed in
        # parallel and the lock guards bookkeeping alone.
        for entry in bucket:
            transported = self._transport(entry, query)
            if transported is not None:
                with self._lock:
                    self.hits += 1
                return CacheHit(transported, entry.width, entry.method, entry)
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

    def recall_plan(self, entry: CachedPlan, key: tuple) -> QueryPlan | None:
        """The plan last compiled over *entry* under *key*, or ``None``."""
        with self._lock:
            return entry.plans.get(key)

    def keep_plan(self, entry: CachedPlan, key: tuple, plan: QueryPlan) -> None:
        """Remember *plan* as compiled over *entry* under *key*, replacing
        what *key* held.  At most ``maxsize`` plans per entry."""
        with self._lock:
            _bounded_put(entry.plans, key, plan, self.maxsize)

    def store(
        self,
        query: ConjunctiveQuery,
        decomposition: HypertreeDecomposition,
        width: int,
        method: str,
        semiring_tag: str = "set",
    ) -> CachedPlan | None:
        """Insert a freshly computed plan under *query*'s fingerprint;
        returns the new entry (``None`` when caching is disabled or an
        isomorphic entry was already there).  *semiring_tag* selects
        nothing."""
        if self.maxsize <= 0:
            return None
        fp = fingerprint(query)
        entry = CachedPlan(query.as_boolean(), decomposition, width, method)
        with self._lock:
            # Concurrent misses of one shape race to store it; dedup
            # against isomorphic entries under the lock (check-then-act
            # must be atomic) so the bucket never accumulates copies.
            # Stores are rare — cold misses only — so holding the lock
            # through the small isomorphism search is fine.
            bucket = self._buckets.setdefault(fp, [])
            if any(
                shape_isomorphism(e.query, entry.query) is not None
                for e in bucket
            ):
                return None
            bucket.append(entry)
            self._buckets.move_to_end(fp)
            self._size += 1
            # Evict least-recently-used buckets, but never the one just
            # written: a single bucket of colliding shapes may therefore
            # exceed maxsize slightly rather than self-destruct.
            while self._size > self.maxsize and len(self._buckets) > 1:
                _, evicted = self._buckets.popitem(last=False)
                self._size -= len(evicted)
                self.evictions += len(evicted)
        return entry

    def clear(self) -> None:
        with self._lock:
            self._buckets.clear()
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
