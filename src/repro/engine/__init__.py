"""``repro.engine`` — a decompose-once, execute-many query engine.

The subsystem layers the repo's existing pieces into one serving
pipeline (see the module docstrings for the theory each stage leans on):

* :mod:`~repro.engine.fingerprint` — canonical structural fingerprints
  of query hypergraphs (colour refinement), so isomorphic query shapes
  share one cache key regardless of variable/predicate renaming;
* :mod:`~repro.engine.cache` — a thread-safe LRU plan cache with
  hit/miss/eviction counters, transporting cached decompositions onto
  incoming queries through the Theorem A.7 relabelling maps;
* :mod:`~repro.engine.plan` — physical plans: cost-chosen χ labels,
  cardinality-driven join orders and root choice compiled from the
  estimates on top of Lemma 4.6;
* :mod:`~repro.engine.executor` — the :class:`Engine` facade with
  ``execute`` / ``execute_many`` / ``explain``, per-request budgets and
  aggregated :class:`~repro.db.stats.EvalStats`.

>>> from repro import Engine, parse_query
>>> from repro.db import Database
>>> engine = Engine()
>>> db = Database()
>>> db.add_fact("e", 1, 2); db.add_fact("e", 2, 3); db.add_fact("e", 3, 1)
>>> engine.execute(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db).boolean
True
>>> engine.execute(parse_query("f(A,B), f(B,C), f(C,A)"), db.__class__.from_relations({"f": [(1, 2), (2, 3), (3, 1)]})).cache_hit
True
"""

from .cache import CachedPlan, CacheHit, PlanCache, transport_plan
from .executor import BatchResult, Engine, EvalResult
from .fingerprint import fingerprint, shape_isomorphism
from .plan import QueryPlan, compile_plan, execute_plan

__all__ = [
    "BatchResult",
    "CacheHit",
    "CachedPlan",
    "Engine",
    "EvalResult",
    "PlanCache",
    "QueryPlan",
    "compile_plan",
    "execute_plan",
    "fingerprint",
    "shape_isomorphism",
    "transport_plan",
]
