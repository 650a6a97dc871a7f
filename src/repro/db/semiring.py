"""Commutative semirings for annotated query evaluation.

Gottlob–Leone–Scarcello's tractability result is not specific to set
semantics: the bounded-width join-tree evaluation of
:mod:`repro.db.yannakakis` generalises to any commutative semiring
``(K, ⊕, ⊗, 0, 1)`` once every base fact carries an annotation from
``K`` (Green–Karvounarakis–Tannen provenance semirings):

* **semijoin** only removes rows whose contribution is ``0`` — safe for
  every semiring;
* **natural join** multiplies annotations with ``⊗`` (its output rows
  are in bijection with matched pairs, so no ``⊕`` is needed);
* **projection** ``⊕``-aggregates the annotations of collapsed rows.

Set semantics is the Boolean semiring and stays a zero-overhead
specialisation: plain :class:`~repro.db.relation.Relation` instances
never consult this module.  Annotated evaluation rides the
:class:`~repro.db.annotated.AnnotatedRelation` subclass, whose operator
overrides call ``plus``/``times`` from the instances below — or, for a
semiring that declares a vector form, the weight column of a
:class:`~repro.db.columnar.ColumnarRelation`.

Four semirings ship built in (:data:`COUNTING`, :data:`MINCOST`,
:data:`PROVENANCE`, :data:`PROB`), plus the ℤ ring (:data:`INT_RING`)
the incremental layer's support counting is an instance of.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Hashable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

Row = tuple
#: A base-fact identifier as it appears in witnesses and provenance
#: sets: the (predicate, database row) pair.
FactId = tuple[str, Row]


class Semiring:
    """A commutative semiring ``(K, plus, times, zero, one)``.

    Subclasses fix the carrier set by choosing the value representation;
    all values must be hashable and picklable (annotations pickle inside
    their relation).  A semiring itself pickles as its ``tag`` and is
    resolved from the registry on arrival, so identity
    (``a.semiring is b.semiring``) survives the round trip.
    ``is_absorbing`` lets projection folds stop
    ``plus``-ing once an absorbing element is reached (e.g. probability
    1.0); the default never short-circuits.  ``lift`` maps one base fact
    to its annotation — the single point where database weights (see
    :meth:`repro.db.database.Database.set_weight`) enter evaluation.

    A semiring whose values are machine numbers may also declare its
    *vector form*, ``vector = (dtype, times, plus)``: a numpy dtype and
    the names of the two ufuncs that compute ``times`` and ``plus``
    elementwise with the same results as the methods.  Annotations of
    such a semiring can ride the weight column of a
    :class:`~repro.db.columnar.ColumnarRelation`; ``None`` (object
    carriers, or arithmetic whose result depends on fold order) keeps
    them on :class:`~repro.db.annotated.AnnotatedRelation`.
    """

    #: Short stable identifier; the wire/cache key for this semiring.
    tag: str = "abstract"
    zero: Any = None
    one: Any = None
    vector: tuple[str, str, str] | None = None
    #: ``times`` distributes over ``plus``, so a plan may fold a variable
    #: early; the engine runs one full join for a semiring without it.
    distributive: bool = True

    def plus(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def times(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def is_absorbing(self, value: Any) -> bool:
        """Whether ``plus(value, x) == value`` for every ``x`` (early
        exit for projection folds)."""
        return False

    def lift(self, db: "Database", predicate: str, row: Row) -> Any:
        """The annotation of one base fact (default: ``one``)."""
        return self.one

    def __reduce__(self):
        return get_semiring, (self.tag,)

    def __repr__(self) -> str:
        return f"<Semiring {self.tag}>"


class CountingSemiring(Semiring):
    """ℕ under (+, ×): bag semantics.  The annotation of an answer is
    its number of derivations (satisfying assignments of the dropped
    variables), which is what :meth:`repro.engine.Engine.count`
    reports."""

    tag = "count"
    zero = 0
    one = 1
    # Exact while every product and sum stays inside int64; the columnar
    # kernels guard that bound and hand larger values back to Python ints.
    vector = ("int64", "multiply", "add")

    def plus(self, a: int, b: int) -> int:
        return a + b

    def times(self, a: int, b: int) -> int:
        return a * b


class IntegerRing(CountingSemiring):
    """ℤ under (+, ×): the counting semiring completed with subtraction.

    This is the algebra the incremental layer's support counting runs
    on — a deletion is an insertion with weight ``minus(zero, one)``.
    Its elements are plain Python ints and ``plus`` is ``a + b``, so
    :class:`repro.incremental.counting.CountedRows` and ``DeltaJoin``
    fold signed weights with ``+`` inline, without a method call per
    row; a stored row's unit annotation makes ``times`` the identity.
    Support counting *is* the ℕ instance, extended with inverses so
    deltas can retract.
    """

    tag = "int"

    def minus(self, a: int, b: int) -> int:
        return a - b

    def negate(self, a: int) -> int:
        return -a


class MinCostSemiring(Semiring):
    """The tropical semiring (min, +) over costs, with witness tracking.

    Values are ``(cost, witness)`` pairs: ``cost`` is the summed weight
    of the facts along the cheapest derivation, ``witness`` the sorted
    tuple of :data:`FactId`\\ s that derivation used.  ``plus`` keeps
    the cheaper derivation (ties broken deterministically by the
    witness rendering), ``times`` sums costs and unions witnesses.  A
    fact used by two atoms of one derivation is charged once per use
    (cost is per atom occurrence) but listed once in the witness.

    Fact costs come from :meth:`Database.weight` (default 1.0), so an
    unweighted database ranks answers by derivation length.
    """

    tag = "mincost"
    zero = (math.inf, ())
    one = (0.0, ())

    def plus(self, a: tuple, b: tuple) -> tuple:
        if a[0] != b[0]:
            return a if a[0] < b[0] else b
        # Equal costs: pick a canonical witness so evaluation order
        # (join order, layout) cannot change the answer.
        return a if (len(a[1]), repr(a[1])) <= (len(b[1]), repr(b[1])) else b

    def times(self, a: tuple, b: tuple) -> tuple:
        cost = a[0] + b[0]
        if not b[1]:
            return (cost, a[1])
        if not a[1]:
            return (cost, b[1])
        merged = set(a[1])
        merged.update(b[1])
        return (cost, tuple(sorted(merged, key=repr)))

    def lift(self, db: "Database", predicate: str, row: Row) -> tuple:
        return (db.weight(predicate, row), ((predicate, row),))


class ProvenanceSemiring(Semiring):
    """Why-provenance: each answer is annotated with the set of its
    witness sets — every minimal-by-construction combination of base
    facts that derives it.

    Values are frozensets of frozensets of :data:`FactId`.  ``plus`` is
    union (alternative derivations), ``times`` the pairwise union
    product (joint use).  Replaying any one witness set as a database
    re-derives the answer, which the consistency suite checks.
    """

    tag = "provenance"
    zero: frozenset = frozenset()
    one: frozenset = frozenset({frozenset()})

    def plus(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def times(self, a: frozenset, b: frozenset) -> frozenset:
        if a == self.one:
            return b
        if b == self.one:
            return a
        return frozenset(x | y for x in a for y in b)

    def lift(self, db: "Database", predicate: str, row: Row) -> frozenset:
        return frozenset({frozenset({(predicate, row)})})


class ProbSemiring(Semiring):
    """Probabilities under the independence assumption.

    ``times`` multiplies (a derivation holds iff all its independent
    facts hold), ``plus`` is noisy-or ``a ⊕ b = a + b − ab`` (an answer
    holds if any derivation does, derivations treated as independent
    events).  This is the standard tuple-independent approximation:
    noisy-or does not distribute over ×, so answers whose derivations
    share facts are approximated, exactly as lineage-free probabilistic
    engines do.  Early folds would approximate them plan by plan
    (``x·(y⊕z) ≠ xy ⊕ xz``), so the engine folds every derivation once.
    1.0 absorbs, which lets projection folds stop early.
    No vector form: a segmented float fold would visit the derivations
    in another order and move the last ulp of the answers.

    Fact probabilities come from :meth:`Database.weight` (default 1.0:
    an unweighted fact is certain).
    """

    tag = "prob"
    zero = 0.0
    one = 1.0
    distributive = False

    def plus(self, a: float, b: float) -> float:
        return a + b - a * b

    def times(self, a: float, b: float) -> float:
        return a * b

    def is_absorbing(self, value: float) -> bool:
        return value >= 1.0

    def lift(self, db: "Database", predicate: str, row: Row) -> float:
        return db.weight(predicate, row)


#: The built-in instances, keyed by tag.  Tags are the wire format of a
#: semiring: the serve protocol's ``mode`` field, a pickled relation and
#: the plan cache's composite keys all transport tags and resolve them
#: here.
COUNTING = CountingSemiring()
INT_RING = IntegerRing()
MINCOST = MinCostSemiring()
PROVENANCE = ProvenanceSemiring()
PROB = ProbSemiring()

SEMIRINGS: dict[str, Semiring] = {
    s.tag: s for s in (COUNTING, INT_RING, MINCOST, PROVENANCE, PROB)
}


def get_semiring(tag: str) -> Semiring:
    """Resolve a semiring tag (raises ``ValueError`` on unknown tags)."""
    try:
        return SEMIRINGS[tag]
    except KeyError:
        raise ValueError(
            f"unknown semiring {tag!r}; expected one of "
            f"{sorted(SEMIRINGS)}"
        ) from None


def resolve_semiring(spec: "Semiring | str | None") -> Semiring | None:
    """Normalise a user-facing semiring argument.

    ``None`` (or the explicit ``"set"`` mode) means plain set
    semantics; a string resolves through the registry; an instance
    passes through.
    """
    if spec is None or spec == "set":
        return None
    if isinstance(spec, Semiring):
        return spec
    if isinstance(spec, str):
        return get_semiring(spec)
    raise TypeError(f"not a semiring or tag: {spec!r}")
