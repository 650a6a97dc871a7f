"""The Lemma 4.6 bag kernel, and the literal transformation it builds.

Lemma 4.6 turns a query ``Q`` with a width-k hypertree decomposition into
an *acyclic* query ``Q′`` over a derived database ``DB′`` together with a
join tree ``JT``:

* complete the decomposition (Lemma 4.4);
* for each node ``p``: join, for every ``A ∈ λ(p)``, the relation of ``A``
  projected onto ``var(A) ∩ χ(p)``; project the result onto ``χ(p)``.
  This is the fresh relation of a fresh atom over ``χ(p)``;
* the tree of fresh atoms mirrors ``T`` and is a join tree of ``Q′``
  (χ-connectedness becomes the join-tree connectedness condition).

Each node relation is a join of ≤ k database relations, so
``‖⟨Q′, DB′, JT⟩‖ = O((‖Q‖ + ‖HD‖) · r^k)`` — measured empirically by
experiment E08.  :func:`bag_relation` is the one node-relation kernel;
:class:`~repro.engine.Engine` plans call it per bag (with join orders,
covered-atom filters, a layout and a semiring) before running
Yannakakis — Boolean (Theorem 4.7 / Corollary 5.19) or output-polynomial
enumeration (Theorem 4.8 / Corollary 5.20).  :func:`lemma46_transform`
is the literal, unplanned ``⟨Q′, DB′, JT⟩``: the reference the engine's
bags are checked against, and what E08 measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Container, Sequence

from .._errors import BudgetExceeded
from ..core.atoms import Atom, Variable
from ..core.hypertree import HypertreeDecomposition
from ..core.jointree import JoinTree
from ..core.query import ConjunctiveQuery
from .annotated import AnnotatedRelation, bind_atom_annotated
from .binding import bind_atom
from .columnar import lift_columnar, to_columnar
from .database import Database
from .relation import Relation
from .semiring import Semiring
from .stats import EvalStats


@dataclass
class Lemma46Result:
    """The transformed triple ``⟨Q′, DB′, JT⟩`` plus size accounting."""

    qprime: ConjunctiveQuery
    jt: JoinTree
    relations: dict[Atom, Relation]
    stats: EvalStats = field(default_factory=EvalStats)

    def size(self) -> int:
        """``‖⟨Q′, DB′, JT⟩‖``: value occurrences in DB′ plus atom sizes of
        Q′ and JT (the units of the Lemma 4.6 bound)."""
        db_size = sum(len(r) * max(1, r.arity) for r in self.relations.values())
        query_size = sum(1 + a.arity for a in self.qprime.atoms)
        tree_size = 2 * len(self.jt.nodes)
        return db_size + query_size + tree_size


def check_deadline(deadline: float | None, phase: object) -> None:
    """Raise :class:`BudgetExceeded` once *deadline* (monotonic seconds)
    has passed; checked between operators, never inside one.  *phase*
    names where (formatted only when it raises)."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"engine budget exhausted during {phase}")


def bag_relation(
    atoms: Sequence[Atom],
    chi: frozenset[Variable],
    name: str,
    db: Database,
    stats: EvalStats,
    semiring: Semiring | None = None,
    carriers: Container[Atom] = (),
    columnar: bool = False,
    deadline: float | None = None,
) -> Relation:
    """The node relation of Lemma 4.6: ``π_χ(⋈ atoms)`` over *db*.

    *atoms* are the node's contributing λ atoms in join order; each is
    bound (a view of its base relation's snapshot where possible),
    pre-projected onto ``var(A) ∩ χ`` when it reaches outside χ, and
    joined into the running result, which is finally projected into
    sorted-χ order — a no-op sharing storage when the joined schema
    already is that, a reordering of column buffers for a columnar bag.
    ``stats`` counts one join per atom and one projection per
    pre-projection and per bag, as Lemma 4.6 states the pipeline,
    whether or not the step had any work to do.

    Under a *semiring* the atoms in *carriers* bind annotated (they
    satisfy ``var(A) ⊆ χ``, so they are never pre-projected), the rest
    bind plain and act as filters, and the result is always annotated.
    With *columnar* the result is a
    :class:`~repro.db.columnar.ColumnarRelation` — carrying a weight
    column under a semiring whose values can ride one, see
    :func:`~repro.db.columnar.lift_columnar` — and every part that can
    be a view is one: an atom over distinct variables starts from its
    snapshot's column buffers (a carrier from the weights built beside
    them), so the pre-projections, the joins and the final permutation
    all run on the buffers and nothing joined is ever encoded.  What
    cannot be a view — an atom with constants or repeated variables, a
    0-ary part, a semiring with no vector form — binds on the row
    carrier, and the operands settle a mixed pair between themselves.
    """
    chi_names = tuple(sorted(v.name for v in chi))
    rel: Relation | None = None
    for a in atoms:
        if a in carriers:
            part: Relation = bind_atom_annotated(a, db, semiring, columnar)
        else:
            part = bind_atom(a, db, columnar=columnar)
        if not a.variables <= chi:
            part = part.project(sorted(v.name for v in a.variables & chi))
            stats.projections += 1
        rel = part if rel is None else rel.join(part)
        stats.joins += 1
        stats.record(rel)
        check_deadline(deadline, f"joins of {name}")
    if rel is None:
        rel = Relation.trusted((), frozenset({()}), name)
    if columnar:
        # A no-op on a bag joined in the buffers; whatever a row part
        # left on the row carrier is encoded before the projection —
        # every part lies inside χ, so that is a permutation, which
        # columnar storage does by reordering buffers.
        rel = (
            to_columnar(rel)
            if semiring is None
            else lift_columnar(rel, semiring)
        )
    rel = stats.record(rel.project(chi_names, name=name))
    stats.projections += 1
    if semiring is not None:
        return AnnotatedRelation.lift(rel, semiring)  # no-op once lifted
    return rel


def lemma46_transform(
    query: ConjunctiveQuery,
    db: Database,
    hd: HypertreeDecomposition,
    stats: EvalStats | None = None,
) -> Lemma46Result:
    """Construct ``⟨Q′, DB′, JT⟩`` from ``⟨Q, DB, HD⟩`` (Lemma 4.6)."""
    stats = stats if stats is not None else EvalStats()
    complete = hd if hd.is_complete else hd.complete()

    fresh_atoms: dict[int, Atom] = {}
    relations: dict[Atom, Relation] = {}
    nodes = complete.nodes
    node_ids = {id(n): i for i, n in enumerate(nodes)}

    for i, p in enumerate(nodes):
        # Atoms with variables but none in χ(p) contribute no bindings
        # (the Lemma 4.6 case split).
        contributing = [
            a
            for a in sorted(p.lam, key=str)
            if (a.variables & p.chi) or not a.variables
        ]
        rel = bag_relation(contributing, p.chi, f"n{i}", db, stats)
        atom = Atom(f"n{i}", tuple(Variable(a) for a in rel.attributes))
        fresh_atoms[i] = atom
        relations[atom] = rel

    children_map: dict[Atom, tuple[Atom, ...]] = {}
    for i, p in enumerate(nodes):
        kids = tuple(fresh_atoms[node_ids[id(c)]] for c in p.children)
        if kids:
            children_map[fresh_atoms[i]] = kids
    jt = JoinTree(fresh_atoms[0], children_map)

    qprime = ConjunctiveQuery(
        tuple(fresh_atoms[i] for i in range(len(nodes))),
        query.head_terms,
        f"{query.name}'",
    )
    return Lemma46Result(qprime, jt, relations, stats)
