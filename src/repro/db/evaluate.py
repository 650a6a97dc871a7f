"""The literal Lemma 4.6 transformation.

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
experiment E08.  A node relation is one
:class:`~repro.db.yannakakis.Bag` operator: :class:`~repro.engine.Engine`
plans open their programs with one per node (with join orders,
covered-atom filters, grown χ labels, a layout and a semiring) before
the Yannakakis sweep — Boolean (Theorem 4.7 / Corollary 5.19) or
output-polynomial enumeration (Theorem 4.8 / Corollary 5.20).
:func:`lemma46_transform` runs the literal, unplanned ones — λ in
rendering order, no covered atoms, the decomposition's own χ — through
the same interpreter: the ``⟨Q′, DB′, JT⟩`` the engine's bags are
checked against, and what E08 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.atoms import Atom, Variable
from ..core.hypertree import HypertreeDecomposition
from ..core.jointree import JoinTree
from ..core.query import ConjunctiveQuery
from .database import Database
from .relation import Relation
from .stats import EvalStats
from .yannakakis import (
    Bag,
    Part,
    RunContext,
    bag_program,
    contributing,
    run_program,
)


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


def lemma46_transform(
    query: ConjunctiveQuery,
    db: Database,
    hd: HypertreeDecomposition,
    stats: EvalStats | None = None,
) -> Lemma46Result:
    """Construct ``⟨Q′, DB′, JT⟩`` from ``⟨Q, DB, HD⟩`` (Lemma 4.6)."""
    stats = stats if stats is not None else EvalStats()
    complete = hd if hd.is_complete else hd.complete()

    nodes = complete.nodes
    node_ids = {id(n): i for i, n in enumerate(nodes)}
    bags = []
    for i, p in enumerate(nodes):
        chi = tuple(sorted(v.name for v in p.chi))
        bags.append(Bag(
            Atom(f"n{i}", tuple(map(Variable, chi))), chi,
            tuple(
                Part.of(a, p.chi)
                for a in contributing(sorted(p.lam, key=str), p.chi)
            ),
        ))
    fresh_atoms = [bag.node for bag in bags]
    relations = run_program(bag_program(bags), {}, stats, RunContext(db))

    children_map: dict[Atom, tuple[Atom, ...]] = {}
    for i, p in enumerate(nodes):
        kids = tuple(fresh_atoms[node_ids[id(c)]] for c in p.children)
        if kids:
            children_map[fresh_atoms[i]] = kids
    jt = JoinTree(fresh_atoms[0], children_map)

    qprime = ConjunctiveQuery(
        tuple(fresh_atoms), query.head_terms, f"{query.name}'"
    )
    return Lemma46Result(qprime, jt, relations, stats)
