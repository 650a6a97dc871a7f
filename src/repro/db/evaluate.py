"""Decomposition-guided query evaluation (Lemma 4.6, Theorems 4.7/4.8).

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
experiment E08.  Evaluation then runs Yannakakis on ``JT``: Boolean
(Theorem 4.7 / Corollary 5.19) or output-polynomial enumeration
(Theorem 4.8 / Corollary 5.20).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Container, Literal, Sequence

from .._errors import BudgetExceeded, EvaluationError
from ..core.acyclicity import join_tree as build_join_tree
from ..core.atoms import Atom, Variable
from ..core.detkdecomp import hypertree_width
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.jointree import JoinTree
from ..core.query import ConjunctiveQuery
from .annotated import (
    AnnotatedRelation,
    AnnotationAssignmentError,
    assign_annotated_atoms,
    bind_atom_annotated,
    naive_annotated_eval,
)
from .binding import BoundQuery, bind_atom
from .columnar import lift_columnar, to_columnar
from .database import Database
from .naive import backtracking_eval, naive_boolean_eval, naive_join_eval
from .relation import Relation
from .semiring import Semiring
from .stats import EvalStats
from .yannakakis import boolean_eval, enumerate_answers

Method = Literal["decomposition", "yannakakis", "naive", "backtracking"]


@dataclass
class Lemma46Result:
    """The transformed triple ``⟨Q′, DB′, JT⟩`` plus size accounting."""

    qprime: ConjunctiveQuery
    jt: JoinTree
    relations: dict[Atom, Relation]
    node_of_atom: dict[Atom, HTNode]
    stats: EvalStats = field(default_factory=EvalStats)

    def size(self) -> int:
        """``‖⟨Q′, DB′, JT⟩‖``: value occurrences in DB′ plus atom sizes of
        Q′ and JT (the units of the Lemma 4.6 bound)."""
        db_size = sum(len(r) * max(1, r.arity) for r in self.relations.values())
        query_size = sum(1 + a.arity for a in self.qprime.atoms)
        tree_size = 2 * len(self.jt.nodes)
        return db_size + query_size + tree_size

    def database(self) -> Database:
        """DB′ as a standalone :class:`Database` (one relation per node)."""
        db = Database()
        for atom, rel in self.relations.items():
            # Declared first so an empty relation keeps its existence
            # and arity.
            db.declare(atom.predicate, rel.arity)
            for row in rel.rows:
                db.add_fact(atom.predicate, *row)
        return db


def check_deadline(deadline: float | None, phase: str) -> None:
    """Raise :class:`BudgetExceeded` once *deadline* (monotonic seconds)
    has passed; checked between operators, never inside one."""
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
    semiring: Semiring | None = None,
) -> Lemma46Result:
    """Construct ``⟨Q′, DB′, JT⟩`` from ``⟨Q, DB, HD⟩`` (Lemma 4.6).

    With a *semiring*, node relations carry annotations: each distinct
    query atom's annotation enters at exactly one node (its *carrier*,
    picked by :func:`~repro.db.annotated.assign_annotated_atoms`; other
    mentions join unannotated as pure filters).  Every part joined at a
    node has attributes ⊆ χ(p) — carriers because assignment requires
    ``var(A) ⊆ χ(p)``, the rest by pre-projection — so the bag-level
    projection never ``plus``-folds; all variable elimination happens in
    the enumeration pass, once per variable by χ-connectedness.  Raises
    :class:`AnnotationAssignmentError` when no assignment exists (the
    caller falls back to naive annotated evaluation)."""
    stats = stats if stats is not None else EvalStats()
    complete = hd if hd.is_complete else hd.complete()

    fresh_atoms: dict[int, Atom] = {}
    relations: dict[Atom, Relation] = {}
    node_of_atom: dict[Atom, HTNode] = {}
    nodes = complete.nodes
    node_ids = {id(n): i for i, n in enumerate(nodes)}

    assignment: dict[Atom, int] | None = None
    if semiring is not None:
        assignment = assign_annotated_atoms(
            [(tuple(p.lam), p.chi) for p in nodes], query.atoms
        )
        if assignment is None:
            raise AnnotationAssignmentError(
                f"decomposition of {query.name} admits no once-per-atom "
                "annotation assignment"
            )

    for i, p in enumerate(nodes):
        # Atoms with variables but none in χ(p) contribute no bindings
        # (the Lemma 4.6 case split).
        contributing = [
            a
            for a in sorted(p.lam, key=str)
            if (a.variables & p.chi) or not a.variables
        ]
        carriers = (
            [a for a in contributing if assignment.get(a) == i]
            if assignment is not None
            else ()
        )
        rel = bag_relation(
            contributing, p.chi, f"n{i}", db, stats, semiring, carriers
        )
        atom = Atom(f"n{i}", tuple(Variable(a) for a in rel.attributes))
        fresh_atoms[i] = atom
        relations[atom] = rel
        node_of_atom[atom] = p

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
    return Lemma46Result(qprime, jt, relations, node_of_atom, stats)


def evaluate_boolean(
    query: ConjunctiveQuery,
    db: Database,
    method: Method = "decomposition",
    hd: HypertreeDecomposition | None = None,
    stats: EvalStats | None = None,
) -> bool:
    """Evaluate a Boolean conjunctive query.

    Methods
    -------
    ``"decomposition"``
        The paper's pipeline: hypertree decomposition (computed with
        :func:`~repro.core.detkdecomp.hypertree_width` when *hd* is not
        supplied) → Lemma 4.6 transformation → Boolean Yannakakis.
    ``"yannakakis"``
        Direct Yannakakis; requires the query to be acyclic.
    ``"naive"`` / ``"backtracking"``
        The baselines of :mod:`repro.db.naive`.
    """
    stats = stats if stats is not None else EvalStats()
    query = query.as_boolean()
    if not query.atoms:
        return True
    if method == "naive":
        return naive_boolean_eval(query, db, stats)
    if method == "backtracking":
        return backtracking_eval(query, db, stats)
    if method == "yannakakis":
        jt = build_join_tree(query)
        if jt is None:
            raise EvaluationError(
                "method 'yannakakis' requires an acyclic query; "
                f"{query.name} is cyclic"
            )
        bound = BoundQuery.bind(query, db)
        return boolean_eval(jt, bound.relations, stats)
    if method == "decomposition":
        if hd is None:
            _, hd = hypertree_width(query)
        transformed = lemma46_transform(query, db, hd, stats)
        return boolean_eval(transformed.jt, transformed.relations, stats)
    raise ValueError(f"unknown evaluation method {method!r}")


def evaluate(
    query: ConjunctiveQuery,
    db: Database,
    method: Method = "decomposition",
    hd: HypertreeDecomposition | None = None,
    stats: EvalStats | None = None,
    semiring: Semiring | None = None,
) -> Relation:
    """Evaluate a (possibly non-Boolean) conjunctive query to its answer
    relation (Theorem 4.8 for the decomposition method).

    With a *semiring* the result is an
    :class:`~repro.db.annotated.AnnotatedRelation` whose rows carry
    provenance-semiring values (derivation counts, minimal costs,
    witness sets, probabilities — per the chosen algebra).  Set
    semantics (``semiring=None``) runs the untouched plain pipeline.
    """
    stats = stats if stats is not None else EvalStats()
    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    if not query.atoms:
        if semiring is not None:
            rows = frozenset({()} if not head else ())
            return AnnotatedRelation.make(
                head, rows, "ans", semiring,
                dict.fromkeys(rows, semiring.one),
            )
        return Relation(head, frozenset({()} if not head else ()), "ans")
    if method == "naive":
        if semiring is not None:
            return naive_annotated_eval(query, db, semiring, stats)
        return naive_join_eval(query, db, stats)
    if method == "backtracking":
        if semiring is not None:
            # Backtracking enumerates rows, not derivations; annotated
            # semantics routes to the always-correct naive join.
            return naive_annotated_eval(query, db, semiring, stats)
        from .naive import backtracking_answers

        return backtracking_answers(query, db, stats)
    if method == "yannakakis":
        jt = build_join_tree(query)
        if jt is None:
            raise EvaluationError(
                "method 'yannakakis' requires an acyclic query; "
                f"{query.name} is cyclic"
            )
        if semiring is not None:
            relations: dict[Atom, Relation] = {
                a: bind_atom_annotated(a, db, semiring)
                for a in dict.fromkeys(query.atoms)
            }
            return enumerate_answers(jt, relations, head, stats)
        bound = BoundQuery.bind(query, db)
        return enumerate_answers(jt, bound.relations, head, stats)
    if method == "decomposition":
        if hd is None:
            _, hd = hypertree_width(query.as_boolean())
        try:
            transformed = lemma46_transform(
                query, db, hd, stats, semiring=semiring
            )
        except AnnotationAssignmentError:
            return naive_annotated_eval(query, db, semiring, stats)
        return enumerate_answers(
            transformed.jt, transformed.relations, head, stats
        )
    raise ValueError(f"unknown evaluation method {method!r}")
