"""Yannakakis' algorithm over join trees (paper §1.1, §2.1; [44]).

Given a join tree of an acyclic query with each tree atom bound to a
relation:

* ``boolean_eval`` — one bottom-up semijoin pass; the query is true iff
  the root relation stays non-empty.  Intermediate relations never grow
  (semijoins only filter), which is the paper's explanation of why acyclic
  BCQ is tractable.
* ``full_reduce`` — the bottom-up pass followed by a top-down pass yields
  the *full reducer*: every remaining tuple participates in at least one
  answer.
* ``enumerate_answers`` — the semijoin passes, then a bottom-up join
  pass in which a child hands its parent its *marginal*: its partial
  result projected onto the parent's variables plus the output
  variables, before the join.  It computes the answer relation in time
  polynomial in input + output (Theorem: Yannakakis [44]; used by
  Theorem 4.8 / Corollary 5.20 through the Lemma 4.6 transformation).

The marginal is sound by connectedness: a variable of the child's
partial result that the parent does not hold occurs in no other subtree
of the parent, so once no output needs it nothing later joins on it.
Under set semantics the projection is a dedup; under a semiring it is a
``plus``-fold, and folding before the ``times`` of the join is
distributivity — the sum-product (variable elimination) reading of the
join tree.  A Boolean ``count`` is then ``Σ`` over the root of the root
row's weight times, per child, the child's folded weight on the shared
variables: no join ever produces more rows than the parent's bag, and a
join whose partner is all shared variables is a lookup.

``enumerate_answers`` runs only the operators its output needs.  A node
is *self-contained* (:func:`self_contained`) when every output attribute
of its subtree is one of its own attributes — and then, by
connectedness, so is every child.  Then:

* the top-down pass descends only into children that are not
  self-contained;
* under set semantics a self-contained node's partial result is its
  bottom-up-reduced relation — no join runs inside its subtree — so a
  self-contained root answers with ``π_output`` of the reduced root
  (one bottom-up pass and one projection);
* when the root is self-contained and an operand carries values (an
  annotated relation, or a weight column: the operand's ``_rank``), no
  semijoin runs at all — the join-and-⊕-fold pass filters by itself.

This is sound because the joins are exact and the semijoins only bound
sizes.  After the bottom-up pass a node holds the projection of its
subtree's join onto its own attributes; a self-contained subtree has
nothing else to hand its parent (connectedness puts every attribute it
shares with the rest of the tree in its root), so that projection *is*
its partial result, at most as large as its relation, and the parent's
join against it is exact.  The nodes that are not self-contained form a
subtree around the root and are fully reduced, so their partials keep
the ``|node relation| × |answers|`` bound.  A root whose attributes hold
every output attribute makes every node self-contained, which is why the
plan compiler roots the tree at such a bag when one exists.

This is the only place the passes are written.  They ask of an
operand nothing but the operand half of the carrier protocol
(:mod:`repro.db.relation`), so a node's relation may be a row
:class:`~repro.db.relation.Relation`, an
:class:`~repro.db.annotated.AnnotatedRelation` or a
:class:`~repro.db.columnar.ColumnarRelation`, in any mix, and the
passes run directly on the bag relations they are given.  Every
operator is counted in ``stats`` and traced as one ``sweep.semijoin`` /
``sweep.join`` span naming the node whose relation it writes, the pass,
and its row count; a marginal is a projection inside its edge's
``sweep.join`` span.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.atoms import Atom
from ..core.jointree import JoinTree
from ..obs import current_tracer
from .relation import Relation
from .stats import EvalStats


def _semijoin(
    reduced: dict[Atom, Relation],
    node: Atom,
    partner: Atom,
    pass_: str,
    stats: EvalStats,
    tracer,
) -> None:
    """``reduced[node] ⋉= reduced[partner]``, counted and traced."""
    with tracer.span(
        "sweep.semijoin", node=node.predicate, pass_=pass_
    ) as sp:
        out = reduced[node] = stats.record(
            reduced[node].semijoin(reduced[partner])
        )
        sp.set(rows=len(out))
    stats.semijoins += 1


def _reduced_bottom_up(
    tree: JoinTree, relations: dict[Atom, Relation], stats: EvalStats
) -> dict[Atom, Relation]:
    """One bottom-up semijoin sweep (child filters parent)."""
    tracer = current_tracer()
    reduced = dict(relations)
    for node in tree.post_order():
        for child in tree.children(node):
            _semijoin(reduced, node, child, "bottom-up", stats, tracer)
    return reduced


def _fully_reduced(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats,
    skip: frozenset[Atom] = frozenset(),
) -> dict[Atom, Relation]:
    """Bottom-up then top-down sweeps; operands stay as they are.  The
    top-down sweep does not descend into the nodes in *skip*."""
    tracer = current_tracer()
    reduced = _reduced_bottom_up(tree, relations, stats)
    for node in tree.nodes:  # preorder: parents before children
        for child in tree.children(node):
            if child not in skip:
                _semijoin(reduced, child, node, "top-down", stats, tracer)
    return reduced


def self_contained(
    tree: JoinTree,
    attributes: Mapping[Atom, Iterable[str]],
    output: Iterable[str],
) -> frozenset[Atom]:
    """The nodes of *tree* whose subtree hands its parent nothing but
    the node's own attributes: every *output* attribute of the subtree
    is one of the node's (*attributes* maps each node to its own).  On a
    join tree connectedness then makes every child of such a node
    self-contained too.  The one rule both :func:`enumerate_answers` and
    the plan compiler's cost model apply (see the module docstring)."""
    out = frozenset(output)
    below: dict[Atom, frozenset[str]] = {}  # output attributes per subtree
    for node in tree.post_order():
        below[node] = out.intersection(attributes[node]).union(
            *(below[child] for child in tree.children(node))
        )
    return frozenset(
        node for node in tree.nodes if below[node] <= set(attributes[node])
    )


def boolean_eval(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
) -> bool:
    """Boolean Yannakakis: true iff the root survives the bottom-up pass."""
    stats = stats if stats is not None else EvalStats()
    if any(not relations[node] for node in tree.nodes):
        return False
    reduced = _reduced_bottom_up(tree, relations, stats)
    return bool(reduced[tree.root])


def full_reduce(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
) -> dict[Atom, Relation]:
    """The full reducer: bottom-up then top-down semijoin sweeps.

    Afterwards each relation contains exactly the tuples that extend to a
    full answer of the (acyclic) query.
    """
    stats = stats if stats is not None else EvalStats()
    return _fully_reduced(tree, relations, stats)


def enumerate_answers(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    output: tuple[str, ...],
    stats: EvalStats | None = None,
) -> Relation:
    """Compute the projection of the join onto *output* attribute names.

    Implements the output-polynomial phase of Yannakakis' algorithm:
    join bottom-up over relations the semijoin passes have reduced — as
    far as the output needs them (see the module docstring for which
    operators a self-contained subtree skips) — where each child's
    partial result is first projected onto the node's attributes plus
    the output attributes, its marginal (a dedup, or under a semiring a
    ``plus``-fold: the sum-product form, which needs ``times`` to
    distribute over ``plus``).  Each intermediate is then at most
    ``|node relation| × max(1, |answers|)`` — polynomial in input plus
    output — and one whose child brings no output attribute the node
    lacks is at most ``|node relation|``.

    Output attributes must occur in the tree (standard for CQ heads, whose
    variables occur in the body); anything else raises ``ValueError``
    before any operator runs.
    """
    stats = stats if stats is not None else EvalStats()
    attributes = {node: relations[node].attributes for node in tree.nodes}
    missing = set(output).difference(*attributes.values())
    if missing:
        raise ValueError(
            f"output attributes {sorted(missing)} do not occur in the join tree"
        )
    closed = self_contained(tree, attributes, output)
    weighted = any(relations[node]._rank for node in tree.nodes)
    if weighted and tree.root in closed:
        reduced = dict(relations)
    else:
        reduced = _fully_reduced(tree, relations, stats, closed)

    tracer = current_tracer()
    partial: dict[Atom, Relation] = {}
    for node in tree.post_order():
        rel = reduced[node]
        if node in closed and not weighted:
            partial[node] = rel
            continue
        keep = set(rel.attributes).union(output)
        for child in tree.children(node):
            with tracer.span(
                "sweep.join", node=node.predicate, pass_="enumerate"
            ) as sp:
                operand = partial[child]
                marginal = [a for a in operand.attributes if a in keep]
                if len(marginal) < operand.arity:
                    operand = stats.record(operand.project(marginal))
                    stats.projections += 1
                rel = stats.record(rel.join(operand))
                stats.joins += 1
                sp.set(rows=len(rel))
        partial[node] = rel
    answer = partial[tree.root].project(list(output), name="ans")
    stats.projections += 1
    return stats.record(answer)
