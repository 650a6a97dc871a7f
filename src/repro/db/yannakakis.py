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
* ``enumerate_answers`` — after full reduction, a bottom-up join pass that
  projects each partial result onto the node's variables plus the output
  variables seen so far computes the answer relation in time polynomial in
  input + output (Theorem: Yannakakis [44]; used by Theorem 4.8 /
  Corollary 5.20 through the Lemma 4.6 transformation).

This is the only place the three passes are written.  They ask of an
operand nothing but the operand half of the carrier protocol
(:mod:`repro.db.relation`), so a node's relation may be a row, columnar
or annotated :class:`~repro.db.relation.Relation` or a hash-partitioned
:class:`~repro.db.sharded.ShardedRelation` running on an execution
backend (:func:`~repro.db.sharded.shard_relations` cuts them), in any
mix.  Every operator is counted in ``stats`` and traced as one
``sweep.semijoin`` / ``sweep.join`` span naming the node whose relation
it writes, the pass, whether the result is sharded, and its row count.
"""

from __future__ import annotations

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
        sp.set(rows=len(out), sharded=out.n_shards > 1)
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
    tree: JoinTree, relations: dict[Atom, Relation], stats: EvalStats
) -> dict[Atom, Relation]:
    """Bottom-up then top-down sweeps; operands stay as they are."""
    tracer = current_tracer()
    reduced = _reduced_bottom_up(tree, relations, stats)
    for node in tree.nodes:  # preorder: parents before children
        for child in tree.children(node):
            _semijoin(reduced, child, node, "top-down", stats, tracer)
    return reduced


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
    full answer of the (acyclic) query.  Sharded operands come back
    coalesced.
    """
    stats = stats if stats is not None else EvalStats()
    reduced = _fully_reduced(tree, relations, stats)
    return {node: rel.to_relation() for node, rel in reduced.items()}


def enumerate_answers(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    output: tuple[str, ...],
    stats: EvalStats | None = None,
) -> Relation:
    """Compute the projection of the join onto *output* attribute names.

    Implements the output-polynomial phase of Yannakakis' algorithm: after
    full reduction, join bottom-up but project every partial result onto
    the current node's attributes plus the output attributes contributed
    by its subtree.  Each intermediate is then at most
    ``|node relation| × |answers|`` — polynomial in input plus output.
    A sharded partial result stays partitioned for as long as its shard
    key survives the projection; only the answer is coalesced.

    Output attributes must occur in the tree (standard for CQ heads, whose
    variables occur in the body); anything else raises ``ValueError``
    before any operator runs.
    """
    stats = stats if stats is not None else EvalStats()
    tree_attrs: set[str] = set()
    for node in tree.nodes:
        tree_attrs.update(relations[node].attributes)
    missing = set(output) - tree_attrs
    if missing:
        raise ValueError(
            f"output attributes {sorted(missing)} do not occur in the join tree"
        )
    reduced = _fully_reduced(tree, relations, stats)

    out_set = set(output)
    tracer = current_tracer()
    partial: dict[Atom, Relation] = {}
    subtree_attrs: dict[Atom, set[str]] = {}
    for node in tree.post_order():
        rel = reduced[node]
        attrs_below: set[str] = set(rel.attributes)
        for child in tree.children(node):
            attrs_below.update(subtree_attrs[child])
        keep = set(rel.attributes) | (attrs_below & out_set)
        for child in tree.children(node):
            with tracer.span(
                "sweep.join", node=node.predicate, pass_="enumerate"
            ) as sp:
                rel = rel.join(partial[child])
                stats.joins += 1
                rel = stats.record(
                    rel.project([a for a in rel.attributes if a in keep])
                )
                stats.projections += 1
                sp.set(rows=len(rel), sharded=rel.n_shards > 1)
        partial[node] = rel
        subtree_attrs[node] = attrs_below
    answer = partial[tree.root].project(list(output), name="ans")
    stats.projections += 1
    return stats.record(answer.to_relation())
