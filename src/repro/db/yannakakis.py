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

Each builds, then runs, a :class:`Program`: :func:`sweep_program`
compiles the passes into a flat tuple of operators — :class:`Semijoin`,
:class:`Join`, :class:`Project` — and a terminal naming what the run
hands back, and :func:`run_program` is the one interpreter loop.  The
plan compiler (:mod:`repro.engine.plan`) builds a plan's program once,
runs it on every request, prices it and prints it.

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

The builder alone decides which operators an answer needs.  A node is
*self-contained* when every output attribute of its subtree is one of
its own attributes — and then, by connectedness, so is every child.
Then:

* the top-down pass descends only into children that are not
  self-contained;
* under set semantics a self-contained node's partial result is its
  bottom-up-reduced relation — no join runs inside its subtree — so a
  self-contained root answers with ``π_output`` of the reduced root
  (one bottom-up pass and one projection);
* when the root is self-contained and the operands carry values
  (*weighted*: an annotated relation, or a weight column — the operand's
  ``_rank``), no semijoin runs at all — the join-and-⊕-fold pass
  filters by itself.

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

Operators ask of an operand nothing but the operand half of the carrier
protocol (:mod:`repro.db.relation`), so a node's relation may be a row
:class:`~repro.db.relation.Relation`, an
:class:`~repro.db.annotated.AnnotatedRelation` or a
:class:`~repro.db.columnar.ColumnarRelation`, in any mix.  Each writes
the relation of the node it names, is counted in ``stats``, and — a
semijoin or a join — is traced as one ``sweep.semijoin`` /
``sweep.join`` span naming that node, the pass, and its row count; a
marginal is a projection inside its edge's ``sweep.join`` span.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from ..core.atoms import Atom
from ..core.jointree import JoinTree
from ..obs import current_tracer
from .evaluate import check_deadline
from .relation import Relation
from .stats import EvalStats

#: A program's terminal: it hands back the root's relation (after its
#: :class:`Project`, the answer), whether the root is non-empty, or
#: every node's reduced relation.
ANSWER, NONEMPTY, REDUCED = "answer", "nonempty", "reduced"


class Semijoin(NamedTuple):
    """``receiver ⋉= partner``, in the ``bottom-up`` or ``top-down`` pass."""

    receiver: Atom
    partner: Atom
    pass_: str

    def __str__(self) -> str:
        return (
            f"semijoin {self.receiver.predicate} by "
            f"{self.partner.predicate} ({self.pass_})"
        )

    def run(self, rels: dict, stats: EvalStats, tracer) -> None:
        with tracer.span(
            "sweep.semijoin", node=self.receiver.predicate, pass_=self.pass_
        ) as sp:
            out = rels[self.receiver] = stats.record(
                rels[self.receiver].semijoin(rels[self.partner])
            )
            sp.set(rows=len(out))
        stats.semijoins += 1


class Join(NamedTuple):
    """``node ⋈= child``'s partial result, first projected onto its
    *marginal* — what the node holds or the output needs — unless that
    drops nothing (``None``)."""

    node: Atom
    child: Atom
    marginal: frozenset[str] | None

    def __str__(self) -> str:
        child = self.child.predicate
        if self.marginal is not None:
            child = f"π[{', '.join(sorted(self.marginal))}]({child})"
        return f"join {self.node.predicate} ⋈ {child}"

    def run(self, rels: dict, stats: EvalStats, tracer) -> None:
        with tracer.span(
            "sweep.join", node=self.node.predicate, pass_="enumerate"
        ) as sp:
            operand = rels[self.child]
            if self.marginal is not None:
                operand = stats.record(operand.project(
                    [a for a in operand.attributes if a in self.marginal]
                ))
                stats.projections += 1
            rel = rels[self.node] = stats.record(rels[self.node].join(operand))
            stats.joins += 1
            sp.set(rows=len(rel))


class Project(NamedTuple):
    """``root := π_head(root)``: the answer."""

    root: Atom
    head: tuple[str, ...]

    def __str__(self) -> str:
        return f"project π[{', '.join(self.head)}]({self.root.predicate})"

    def run(self, rels: dict, stats: EvalStats, tracer) -> None:
        rels[self.root] = stats.record(
            rels[self.root].project(list(self.head), name="ans")
        )
        stats.projections += 1


class Program(NamedTuple):
    """A compiled sweep: operators in run order, a terminal, and the join
    tree's nodes (root first)."""

    ops: tuple[Semijoin | Join | Project, ...]
    terminal: str
    nodes: tuple[Atom, ...]

    def render(self) -> list[str]:
        """One line per operator, then the terminal."""
        return [*map(str, self.ops), {
            ANSWER: "→ the answer",
            NONEMPTY: f"→ {self.nodes[0].predicate} non-empty",
            REDUCED: "→ the reduced bags",
        }[self.terminal]]


def sweep_program(
    tree: JoinTree,
    terminal: str,
    attributes: Mapping[Atom, Iterable[str]] | None = None,
    output: tuple[str, ...] = (),
    weighted: bool = False,
) -> Program:
    """The operators *terminal* needs on *tree*: the bottom-up semijoins
    for ``NONEMPTY``, both passes for ``REDUCED``; for ``ANSWER`` the
    passes, joins and projection *output* needs (*attributes*: each
    node's attribute names; *weighted*: the operands carry values).
    Output attributes that occur in no node raise ``ValueError``."""
    children = tree.children
    order = tuple(tree.post_order())
    ops: list = [
        Semijoin(node, child, "bottom-up")
        for node in order
        for child in children(node)
    ]
    if terminal == NONEMPTY:
        return Program(tuple(ops), terminal, tree.nodes)
    closed: frozenset[Atom] = frozenset()
    if terminal == ANSWER:
        own = {node: frozenset(attributes[node]) for node in order}
        out = frozenset(output)
        missing = out.difference(*own.values())
        if missing:
            raise ValueError(
                f"output attributes {sorted(missing)} do not occur in the "
                "join tree"
            )
        below: dict[Atom, frozenset[str]] = {}  # output attributes per subtree
        for node in order:
            below[node] = (out & own[node]).union(
                *map(below.get, children(node))
            )
        closed = frozenset(node for node in order if below[node] <= own[node])
    if weighted and tree.root in closed:
        ops = []
    else:
        ops += (
            Semijoin(child, node, "top-down")
            for node in tree.nodes  # preorder: parents before children
            for child in children(node)
            if child not in closed
        )
    if terminal == ANSWER:
        held = dict(own)  # the attributes of each partial result
        for node in order:
            if node in closed and not weighted:
                continue
            for child in children(node):
                marginal = held[child] & (own[node] | out)
                ops.append(Join(
                    node, child, marginal if marginal != held[child] else None
                ))
                held[node] |= marginal
        ops.append(Project(tree.root, tuple(output)))
    return Program(tuple(ops), terminal, tree.nodes)


def run_program(
    program: Program,
    relations: Mapping[Atom, Relation],
    stats: EvalStats | None = None,
    deadline: float | None = None,
):
    """Run *program* over *relations* (left as they are) and hand back
    what its terminal names: a relation, a bool, or a dict of reduced
    relations.  A ``NONEMPTY`` program over an empty relation is false
    before any operator runs.  Before every operator, a passed *deadline*
    (monotonic seconds) raises :class:`~repro._errors.BudgetExceeded`
    naming it."""
    stats = stats if stats is not None else EvalStats()
    rels = dict(relations)
    if program.terminal == NONEMPTY and not all(map(rels.get, program.nodes)):
        return False
    tracer = current_tracer()
    for op in program.ops:
        check_deadline(deadline, op)
        op.run(rels, stats, tracer)
    if program.terminal == REDUCED:
        return rels
    root = rels[program.nodes[0]]
    return bool(root) if program.terminal == NONEMPTY else root


def boolean_eval(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
) -> bool:
    """Boolean Yannakakis: true iff the root survives the bottom-up pass."""
    return run_program(sweep_program(tree, NONEMPTY), relations, stats)


def full_reduce(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    stats: EvalStats | None = None,
) -> dict[Atom, Relation]:
    """The full reducer: bottom-up then top-down semijoin sweeps.

    Afterwards each relation contains exactly the tuples that extend to a
    full answer of the (acyclic) query.
    """
    return run_program(sweep_program(tree, REDUCED), relations, stats)


def enumerate_answers(
    tree: JoinTree,
    relations: dict[Atom, Relation],
    output: tuple[str, ...],
    stats: EvalStats | None = None,
) -> Relation:
    """Compute the projection of the join onto *output* attribute names.

    The semijoin passes and the join pass, as far as the output needs
    them (see the module docstring), each child's partial result first
    projected onto its marginal — a dedup, or under a semiring a
    ``plus``-fold, which needs ``times`` to distribute over ``plus``.
    Each intermediate is then at most ``|node relation| × max(1,
    |answers|)``, and one whose child brings no output attribute the
    node lacks is at most ``|node relation|``.  Output attributes must
    occur in the tree (standard for CQ heads); anything else raises
    ``ValueError`` before any operator runs.
    """
    attributes = {node: relations[node].attributes for node in tree.nodes}
    weighted = any(relations[node]._rank for node in tree.nodes)
    program = sweep_program(tree, ANSWER, attributes, output, weighted)
    return run_program(program, relations, stats)
