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
hands back, and :func:`run_program` is the one interpreter loop.

A plan's program (:mod:`repro.engine.plan`) is the whole request: a
:class:`Bag` operator per decomposition node — the Lemma 4.6 node
relation ``π_χ(⋈ parts)``, bound from the database a :class:`RunContext`
names — then the sweep over the bags.  The plan compiler builds it once,
runs it on every request, prices it and prints it.  It is the one
builder of Lemma 4.6's ``⟨Q′, DB′, JT⟩`` as well:
:func:`~repro.engine.plan.literal_plan` is a plan compiled without a
database, its covered filters dropped — bag atoms ``Q′``, bags ``DB′``
(:func:`bag_program`), join tree ``JT``.

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
bag, a semijoin or a join — is traced as one ``plan.bag`` /
``sweep.semijoin`` / ``sweep.join`` span naming that node and its row
count; a marginal is a projection inside its edge's ``sweep.join``
span.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, NamedTuple

from .._errors import BudgetExceeded
from ..core.atoms import Atom, Variable
from ..core.jointree import JoinTree
from ..obs import Tracer, current_tracer, get_registry
from .annotated import AnnotatedRelation, bind_atom_annotated
from .binding import bind_atom
from .columnar import ColumnarRelation, lift_columnar, to_columnar
from .database import Database
from .relation import Relation
from .semiring import Semiring
from .stats import EvalStats

#: A program's terminal: it hands back the root's relation (after its
#: :class:`Project`, the answer), whether the root is non-empty, or
#: every node's relation (after the passes, the reduced bags).
ANSWER, NONEMPTY, REDUCED = "answer", "nonempty", "reduced"


def check_deadline(deadline: float | None, phase: object) -> None:
    """Raise :class:`BudgetExceeded` once *deadline* (monotonic seconds)
    has passed; checked between operators, never inside one.  *phase*
    names where (formatted only when it raises)."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded(f"engine budget exhausted during {phase}")


class RunContext(NamedTuple):
    """What a run reads besides its relations: the database a
    :class:`Bag` binds its parts from, whether it lays them out
    columnar, the semiring it annotates under (``None``: set
    semantics), the deadline (monotonic seconds) and the tracer, which
    :func:`run_program` fills in."""

    db: Database | None = None
    columnar: bool = False
    semiring: Semiring | None = None
    deadline: float | None = None
    tracer: Tracer | None = None


class Part(NamedTuple):
    """One atom a :class:`Bag` joins, pre-projected onto ``keep``
    (sorted ``var(A) ∩ χ``; ``None``: the atom lies inside χ).  A
    *carrier* binds annotated under a semiring; a *covered* atom lies
    outside λ and joins as a filter (rendered ``⋉``)."""

    atom: Atom
    keep: tuple[str, ...] | None
    carrier: bool = False
    covered: bool = False
    est: float = 0.0

    @classmethod
    def of(
        cls,
        atom: Atom,
        chi: frozenset[Variable],
        carrier: bool = False,
        covered: bool = False,
        est: float = 0.0,
    ) -> "Part":
        """*atom* as a part of the bag over *chi*."""
        variables = atom.variables
        keep = None
        if not variables <= chi:
            keep = tuple(sorted(v.name for v in variables & chi))
        return cls(atom, keep, carrier, covered, est)

    def __str__(self) -> str:
        return f"{self.atom}[≈{int(self.est)}]"


def contributing(lam: Iterable[Atom], chi: frozenset[Variable]) -> list[Atom]:
    """The atoms of *lam* that are parts of the bag over *chi*, in
    order — the Lemma 4.6 case split: an atom contributes iff it has a
    variable in χ, or no variables (a ground atom keeps the bag or
    empties it).  One with variables, none in χ, binds nothing here."""
    return [a for a in lam if (a.variables & chi) or not a.variables]


class Bag(NamedTuple):
    """``node := π_χ(⋈ parts)``, the node relation of Lemma 4.6; ``chi``
    is the node's attributes, sorted.  ``est`` is its estimated rows,
    ``grown`` the χ variables a plan added to its decomposition's
    (rendered ``+D``)."""

    node: Atom
    chi: tuple[str, ...]
    parts: tuple[Part, ...]
    est: float = 0.0
    grown: tuple[str, ...] = ()

    def __str__(self) -> str:
        steps = "".join(
            (" ⋉ " if part.covered else " ⋈ " if i else "") + str(part)
            for i, part in enumerate(self.parts)
        )
        chi = ", ".join(f"+{v}" if v in self.grown else v for v in self.chi)
        return (
            f"{self.node.predicate}: π[{chi}]({steps or 'unit'}) "
            f"≈{int(self.est)} rows"
        )

    def run(self, rels: dict, stats: EvalStats, ctx: RunContext) -> None:
        """Bind each part from ``ctx.db`` (a view of its snapshot where
        possible: under ``ctx.columnar``, of its column buffers, so
        nothing joined is ever encoded), pre-project it and join it in,
        checking the deadline after each join; then project into
        sorted-χ order.  ``stats`` counts one join per part and one
        projection per pre-projection and per bag, as Lemma 4.6 states
        the pipeline.  Under a semiring the carriers bind annotated and
        the rest act as filters.  The ``plan.bag`` span says the layout
        taken and, for a single-part bag, whether its bind reused the
        atom's snapshot, patched its buffers from an earlier version's
        (``derived``) or (re)built them — read off that snapshot, never
        off a process-wide counter another request could move."""
        db, semiring, columnar = ctx.db, ctx.semiring, ctx.columnar
        name = self.node.predicate
        filters = [part.covered for part in self.parts].count(True)
        single = self.parts[0].atom.predicate if len(self.parts) == 1 else None
        if single is not None:
            before = db.built_snapshot(single)
            derived = before.derived if before is not None else 0
            patched = before is not None and before.patched
        with ctx.tracer.span(
            "plan.bag", node=name, est=int(self.est), filters=filters,
            grown=len(self.grown),
        ) as sp:
            rel: Relation | None = None
            for part in self.parts:
                if semiring is not None and part.carrier:
                    bound = bind_atom_annotated(
                        part.atom, db, semiring, columnar
                    )
                else:
                    bound = bind_atom(part.atom, db, columnar=columnar)
                if part.keep is not None:
                    bound = bound.project(part.keep)
                    stats.projections += 1
                rel = bound if rel is None else rel.join(bound)
                stats.joins += 1
                stats.record(rel)
                check_deadline(ctx.deadline, f"joins of {name}")
            if rel is None:
                rel = Relation.trusted((), frozenset({()}), name)
            if columnar:
                # A no-op on a bag joined in the buffers; whatever a row
                # part left on the row carrier is encoded before the
                # projection — every part lies inside χ, so that is a
                # permutation, which columnar storage does by reordering
                # buffers.
                rel = (
                    to_columnar(rel)
                    if semiring is None
                    else lift_columnar(rel, semiring)
                )
            rel = stats.record(rel.project(self.chi, name=name))
            stats.projections += 1
            if semiring is not None:  # a no-op once lifted
                rel = AnnotatedRelation.lift(rel, semiring)
            rels[self.node] = rel
            layout = "columnar" if isinstance(rel, ColumnarRelation) else "row"
            registry = get_registry()
            registry.counter(f"plan.layout_{layout}").inc()
            registry.counter("plan.bag_filters").inc(filters)
            sp.set(rows=len(rel), layout=layout)
            if single is not None:
                after = db.built_snapshot(single)
                sp.set(snapshot=(
                    "reused" if after is before is not None
                    and after.derived == derived
                    else "derived" if after is not None and after.patched
                    and not patched
                    else "built"
                ))


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

    def run(self, rels: dict, stats: EvalStats, ctx: RunContext) -> None:
        with ctx.tracer.span(
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

    def run(self, rels: dict, stats: EvalStats, ctx: RunContext) -> None:
        with ctx.tracer.span(
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

    def run(self, rels: dict, stats: EvalStats, ctx: RunContext) -> None:
        rels[self.root] = stats.record(
            rels[self.root].project(list(self.head), name="ans")
        )
        stats.projections += 1


class Program(NamedTuple):
    """A compiled program: operators in run order — a plan's
    :class:`Bag` operators, then the sweep — a terminal, and the join
    tree's nodes (root first)."""

    ops: tuple[Bag | Semijoin | Join | Project, ...]
    terminal: str
    nodes: tuple[Atom, ...]

    @property
    def bags(self) -> tuple[Bag, ...]:
        return tuple(op for op in self.ops if type(op) is Bag)

    def render(self) -> list[str]:
        """One line per operator — the root's bag marked — then the
        terminal."""
        root = self.nodes[0]
        return [
            *(
                f"{op} <- root"
                if type(op) is Bag and op.node == root
                else str(op)
                for op in self.ops
            ),
            {
                ANSWER: "→ the answer",
                NONEMPTY: f"→ {root.predicate} non-empty",
                REDUCED: "→ the reduced bags",
            }[self.terminal],
        ]


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
    context: RunContext = RunContext(),
):
    """Run *program* over *relations* (left as they are; what its
    :class:`Bag` operators write comes from ``context.db``) and hand
    back what its terminal names: a relation, a bool, or a dict of
    relations.  A ``NONEMPTY`` program with an empty bag is false before
    any sweep operator runs.  Before every operator, a passed
    ``context.deadline`` (monotonic seconds) raises
    :class:`~repro._errors.BudgetExceeded` naming it."""
    stats = stats if stats is not None else EvalStats()
    rels = dict(relations)
    ctx = context._replace(tracer=current_tracer())
    deadline = ctx.deadline
    check_empty = program.terminal == NONEMPTY
    for op in program.ops:
        if check_empty and type(op) is not Bag:
            if not all(map(rels.get, program.nodes)):
                return False
            check_empty = False
        check_deadline(deadline, op)
        op.run(rels, stats, ctx)
    if program.terminal == REDUCED:
        return rels
    root = rels[program.nodes[0]]
    return bool(root) if program.terminal == NONEMPTY else root


def bag_program(bags: Iterable[Bag]) -> Program:
    """The program that only materialises *bags*: run, it hands back
    each bag's relation by node."""
    bags = tuple(bags)
    return Program(bags, REDUCED, tuple(bag.node for bag in bags))


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
