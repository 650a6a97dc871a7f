"""Physical plans: a decomposition compiled against a concrete database.

A cached (or freshly computed) hypertree decomposition fixes only the
*structure* of evaluation.  This module adds the database-dependent
choices — cheap, polynomial-time, and a function of the estimates alone
(:attr:`QueryPlan.reads` logs what the compile read through
:class:`~repro.db.stats.CardinalityEstimator`) — on top of the Lemma 4.6
pipeline:

* **per-node join order** — each node's bag relation joins its λ atoms
  smallest-estimate first, preferring atoms sharing variables with the
  part already joined (System-R-style greedy, driven by
  :class:`repro.db.stats.CardinalityEstimator`; sizes and shared
  variables are counted over ``var(A) ∩ χ(p)``, what the pipeline
  actually joins).  A node that joins more than one part is also given
  the query's *covered* atoms — every ``A ∉ λ(p)`` with
  ``∅ ≠ var(A) ⊆ χ(p)`` — so λ atoms that share no variable inside χ
  meet through a connecting atom instead of in a cross product.  The
  filtered bag is a subset of the literal Lemma 4.6 bag and a superset
  of ``π_χ`` of the full join, so the join of the bags is unchanged;
* **per-node χ** — among decompositions of one width, χ(p) is free
  anywhere between what connectedness forces and ``var(λ(p))``; the
  cached decomposition sits wherever its search left it.  Before the
  pipelines above are fixed, a node that joins more than one λ atom may
  *grow* its χ by variables of ``var(λ(p))`` that a tree neighbour's χ
  already holds.  That is sound: coverage (condition 1 of Definition
  4.1) only gains from a larger χ, the added variable's nodes stay
  connected because ``p`` is adjacent to one of them (2), it lies in
  ``var(λ(p))`` (3), and every ancestor already had it in ``χ(T_q)``
  through that neighbour (4); λ is untouched, so the result is a
  decomposition of the same width and Lemma 4.6 applies verbatim —
  :func:`~repro.heuristics.validate.check_decomposition` re-certifies
  every relabelled plan anyway.  It is *cost-chosen*, per node and per
  request, because it is not monotone: a larger χ covers more atoms
  (the 5-cycle's ``{c5b(B,C), c5d(D,E)}`` node holds ``{B,C,E}``, gains
  D, covers ``c5c(C,D)`` and joins a path instead of multiplying:
  11 690 rows become 880), but it also joins wider parts — adding P0 to
  ``book_query(2)``'s second page doubled the request.  A candidate
  (each addable variable alone, and all of them) is priced by the *sum
  of its pipeline's estimated intermediates* and kept only if strictly
  cheaper; the paper's normal form (Definition 5.1, condition 3:
  ``var(λ(s)) ∩ χ(r) ⊆ χ(s)``) is the always-grow end of the same
  range.  The plan carries the relabelled decomposition, so bags, join
  tree, annotation carriers and views all read one χ; the cached
  decomposition is never touched;
* **root choice** — the join tree over the materialised bags is re-rooted
  at a bag whose χ holds every head variable when one exists (every bag
  does, for a Boolean head), and among those — or, when none does, among
  all bags — at the one with the largest estimated cardinality, so the
  bottom-up sweep filters the biggest relation with every child.  A
  root holding the head makes every node *self-contained* (see
  :mod:`repro.db.yannakakis`): the sweep program then holds the
  bottom-up semijoins and one projection under set semantics, and only
  the join pass on weighted operands — no intermediate has a head
  variable to carry up the tree.  (Join trees, unlike hypertree
  decompositions, may be re-rooted freely: the connectedness condition
  is symmetric.)
* **one layout per plan** — ``layout="columnar"`` materialises every
  bag as a :class:`~repro.db.columnar.ColumnarRelation` (contiguous
  buffers, vectorised semijoin/join kernels); ``"auto"`` resolves to
  it or to ``"row"``, once for the whole plan, by *predicted
  milliseconds*: every operator of the plan's set-semantics program
  (:meth:`QueryPlan.program`, the very program execution runs) is
  priced from the estimates under each layout's fitted fixed + per-row cost
  (:data:`~repro.db.columnar.OPERATOR_COSTS`, :func:`predict_ms`), and
  the cheaper layout wins.  A bag that joins atoms is priced by its
  intermediates, not by its largest input, so a five-row bag behind two
  300-row relations costs what its joins cost; and the plan decides,
  not the node: carriers never mix inside one sweep, where every seam
  between them would box a key set.  Only the layout can follow from
  the prediction — join order, χ and root are chosen on estimated rows
  as above.  Only ``auto`` prices a plan: a forced layout has nothing
  to choose.  An annotated (semiring) request compiles as a row plan
  unless its values can ride a weight column
  (:func:`~repro.db.columnar.rides_buffers`); one that can follows the
  policy, but the model's pairs are set-semantics operators, so
  ``auto`` lays it out by its largest pipeline input against
  :data:`~repro.db.columnar.WEIGHTED_MIN_ROWS`.

Each node is one :class:`~repro.db.yannakakis.Bag` operator in
:attr:`QueryPlan.bags` — its parts in join order with their estimates,
covered filters and grown χ variables marked — which the program, the
prices, ``explain`` and the digest all read.

Execution runs the plan's program in one thread: the bags, in the
plan's layout, then the Yannakakis sweep over them.  It is the
set-semantics program, or, for a request with a semiring, the annotated
one, which also fixes where each atom's annotation enters; each is built
at most once per plan, and shared only by a
:meth:`QueryPlan.restamped` copy.  The deadline is checked before
every operator and after each join inside a bag, so a budget interrupts
a long plan with :class:`repro._errors.BudgetExceeded` naming the step.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import Mapping, Sequence

from ..core.atoms import Atom, Variable
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.jointree import JoinTree, join_tree_from_edges
from ..core.query import ConjunctiveQuery
from ..db.annotated import assign_annotated_atoms, naive_annotated_eval
from ..db.columnar import (
    LAYOUTS,
    OPERATOR_COSTS,
    WEIGHTED_MIN_ROWS,
    kernels,
    rides_buffers,
)
from ..db.database import Database
from ..db.relation import Relation
from ..db.semiring import Semiring
from ..db.stats import CardinalityEstimator, EvalStats
from ..db.yannakakis import (
    ANSWER,
    NONEMPTY,
    Bag,
    Join,
    Part,
    Program,
    RunContext,
    Semijoin,
    contributing,
    run_program,
    sweep_program,
)
from ..heuristics.validate import assert_valid
from ..obs import Tracer, current_tracer, get_registry


def check_backend(backend: str) -> None:
    """Reject every execution backend but the one that exists.

    ``backend="sequential"`` is still accepted by :func:`compile_plan`
    and :class:`~repro.engine.Engine` only because the end-to-end
    benchmark driver under ``benchmarks/e2e`` passes it; it selects
    nothing.  The thread and process backends were removed, and naming
    one is a typed error rather than a silent fallback.  For the same
    benchmark, :meth:`~repro.engine.cache.PlanCache.lookup` and
    :meth:`~repro.engine.cache.PlanCache.store` still take
    ``semiring_tag=``, which selects nothing either: one cache entry
    serves every semiring."""
    if backend != "sequential":
        raise ValueError(
            f"backend {backend!r}: the parallel execution backends were "
            "removed; evaluation is always sequential"
        )


@dataclass(frozen=True)
class QueryPlan:
    """A fully compiled physical plan for one (query, database) pair."""

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    #: One bag operator per decomposition node, in node order — the
    #: node's whole description: its parts in join order with their
    #: estimates, its χ (grown variables marked) and its estimated rows.
    bags: tuple[Bag, ...]
    #: Per bag, every χ label priced for its node, as ``(variables
    #: added to the literal χ, Σ estimated intermediates of its
    #: pipeline)`` — the literal χ first, as ``()``; the one whose
    #: variables are the bag's ``grown`` was chosen.  Empty for a node
    #: that never entered the search.
    candidates: tuple[tuple[tuple[tuple[str, ...], float], ...], ...]
    join_tree: JoinTree
    output: tuple[str, ...]
    width: int
    provenance: str = "exact"
    cache_hit: bool = field(default=False)
    #: The layout policy the plan was compiled under, and what
    #: resolves ``auto``: the plan's operators priced under each layout
    #: (:func:`predict_ms`; ``None`` where nothing chooses from them —
    #: a forced layout, or a *weighted* plan).
    layout: str = field(default="row")
    predicted_row_ms: float | None = field(default=None)
    predicted_columnar_ms: float | None = field(default=None)
    #: Compiled for an annotated request whose values ride a weight
    #: column: ``auto`` compares :attr:`largest_input` with
    #: :data:`~repro.db.columnar.WEIGHTED_MIN_ROWS` instead.
    weighted: bool = field(default=False)
    #: What the compile read, with the values (:mod:`repro.db.stats`).
    reads: tuple[tuple[tuple, int | None], ...] = field(default=(), repr=False)
    #: Handed back by the engine's plan memo instead of compiled.
    reused: bool = field(default=False)
    #: The programs built so far, by ``annotated`` (see
    #: :meth:`program`).  Not an ``__init__`` field, so a
    #: :func:`~dataclasses.replace` copy starts empty; only
    #: :meth:`restamped` copies share it.
    _programs: dict[bool, Program] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def restamped(self, **changes) -> "QueryPlan":
        """A copy with *changes* to fields no program reads — a cache
        hit, reuse, the layout predictions — that shares this plan's
        programs instead of building them again."""
        copy = replace(self, **changes)
        object.__setattr__(copy, "_programs", self._programs)
        return copy

    def program(self, annotated: bool = False) -> Program:
        """What this plan runs: every node's bag operator, in plan
        order, then the Yannakakis sweep
        (:func:`~repro.db.yannakakis.sweep_program`) over them — under
        set semantics, what ``auto`` priced, or on *annotated* bags,
        which enumerate even a Boolean head (the 0-ary answer's
        annotation is the total).  The annotated program assigns each
        query atom's annotation to one bag
        (:func:`~repro.db.annotated.assign_annotated_atoms`).  Built at
        most once per variant."""
        if annotated not in self._programs:
            bags = self.bags
            if annotated:
                carries = assign_annotated_atoms(bags, self.query.atoms).get
                bags = [
                    bag._replace(parts=tuple(
                        part._replace(carrier=carries(part.atom) == i)
                        for part in bag.parts
                    ))
                    for i, bag in enumerate(bags)
                ]
            sweep = sweep_program(
                self.join_tree,
                ANSWER if self.output or annotated else NONEMPTY,
                {bag.node: bag.chi for bag in self.bags},
                self.output, annotated,
            )
            self._programs[annotated] = sweep._replace(ops=(*bags, *sweep.ops))
        return self._programs[annotated]

    @property
    def resolved_layout(self) -> str:
        """The layout of every bag of the plan: the policy itself, or
        what ``auto`` comes to — one answer for the whole plan."""
        if self.layout != "auto":
            return self.layout
        if self.weighted:
            cheaper = self.largest_input >= WEIGHTED_MIN_ROWS
        else:
            cheaper = self.predicted_columnar_ms < self.predicted_row_ms
        return "columnar" if cheaper else "row"

    @property
    def largest_input(self) -> float:
        """The largest estimate among the relations the bag pipelines
        touch: a part's, or a bag's (a bag may have no parts)."""
        return max(
            (
                est
                for bag in self.bags
                for est in (bag.est, *(part.est for part in bag.parts))
            ),
            default=0.0,
        )

    @property
    def predicted_ms(self) -> float | None:
        """The predicted milliseconds of the layout the plan runs."""
        if self.resolved_layout == "columnar":
            return self.predicted_columnar_ms
        return self.predicted_row_ms

    def compile_attrs(self) -> dict[str, int | float]:
        """What a ``plan.compile`` span says about the plan, compiled or
        replayed."""
        attrs = {
            "nodes": len(self.bags),
            "columnar": (
                len(self.bags)
                if self.resolved_layout == "columnar"
                else 0
            ),
            "width": self.width,
        }
        if self.predicted_row_ms is not None:
            attrs["predicted_row_ms"] = round(self.predicted_row_ms, 4)
            attrs["predicted_columnar_ms"] = round(
                self.predicted_columnar_ms, 4
            )
        return attrs

    def digest(self) -> str:
        """A short stable hash of the plan's *structure* — provenance,
        width, layout, per-node pipelines, join tree.  Two requests
        with the same digest executed the same physical plan, which is
        how the flight recorder's slow-query log groups outliers.
        Computed once per plan object."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        payload = "\n".join(
            [
                str(self.query),
                self.provenance,
                str(self.width),
                self.resolved_layout,
                ",".join(self.output),
                *map(str, self.bags),
                self.join_tree.render(),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def render(self, semiring: Semiring | None = None) -> str:
        """The ``explain`` rendering: provenance, the χ labels priced,
        the rooted join tree the Yannakakis passes will run over, and
        the program a request under *semiring* (``None``: set semantics)
        runs, one operator a line — the bags first."""
        layout_tag = f", layout {self.layout}" if self.layout != "row" else ""
        if self.layout == "auto" and self.weighted:
            # What decided it, so a surprising layout is never a puzzle.
            columnar = self.resolved_layout == "columnar"
            layout_tag += (
                f" → {self.resolved_layout} (weight column, largest "
                f"pipeline input ≈ {int(self.largest_input)} rows "
                f"{'≥' if columnar else '<'} {WEIGHTED_MIN_ROWS})"
            )
        elif self.layout == "auto":
            layout_tag += (
                f" → {self.resolved_layout} (predicted row "
                f"{self.predicted_row_ms:.2f} ms, columnar "
                f"{self.predicted_columnar_ms:.2f} ms)"
            )
        lines = [
            f"plan for {self.query.name}: width {self.width} "
            f"[{self.provenance}{', cached' if self.cache_hit else ''}"
            + layout_tag
            + "]",
            f"output: ({', '.join(self.output)})" if self.output else "output: boolean",
        ]
        if self.reused:
            lines.insert(1, "plan reused")
        considered = [
            (bag, priced)
            for bag, priced in zip(self.bags, self.candidates)
            if priced
        ]
        if considered:
            lines.append(
                "χ per node (estimated pipeline cost, Σ intermediate rows):"
            )

        def label(added: tuple[str, ...]) -> str:
            return ", ".join(f"+{v}" for v in added) or "literal χ"

        for bag, priced in considered:
            rejected = ", ".join(
                f"{label(added)} ≈{int(cost)}"
                for added, cost in priced
                if added != bag.grown
            )
            lines.append(
                f"  {bag.node.predicate}: "
                f"{'grew' if bag.grown else 'kept'} {label(bag.grown)} "
                f"≈{int(dict(priced)[bag.grown])}; rejected {rejected}"
            )
        lines.append("join tree (semijoin + enumeration passes):")
        lines.append(self.join_tree.render())
        annotated = semiring is not None
        if annotated and not semiring.distributive:
            lines.append(
                "program (annotated): none — annotated naive evaluation, "
                "one full join (⊕ does not distribute)"
            )
        else:
            lines.append(
                f"program ({'annotated' if annotated else 'set'}: bags "
                "with cardinality-ascending joins, then the sweep):"
            )
            lines.extend(f"  {op}" for op in self.program(annotated).render())
        return "\n".join(lines)

    def render_analyzed(
        self,
        tracer: Tracer,
        elapsed: float,
        answer_rows: int,
        semiring: Semiring | None = None,
    ) -> str:
        """The ``EXPLAIN ANALYZE`` rendering: the static plan (with the
        program of a request under *semiring*) annotated with what one
        traced execution actually did.

        The measured ``plan.execute`` time is printed beside the time
        model's prediction for the layout the plan ran (the model's
        error, per request), when ``auto`` priced it.  Per node:
        estimated vs actual bag
        cardinality (exposing the misestimates the cost-based choices
        silently act on), materialisation wall time — for a single-atom
        node, whether it reused the base relation's snapshot, derived
        its column buffers from an earlier version's, or had to
        rebuild part of it — and the node's share of the sweep
        (semijoin/join operator time attributed by relation name).
        Only the analysed request's spans count — those on the thread
        of the last ``plan.execute`` of this query, inside its interval
        — however many requests *tracer* recorded before it.
        """
        spans = tracer.spans()
        executed = None
        for span in spans:
            if (
                span.name == "plan.execute"
                and span.attrs.get("query") == self.query.name
            ):
                executed = span
        bag_spans: dict[object, list] = {}
        sweep: dict[object, tuple[float, int]] = {}
        for span in spans if executed is not None else ():
            if not (
                span.tid == executed.tid
                and executed.start <= span.start <= span.end <= executed.end
            ):
                continue
            node = span.attrs.get("node")
            if span.name == "plan.bag" and node is not None:
                bag_spans.setdefault(node, []).append(span)
            elif span.name in ("sweep.semijoin", "sweep.join"):
                seconds, count = sweep.get(node, (0.0, 0))
                sweep[node] = (seconds + span.duration, count + 1)

        execute = (
            f"plan execute {executed.duration * 1e3:.3f}ms"
            if executed is not None
            else "plan execute (no trace recorded)"
        )
        if self.predicted_ms is not None:
            execute += (
                f", predicted {self.predicted_ms:.3f}ms "
                f"({self.resolved_layout})"
            )
        lines = [
            self.render(semiring),
            f"analyze: executed in {elapsed * 1e3:.3f}ms, "
            f"{answer_rows} answer row(s)",
            execute,
            "per-node actuals (estimated vs actual rows, wall time):",
        ]
        for bag in self.bags:
            node = bag.node.predicate
            spans_here = bag_spans.get(node, [])
            actual = spans_here[-1].attrs.get("rows") if spans_here else None
            bag_ms = sum(s.duration for s in spans_here) * 1e3
            sweep_s, sweep_n = sweep.get(node, (0.0, 0))
            if actual is None:
                lines.append(f"  {node}: (no trace recorded)")
                continue
            if actual:
                factor = bag.est / actual
                misestimate = f"est/actual {factor:.2f}x"
            else:
                misestimate = f"est {int(bag.est)}, actual empty"
            snapshot = spans_here[-1].attrs.get("snapshot")
            lines.append(
                f"  {node}: ≈{int(bag.est)} est -> {actual} actual "
                f"rows ({misestimate}); bag {bag_ms:.3f}ms"
                + (f" (snapshot {snapshot})" if snapshot else "")
                + (
                    f", sweep {sweep_s * 1e3:.3f}ms over {sweep_n} op(s)"
                    if sweep_n
                    else ""
                )
            )
        return "\n".join(lines)


def _bag_pipeline(
    lam: list[Atom],
    covered: list[Atom],
    chi: frozenset[Variable],
    estimator: CardinalityEstimator,
) -> tuple[tuple[Part, ...], float, float]:
    """One bag pipeline: its parts in greedy join order, each with its
    estimated size (the *covered* ones marked), the estimated size of
    the bag, and the pipeline's estimated cost: the sum of its
    intermediates, the running join after every step — what
    :meth:`~repro.db.yannakakis.Bag.run` records as tuples produced,
    and what a χ label is chosen by (the final size is the wrong
    objective: a bag estimated at no rows at all can sit behind a
    four-digit intermediate).

    Connectivity and sizes are taken over ``var(A) ∩ χ``: the rest is
    projected away before the join and connects nothing.  Start from
    the smallest λ atom, then repeatedly take, in this order of
    preference: a *covered* atom whose variables are all joined (a pure
    filter), the λ atom sharing most variables with what is joined, a
    covered atom that shares some and introduces others (a bridge
    between λ atoms that would otherwise meet in a cross product), an
    unconnected λ atom.  Ties: smaller estimate, then rendering.  A
    bridge is always followed by a λ atom it connected, so no
    intermediate outgrows the product of the λ atoms."""
    atoms = [*lam, *covered]
    variables = [a.variables for a in atoms]
    kept = [v & chi for v in variables]
    size = [
        estimator.atom_rows(a) if k == v else estimator.projected_rows(a, k)
        for a, v, k in zip(atoms, variables, kept)
    ]
    if len(atoms) == 1:  # nothing to order: every node of an acyclic plan
        return (Part.of(atoms[0], chi, est=size[0]),), size[0], size[0]
    label = [str(a) for a in atoms]
    domain = estimator.domain_size
    seen: frozenset[Variable] = frozenset()

    def preference(i: int) -> tuple[int, int, float, str]:
        shared = len(kept[i] & seen)
        if i >= len(lam):
            tier = 0 if shared == len(kept[i]) else 2 if shared else 4
        else:
            tier = 1 if shared else 3
        return tier, -shared, size[i], label[i]

    remaining = list(range(len(atoms)))
    order: list[int] = []
    bag_rows = 1.0
    cost = 0.0
    while remaining:
        i = min(remaining, key=preference)
        remaining.remove(i)
        order.append(i)
        bag_rows = estimator.join_rows(bag_rows, seen, size[i], kept[i], domain)
        cost += bag_rows
        seen |= kept[i]
    parts = tuple(
        Part.of(atoms[i], chi, False, i >= len(lam), size[i]) for i in order
    )
    return parts, bag_rows, cost


def _node_pipeline(
    lam: frozenset[Atom],
    chi: frozenset[Variable],
    query_atoms: list[tuple[Atom, frozenset[Variable]]],
    estimator: CardinalityEstimator,
) -> tuple[tuple[Part, ...], float, float]:
    """The pipeline (see :func:`_bag_pipeline`) of a node labelled
    ``(χ, λ)``: its contributing λ atoms and, when it joins more than
    one of them, the query atoms χ covers."""
    atoms = contributing(lam, chi)
    # The covered atoms: A ∉ λ(p) with ∅ ≠ var(A) ⊆ χ(p).  A
    # single-part node stays a view of its base relation; only a
    # pipeline that joins anyway is given them.
    covered = [
        a
        for a, variables in query_atoms
        if variables and variables <= chi and a not in lam
    ] if len(atoms) > 1 else []
    return _bag_pipeline(atoms, covered, chi, estimator)


#: One operator call the plan will run: its entry in an
#: :data:`~repro.db.columnar.OPERATOR_COSTS` table and the estimated
#: rows it touches.
_Work = tuple[str, float]


def _keyed(kind: str, key: int) -> str:
    """The cost-table entry of a key-driven operator: a key of two or
    more attributes is a kernel of its own (a tuple per row on the row
    carrier, the generic path of the columnar one)."""
    return kind + "2" if key > 1 else kind


def _plan_work(
    program: Program, estimator: CardinalityEstimator
) -> list[_Work]:
    """What running *program* (a plan's set-semantics program) will
    do, operator by operator, from the estimates its operators carry.

    A bag's first part is a view of its snapshot, the same in either
    layout; every later part is one ``bag`` call over the rows its join
    reads and writes, as :func:`_bag_pipeline` estimated them, and a
    part reaching outside χ is pre-projected.  Each semijoin reads its
    two sides and shrinks its receiver; each join reads the node's
    reduced bag (or its running result) and the child's partial —
    projected first onto the op's marginal, when it has one — and writes
    their join; the projection makes the answer.  Sizes follow the
    estimator's rule (each shared variable divides a product by the
    active domain); variables are compared by name, which hashes in C."""
    work: list[_Work] = []
    domain = estimator.domain_size
    node_of: dict[int, int] = {}
    names: list[frozenset[str]] = []
    # Per node: its bag's estimate, its rows after the semijoins so far,
    # and the parts it joins, as (predicate, variables).
    full: list[float] = []
    rows: list[float] = []
    parts: list[set[tuple[str, frozenset[str]]]] = []
    # Per node a join wrote, its partial: (rows, variables held).  A
    # node no join writes hands on its reduced bag, whose rows are its
    # bag's — a semijoin drops exactly the rows that join nothing.
    partial: dict[int, tuple[float, frozenset[str]]] = {}
    for op in program.ops:
        kind = type(op)
        if kind is Bag:
            node_of[id(op.node)] = len(names)
            names.append(frozenset(op.chi))
            full.append(op.est)
            rows.append(op.est)
            parts.append(set())
            running, seen = 1.0, frozenset()
            for i, part in enumerate(op.parts):
                own = frozenset([v.name for v in part.atom.variables])
                parts[-1].add((part.atom.predicate, own))
                kept = own
                if part.keep is not None:
                    kept = frozenset(part.keep)
                    work.append(("project", estimator.atom_rows(part.atom)))
                key = len(kept & seen)
                joined = running * part.est / domain**key
                if i:  # the first part is a view, the same in either layout
                    work.append(
                        (_keyed("bag", key), running + part.est + joined)
                    )
                running, seen = joined, seen | kept
        elif kind is Semijoin:
            # A receiver row survives when some partner row shares its
            # key, under independence with probability 1 - exp(-matches).
            # A key the atoms both pipelines join bind whole is not
            # independent — both sides hold the same joined tuples on
            # it — and keeps every row.
            node, partner = node_of[id(op.receiver)], node_of[id(op.partner)]
            shared = names[node] & names[partner]
            bound = frozenset().union(
                *(own for _, own in parts[node] & parts[partner])
            )
            work.append((
                _keyed("semijoin", len(shared)), rows[node] + rows[partner]
            ))
            if shared and not shared <= bound:
                rows[node] *= -math.expm1(
                    -rows[partner] / domain ** len(shared)
                )
        elif kind is Join:
            # A projection onto the node's own χ leaves no more rows than
            # its bag; a marginal draws, under independence, from the
            # domain**width values that remain.
            node, child = node_of[id(op.node)], node_of[id(op.child)]
            if node in partial:  # its running result
                est, held = partial[node]
                reading = est
            else:  # its bag: joins multiply the unreduced estimate
                est, held, reading = full[node], names[node], rows[node]
            child_est, marginal = partial.get(
                child, (full[child], names[child])
            )
            if op.marginal is not None:
                work.append(("project", child_est))
                marginal = op.marginal
                values = domain ** len(marginal)
                child_est = -values * math.expm1(-child_est / values)
            key = len(held & marginal)
            out = est * child_est / domain**key
            work.append((_keyed("join", key), reading + child_est + out))
            held = held | marginal
            if held == names[node]:
                out = min(out, full[node])
            partial[node] = out, held
        else:  # the projection onto the head
            root = node_of[id(op.root)]
            work.append(("project", partial.get(root, (full[root],))[0]))
    return work


def predict_ms(
    work: Sequence[_Work], costs: Mapping[str, tuple[float, float]]
) -> float:
    """Milliseconds the operators in *work* take under one layout's
    fitted ``(fixed µs, µs per row)`` pairs — one table of
    :data:`~repro.db.columnar.OPERATOR_COSTS`."""
    micros = 0.0
    for kind, rows in work:
        fixed, per_row = costs[kind]
        micros += fixed + per_row * rows
    return micros / 1e3


def _grow_chi(
    nodes: list[HTNode],
    tree_edges: list[tuple[int, int]],
    chis: list[frozenset[Variable]],
    pipelines: list[tuple[tuple[Part, ...], float, float]],
    query_atoms: list[tuple[Atom, frozenset[Variable]]],
    estimator: CardinalityEstimator,
) -> dict[int, dict[frozenset[Variable], float]]:
    """Choose each multi-part node's χ by estimated pipeline cost.

    A node may add any variable of ``var(λ(p))`` that a tree neighbour's
    χ already holds (see the module docstring for why the result is
    still a decomposition of the same width).  Its candidates are every
    single such variable and all of them together; the cheapest replaces
    the current label only if it is strictly cheaper.  A variable a node
    added is new to its neighbours, so they — and nobody else — are
    looked at again.  *tree_edges* are the tree's (parent, child) pairs
    as indices into *nodes*; *pipelines* are each node's
    :func:`_node_pipeline`, whose last field is its cost.  Updates *chis*
    and *pipelines* in place; returns, per node that priced anything, variables added to the
    literal χ → estimated cost, the literal label first."""
    neighbours: list[list[int]] = [[] for _ in nodes]
    for parent, child in tree_edges:
        neighbours[parent].append(child)
        neighbours[child].append(parent)
    priced: dict[int, dict[frozenset[Variable], float]] = {}
    queue = deque(
        i for i, (parts, _, _) in enumerate(pipelines) if len(parts) > 1
    )
    multi_part = frozenset(queue)
    while queue:
        i = queue.popleft()
        p, chi = nodes[i], chis[i]
        held = frozenset().union(*(chis[j] for j in neighbours[i]))
        addable = sorted((p.lambda_variables - chi) & held)
        if not addable:
            continue
        costs = priced.setdefault(i, {frozenset(): pipelines[i][-1]})
        options = [frozenset({v}) for v in addable]
        if len(addable) > 1:
            options.append(frozenset(addable))
        for extra in options:
            added = (chi | extra) - p.chi
            if added in costs:  # priced on an earlier visit, and rejected
                continue
            candidate = _node_pipeline(
                p.lam, chi | extra, query_atoms, estimator
            )
            costs[added] = cost = candidate[-1]
            if cost < pipelines[i][-1]:
                chis[i], pipelines[i] = chi | extra, candidate
        if chis[i] is not chi:
            queue.extend(
                j
                for j in (i, *neighbours[i])
                if j in multi_part and j not in queue
            )
    return priced


def compile_plan(
    query: ConjunctiveQuery,
    db: Database | None,
    hd: HypertreeDecomposition,
    provenance: str = "exact",
    cache_hit: bool = False,
    backend: str = "sequential",
    workers: int = 1,
    shard_threshold: int | None = None,
    layout: str = "row",
    semiring: Semiring | None = None,
) -> QueryPlan:
    """Compile *hd* into a physical plan against *db*.

    The decomposition is completed (Lemma 4.4) if necessary, each
    multi-atom node's χ is chosen and each node's bag pipeline ordered
    by the database's cardinality estimates, and the mirrored join tree
    is re-rooted at the largest estimated bag among those holding the
    head's variables (among all bags when none does).  The plan's
    ``decomposition`` is the completed *hd* under the chosen χ labels;
    *hd* itself is left as it is.
    With ``db=None`` (an ``explain`` without facts) all estimates are 1
    and the plan falls back to deterministic syntactic order.  Such a
    plan is Lemma 4.6's ``⟨Q′, DB′, JT⟩`` once its covered filters are
    dropped (:func:`literal_plan`): χ never grows, so its decomposition
    is the completed *hd*; each bag's other parts are
    :func:`~repro.db.yannakakis.contributing` ``(λ, χ)``, so the bag is
    the node relation ``π_χ(⋈ λ)``; and its join tree is the completed
    decomposition's tree over the bag atoms, rooted as above.

    *layout* is the storage policy for materialised bags:
    ``"row"`` (frozenset-of-tuples, the default), ``"columnar"``, or
    ``"auto"`` — whichever of the two the plan's operators are predicted
    to run faster on (:func:`predict_ms`, under the pairs of
    :data:`~repro.db.columnar.OPERATOR_COSTS` for the kernels that
    loaded); always the whole plan.  Only ``auto`` makes (and carries)
    the two predictions.

    *semiring* is the annotated request the plan is for (``None``: set
    semantics).  One whose values only the row carrier can hold compiles
    (and renders) as a row plan, whatever *layout* says, rather than
    falling back bag by bag; one whose values ride a weight column
    (:func:`~repro.db.columnar.rides_buffers`) is a *weighted* plan,
    which ``auto`` does not price but lays out by its largest pipeline
    input (:data:`~repro.db.columnar.WEIGHTED_MIN_ROWS`).

    *backend*, *workers* and *shard_threshold* select nothing: they
    remain only for the end-to-end benchmark driver under
    ``benchmarks/e2e``, which passes ``backend="sequential"``, and any
    other backend raises ``ValueError`` (see :func:`check_backend`).

    Every call is one compile: the registry counter ``plan.compiled``
    counts them, and ``plan.chi_grown`` the χ variables they grew — per
    compile, not per request, so a plan the engine replays adds to
    neither (``plan.reused`` counts those).
    """
    check_backend(backend)
    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; expected one of {LAYOUTS}"
        )
    weighted = rides_buffers(semiring)
    if semiring is not None and not weighted:
        layout = "row"

    with current_tracer().span(
        "plan.compile", query=query.name, layout=layout, reused=False,
    ) as compile_span:
        plan = _compile_plan_traced(
            query, db, hd, provenance, cache_hit, layout, weighted
        )
        compile_span.set(**plan.compile_attrs())
    get_registry().counter("plan.compiled").inc()
    return plan


def _compile_plan_traced(
    query: ConjunctiveQuery,
    db: Database | None,
    hd: HypertreeDecomposition,
    provenance: str,
    cache_hit: bool,
    layout: str,
    weighted: bool,
) -> QueryPlan:
    complete = hd if hd.is_complete else hd.complete()
    estimator = CardinalityEstimator(db)

    nodes = complete.nodes
    node_ids = {id(n): i for i, n in enumerate(nodes)}
    tree_edges = [
        (i, node_ids[id(c)]) for i, p in enumerate(nodes) for c in p.children
    ]
    # Distinct atoms in query order, so the covered set of a node does
    # not depend on set iteration order.
    query_atoms = [(a, a.variables) for a in dict.fromkeys(query.atoms)]
    # The estimates below index stored columns by atom position, so a
    # schema mismatch has to surface here, typed, not as whatever the
    # first estimate trips over.
    for atom, _ in query_atoms:
        estimator.check_arity(atom)
    chis = [p.chi for p in nodes]
    pipelines = [
        _node_pipeline(p.lam, p.chi, query_atoms, estimator) for p in nodes
    ]
    priced: dict[int, dict[frozenset[Variable], float]] = {}
    # Without a database every estimate is 1 and nothing can be cheaper;
    # a plan of single-part nodes (every acyclic one) has nothing to grow.
    if db is not None and any(len(parts) > 1 for parts, _, _ in pipelines):
        priced = _grow_chi(
            nodes, tree_edges, chis, pipelines, query_atoms, estimator
        )
        grown = sum(len(chi - p.chi) for chi, p in zip(chis, nodes))
        if grown:
            chi_of = {id(p): chi for p, chi in zip(nodes, chis)}
            complete = assert_valid(
                complete.map_nodes(lambda n: (chi_of[id(n)], n.lam)),
                f"χ growth on {query.name}",
            )
            get_registry().counter("plan.chi_grown").inc(grown)
    bags = []
    for i, (p, chi, (parts, rows, _)) in enumerate(
        zip(nodes, chis, pipelines)
    ):
        # The bag's terms are χ's own variables, so comparing them with
        # the query's atoms finds them by identity.
        terms = tuple(sorted(chi, key=attrgetter("name")))
        bags.append(Bag(
            Atom(f"n{i}", terms), tuple(v.name for v in terms), parts, rows,
            tuple(sorted(v.name for v in chi - p.chi)),
        ))

    head = query.head_names
    fresh = [bag.node for bag in bags]
    edges = [(fresh[i], fresh[j]) for i, j in tree_edges]
    holding = [bag for bag in bags if set(head) <= set(bag.chi)]
    root = max(
        holding or bags, key=lambda bag: (bag.est, bag.node.predicate)
    ).node
    jt = join_tree_from_edges(fresh, edges, root)
    plan = QueryPlan(
        query=query,
        decomposition=complete,
        bags=tuple(bags),
        candidates=tuple(
            tuple(
                (tuple(sorted(v.name for v in added)), cost)
                for added, cost in priced.get(i, {}).items()
            )
            for i in range(len(bags))
        ),
        join_tree=jt,
        output=head,
        width=hd.width,
        provenance=provenance,
        cache_hit=cache_hit,
        layout=layout,
        weighted=weighted,
        reads=tuple(estimator.reads.items()),
    )
    if layout != "auto" or weighted:
        return plan
    work = _plan_work(plan.program(), estimator)
    costs = OPERATOR_COSTS[kernels()]
    return plan.restamped(  # shares the program it priced
        predicted_row_ms=predict_ms(work, costs["row"]),
        predicted_columnar_ms=predict_ms(work, costs["columnar"]),
        # Pricing reads too (the active domain): a replay must confirm
        # what the predictions were computed from.
        reads=tuple(estimator.reads.items()),
    )


def literal_plan(
    query: ConjunctiveQuery, hd: HypertreeDecomposition
) -> QueryPlan:
    """The literal ``⟨Q′, DB′, JT⟩`` of Lemma 4.6 over *hd*, as a plan:
    :func:`compile_plan` without a database, its covered filters
    dropped.  Its bag atoms are ``Q′``, its join tree is ``JT`` and its
    bags, run (:func:`~repro.db.yannakakis.bag_program`), are ``DB′``;
    :func:`execute_plan` runs the sweep over them too, answering ``Q``."""
    plan = compile_plan(query, None, hd)
    return replace(plan, bags=tuple(
        bag._replace(parts=tuple(p for p in bag.parts if not p.covered))
        for bag in plan.bags
    ))


def literal_size(plan: QueryPlan, relations: Mapping[Atom, Relation]) -> int:
    """``‖⟨Q′, DB′, JT⟩‖`` of a :func:`literal_plan` whose bags ran to
    *relations*: value occurrences in DB′ plus atom sizes of Q′ and JT
    (the units of the Lemma 4.6 bound)."""
    db_size = sum(len(r) * max(1, r.arity) for r in relations.values())
    query_size = sum(1 + bag.node.arity for bag in plan.bags)
    tree_size = 2 * len(plan.join_tree.nodes)
    return db_size + query_size + tree_size


def execute_plan(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats | None = None,
    deadline: float | None = None,
    semiring: Semiring | None = None,
) -> Relation:
    """Run a compiled plan's program: its bags, then Yannakakis.

    Returns the answer relation; for a Boolean query the result has an
    empty schema and is non-empty iff the query is true.  Raises
    :class:`BudgetExceeded` when *deadline* (monotonic seconds) passes
    between operators.

    *semiring* switches the run to annotated semantics: the answer
    carries one value per row — an
    :class:`~repro.db.annotated.AnnotatedRelation`, or a
    :class:`~repro.db.columnar.ColumnarRelation` with a weight column
    exposing the same ``annotations`` / ``total()`` surface — (Boolean
    plans enumerate the 0-ary answer instead of short-circuiting, so
    the () row's annotation is the query total).
    """
    stats = stats if stats is not None else EvalStats()
    annotated = semiring is not None
    with current_tracer().span(
        "plan.execute", query=plan.query.name, nodes=len(plan.bags)
    ) as sp:
        if annotated and not semiring.distributive:
            # No sweep may fold a non-distributive ⊕ early: one full join.
            answer = naive_annotated_eval(plan.query, db, semiring, stats)
        else:
            program = plan.program(annotated)
            columnar = plan.resolved_layout == "columnar"
            context = RunContext(db, columnar, semiring, deadline)
            answer = run_program(program, {}, stats, context)
            if program.terminal == NONEMPTY:
                answer = Relation.trusted(
                    (), frozenset({()} if answer else ()), "ans"
                )
        sp.set(rows=len(answer))
    return answer
