"""Physical plans: a decomposition compiled against a concrete database.

A cached (or freshly computed) hypertree decomposition fixes only the
*structure* of evaluation.  This module adds the database-dependent
choices — cheap, polynomial-time, compiled once per query,
decomposition, layout and database version (the engine replays a plan
until an effective write bumps ``Database.version``) — on top of the
Lemma 4.6 pipeline:

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
  root holding the head makes every node *self-contained*
  (:func:`~repro.db.yannakakis.self_contained`): the sweep then runs
  the bottom-up semijoins and one projection under set semantics, and
  only the join pass on weighted operands — no intermediate has a head
  variable to carry up the tree.  (Join trees, unlike hypertree
  decompositions, may be re-rooted freely: the connectedness condition
  is symmetric.)
* **one layout per plan** — ``layout="columnar"`` materialises every
  bag as a :class:`~repro.db.columnar.ColumnarRelation` (contiguous
  buffers, vectorised semijoin/join kernels); ``"auto"`` resolves to
  it or to ``"row"``, once for the whole plan, by *predicted
  milliseconds*: the operators the plan will run — each bag pipeline's
  parts and the rows its joins read and write, and per join-tree edge
  the semijoins and the enumeration join the sweep runs there (the
  self-contained rule above decides which), over the bag estimates — are
  priced under each layout's fitted fixed + per-row cost
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

Execution materialises the bags in plan order and runs the Yannakakis
passes of :mod:`repro.db.yannakakis` directly on them, in one thread.  A
deadline is checked between operators so per-request budgets interrupt
long plans with :class:`repro._errors.BudgetExceeded`.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from ..core.atoms import Atom, Variable
from ..core.hypertree import HTNode, HypertreeDecomposition
from ..core.jointree import JoinTree, join_tree_from_edges
from ..core.query import ConjunctiveQuery
from ..db.annotated import assign_annotated_atoms, naive_annotated_eval
from ..db.binding import check_arity
from ..db.columnar import (
    LAYOUTS,
    OPERATOR_COSTS,
    WEIGHTED_MIN_ROWS,
    ColumnarRelation,
    kernels,
    rides_buffers,
)
from ..db.database import Database
from ..db.evaluate import bag_relation, check_deadline
from ..db.relation import Relation
from ..db.semiring import Semiring
from ..db.stats import CardinalityEstimator, EvalStats
from ..db.yannakakis import boolean_eval, enumerate_answers, self_contained
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
class NodePlan:
    """Compiled evaluation of one decomposition node's bag relation."""

    bag: Atom
    chi_names: tuple[str, ...]
    join_order: tuple[Atom, ...]
    estimated_rows: float
    atom_estimates: tuple[float, ...]
    #: The members of ``join_order`` that are not λ atoms of the node but
    #: query atoms its χ covers, joined in as filters (rendered ``⋉``).
    covered: frozenset[Atom] = frozenset()
    #: The members of ``chi_names`` this plan added to the χ label of
    #: the decomposition it was compiled from (rendered ``+D``).
    grown: tuple[str, ...] = ()
    #: Every χ label priced for this node, as ``(variables added to the
    #: literal χ, Σ estimated intermediates of its pipeline)`` — the
    #: literal χ first, as ``()``; the one whose variables are ``grown``
    #: was chosen.  Empty for a node that never entered the search.
    candidates: tuple[tuple[tuple[str, ...], float], ...] = ()

    def describe(self) -> str:
        steps = "".join(
            (" ⋉ " if a in self.covered else " ⋈ " if i else "")
            + f"{a}[≈{int(est)}]"
            for i, (a, est) in enumerate(
                zip(self.join_order, self.atom_estimates)
            )
        )
        chi = ", ".join(
            f"+{v}" if v in self.grown else v for v in self.chi_names
        )
        return (
            f"{self.bag.predicate}: π[{chi}]({steps or 'unit'}) "
            f"≈{int(self.estimated_rows)} rows"
        )

    def describe_candidates(self) -> str:
        """The χ label chosen for a node that entered the search and the
        ones rejected, each with its estimated pipeline cost."""
        def label(added: tuple[str, ...]) -> str:
            return ", ".join(f"+{v}" for v in added) or "literal χ"

        rejected = ", ".join(
            f"{label(added)} ≈{int(cost)}"
            for added, cost in self.candidates
            if added != self.grown
        )
        chosen = dict(self.candidates)[self.grown]
        return (
            f"{self.bag.predicate}: {'grew' if self.grown else 'kept'} "
            f"{label(self.grown)} ≈{int(chosen)}; rejected {rejected}"
        )


@dataclass(frozen=True)
class QueryPlan:
    """A fully compiled physical plan for one (query, database) pair."""

    query: ConjunctiveQuery
    decomposition: HypertreeDecomposition
    node_plans: tuple[NodePlan, ...]
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
    #: The database version the engine replayed this plan at instead of
    #: compiling (``None`` for a fresh compile) — the version it was
    #: priced at, since any effective write forces a compile.
    reused_version: int | None = field(default=None)

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
        """The largest estimate among the relations the node pipelines
        touch: a part's, or a bag's."""
        return max(
            (max(np.estimated_rows, *np.atom_estimates)
             for np in self.node_plans),
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
            "nodes": len(self.node_plans),
            "columnar": (
                len(self.node_plans)
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
                *(np.describe() for np in self.node_plans),
                self.join_tree.render(),
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def render(self) -> str:
        """The ``explain`` rendering: provenance, per-node pipelines, and
        the rooted join tree the Yannakakis passes will run over."""
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
            "bag materialisation (cardinality-ascending joins):",
        ]
        if self.reused_version is not None:
            lines.insert(
                1, f"plan reused (database version {self.reused_version})"
            )
        for np in self.node_plans:
            marker = " <- root" if np.bag == self.join_tree.root else ""
            lines.append(f"  {np.describe()}{marker}")
        considered = [np for np in self.node_plans if np.candidates]
        if considered:
            lines.append(
                "χ per node (estimated pipeline cost, Σ intermediate rows):"
            )
            lines.extend(f"  {np.describe_candidates()}" for np in considered)
        lines.append("join tree (semijoin + enumeration passes):")
        lines.append(self.join_tree.render())
        return "\n".join(lines)

    def render_analyzed(
        self, tracer: Tracer, elapsed: float, answer_rows: int
    ) -> str:
        """The ``EXPLAIN ANALYZE`` rendering: the static plan annotated
        with what one traced execution actually did.

        The measured ``plan.execute`` time is printed beside the time
        model's prediction for the layout the plan ran (the model's
        error, per request), when ``auto`` priced it.  Per node:
        estimated vs actual bag
        cardinality (exposing the misestimates the cost-based choices
        silently act on), materialisation wall time — for a single-atom
        node, whether it reused the base relation's snapshot or had to
        rebuild part of it — and the node's share of the sweep
        (semijoin/join operator time attributed by relation name).
        """
        spans = tracer.spans()
        bag_spans: dict[object, list] = {}
        executed = None
        for span in spans:
            if span.name == "plan.bag" and "node" in span.attrs:
                bag_spans.setdefault(span.attrs["node"], []).append(span)
            elif (
                span.name == "plan.execute"
                and span.attrs.get("query") == self.query.name
            ):
                executed = span
        sweep: dict[object, tuple[float, int]] = {}
        for span in spans:
            if span.name in ("sweep.semijoin", "sweep.join"):
                node = span.attrs.get("node")
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
            self.render(),
            f"analyze: executed in {elapsed * 1e3:.3f}ms, "
            f"{answer_rows} answer row(s)",
            execute,
            "per-node actuals (estimated vs actual rows, wall time):",
        ]
        for np in self.node_plans:
            node = np.bag.predicate
            spans_here = bag_spans.get(node, [])
            actual = spans_here[-1].attrs.get("rows") if spans_here else None
            bag_ms = sum(s.duration for s in spans_here) * 1e3
            sweep_s, sweep_n = sweep.get(node, (0.0, 0))
            if actual is None:
                lines.append(f"  {node}: (no trace recorded)")
                continue
            if actual:
                factor = np.estimated_rows / actual
                misestimate = f"est/actual {factor:.2f}x"
            else:
                misestimate = f"est {int(np.estimated_rows)}, actual empty"
            snapshot = spans_here[-1].attrs.get("snapshot")
            lines.append(
                f"  {node}: ≈{int(np.estimated_rows)} est -> {actual} actual "
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
) -> tuple[list[Atom], list[float], float, float]:
    """Greedy join order of one bag pipeline, each part's estimated
    size, the estimated size of the bag, and the pipeline's estimated
    cost: the sum of its intermediates, the running join after every
    step — what :func:`~repro.db.evaluate.bag_relation` records as
    tuples produced, and what a χ label is chosen by (the final size is
    the wrong objective: a bag estimated at no rows at all can sit
    behind a four-digit intermediate).

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
    parts = [*lam, *covered]
    variables = [a.variables for a in parts]
    kept = [v & chi for v in variables]
    size = [
        estimator.atom_rows(a) if k == v else estimator.projected_rows(a, k)
        for a, v, k in zip(parts, variables, kept)
    ]
    if len(parts) == 1:  # nothing to order: every node of an acyclic plan
        return parts, size, size[0], size[0]
    label = [str(a) for a in parts]
    domain = estimator.domain_size
    seen: frozenset[Variable] = frozenset()

    def preference(i: int) -> tuple[int, int, float, str]:
        shared = len(kept[i] & seen)
        if i >= len(lam):
            tier = 0 if shared == len(kept[i]) else 2 if shared else 4
        else:
            tier = 1 if shared else 3
        return tier, -shared, size[i], label[i]

    remaining = list(range(len(parts)))
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
    return [parts[i] for i in order], [size[i] for i in order], bag_rows, cost


class _Pipeline(NamedTuple):
    """One node's bag pipeline under one χ label (see
    :func:`_bag_pipeline` for the last four fields)."""

    covered: list[Atom]
    order: list[Atom]
    sizes: list[float]
    rows: float
    cost: float


def _node_pipeline(
    lam: frozenset[Atom],
    chi: frozenset[Variable],
    query_atoms: list[tuple[Atom, frozenset[Variable]]],
    estimator: CardinalityEstimator,
) -> _Pipeline:
    """The pipeline of a node labelled ``(χ, λ)``: its contributing λ
    atoms (those with a variable in χ — the Lemma 4.6 case split) and,
    when it joins more than one of them, the query atoms χ covers."""
    contributing = [
        a for a in lam if (a.variables & chi) or not a.variables
    ]
    # The covered atoms: A ∉ λ(p) with ∅ ≠ var(A) ⊆ χ(p).  A
    # single-part node stays a view of its base relation; only a
    # pipeline that joins anyway is given them.
    covered = [
        a
        for a, variables in query_atoms
        if variables and variables <= chi and a not in lam
    ] if len(contributing) > 1 else []
    return _Pipeline(
        covered, *_bag_pipeline(contributing, covered, chi, estimator)
    )


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
    pipelines: Sequence[_Pipeline],
    chi_names: Sequence[Iterable[str]],
    bags: Sequence[Atom],
    join_tree: JoinTree,
    output: Iterable[str],
    estimator: CardinalityEstimator,
) -> list[_Work]:
    """What executing the plan will do, operator by operator, from the
    estimates the compile already made (*chi_names* and *bags* give each
    pipeline's χ and its bag in the join tree; *output* is the head's
    variable names).

    A bag pipeline's first part is a view of its snapshot, the same in
    either layout; every later part is one ``bag`` call over the rows
    its join reads and writes — the running relation, the part, the
    running relation after it, as :func:`_bag_pipeline` estimated them —
    and a part reaching outside χ is pre-projected.  Then the passes, in
    the order :mod:`repro.db.yannakakis` runs them on set semantics, and
    only those it runs (:func:`~repro.db.yannakakis.self_contained`
    decides, as there): each semijoin reads its two sides and shrinks
    its receiver; for a plan with output, the top-down pass skips the
    self-contained children, and each enumeration join outside a
    self-contained subtree reads the node's reduced bag (or its running
    result) and the child's, and writes their join — and a projection
    follows it, as one does the answer.  Sizes follow the estimator's
    rule (each shared variable divides a product by the active domain);
    variables are compared by name, which hashes in C."""
    work: list[_Work] = []
    domain = estimator.domain_size
    names = [frozenset(chi) for chi in chi_names]
    # Per node, the parts it joins, as (predicate, variables).
    parts: list[set[tuple[str, frozenset[str]]]] = []
    for pl, chi in zip(pipelines, names):
        seen: frozenset[str] = frozenset()
        running = 1.0
        parts.append(set())
        for i, (atom, size) in enumerate(zip(pl.order, pl.sizes)):
            own = frozenset([v.name for v in atom.variables])
            parts[-1].add((atom.predicate, own))
            kept = own & chi
            if kept != own:
                work.append(("project", estimator.atom_rows(atom)))
            if i:
                key = len(kept & seen)
                joined = running * size / domain**key
                work.append((_keyed("bag", key), running + size + joined))
                running, seen = joined, seen | kept
            else:
                running, seen = size, kept
    node_of = {id(bag): i for i, bag in enumerate(bags)}
    children_of = join_tree.children_of
    full = [pl.rows for pl in pipelines]
    rows = list(full)
    up = [  # (node, its children), children first
        (node_of[id(n)], [node_of[id(c)] for c in children_of.get(n, ())])
        for n in join_tree.post_order()
    ]
    # Per tree edge, its key width and what a partner row matches: a
    # receiver row survives when some partner row shares its key, under
    # independence with probability 1 - exp(-matches).  A key the atoms
    # both pipelines join bind whole is not independent — both sides
    # hold the same joined tuples on it — and keeps every row (None).
    edge: dict[tuple[int, int], tuple[int, float | None]] = {}
    for node, children in up:
        for child in children:
            shared = names[node] & names[child]
            bound = frozenset().union(
                *(own for _, own in parts[node] & parts[child])
            )
            independent = bool(shared) and not shared <= bound
            edge[node, child] = edge[child, node] = (
                len(shared), domain ** len(shared) if independent else None
            )

    def semijoin(node: int, partner: int) -> None:
        key, per_match = edge[node, partner]
        work.append((_keyed("semijoin", key), rows[node] + rows[partner]))
        if per_match is not None:
            rows[node] *= -math.expm1(-rows[partner] / per_match)

    for node, children in up:
        for child in children:
            semijoin(node, child)
    output = frozenset(output)
    if not output:
        return work
    closed = {
        node_of[id(bag)]
        for bag in self_contained(join_tree, dict(zip(bags, names)), output)
    }
    for node, children in reversed(up):  # parents before children
        for child in children:
            if child not in closed:
                semijoin(child, node)
    # A join's output is that of the unreduced bags — a semijoin drops
    # exactly the rows that join nothing — and a projection onto the
    # node's own χ leaves no more rows than its bag.  A self-contained
    # node's partial is its reduced bag, which no join writes.
    partial: dict[int, tuple[float, frozenset[str]]] = {}
    for node, children in up:
        est, held, reading = full[node], names[node], rows[node]
        if node in closed:
            partial[node] = est, held
            continue
        for child in children:
            child_est, child_held = partial[child]
            key = len(held & child_held)
            out = est * child_est / domain**key
            work.append((_keyed("join", key), reading + child_est + out))
            work.append(("project", out))
            held = held | (child_held & output)
            if held == names[node]:
                out = min(out, full[node])
            est = reading = out
        partial[node] = est, held
    work.append(("project", partial[up[-1][0]][0]))
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
    pipelines: list[_Pipeline],
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
    as indices into *nodes*.  Updates *chis* and *pipelines* in place;
    returns, per node that priced anything, variables added to the
    literal χ → estimated cost, the literal label first."""
    neighbours: list[list[int]] = [[] for _ in nodes]
    for parent, child in tree_edges:
        neighbours[parent].append(child)
        neighbours[child].append(parent)
    priced: dict[int, dict[frozenset[Variable], float]] = {}
    queue = deque(i for i, pl in enumerate(pipelines) if len(pl.order) > 1)
    multi_part = frozenset(queue)
    while queue:
        i = queue.popleft()
        p, chi = nodes[i], chis[i]
        held = frozenset().union(*(chis[j] for j in neighbours[i]))
        addable = sorted((p.lambda_variables - chi) & held)
        if not addable:
            continue
        costs = priced.setdefault(i, {frozenset(): pipelines[i].cost})
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
            costs[added] = candidate.cost
            if candidate.cost < pipelines[i].cost:
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
    With ``db=None`` (an ``explain`` without facts) all estimates are 1,
    χ stays literal and the plan falls back to deterministic syntactic
    order.

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
    if db is not None:
        # The estimates below index stored columns by atom position, so
        # a schema mismatch has to surface here, typed, not as whatever
        # the first estimate trips over.
        for atom, _ in query_atoms:
            if db.has_predicate(atom.predicate):
                check_arity(atom, db)
    chis = [p.chi for p in nodes]
    pipelines = [
        _node_pipeline(p.lam, p.chi, query_atoms, estimator) for p in nodes
    ]
    priced: dict[int, dict[frozenset[Variable], float]] = {}
    # Without a database every estimate is 1 and nothing can be cheaper;
    # a plan of single-part nodes (every acyclic one) has nothing to grow.
    if db is not None and any(len(pl.order) > 1 for pl in pipelines):
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
    fresh: list[Atom] = []
    plans: list[NodePlan] = []
    for i, (p, chi, pipeline) in enumerate(zip(nodes, chis, pipelines)):
        chi_names = tuple(sorted(v.name for v in chi))
        bag_rows = pipeline.rows
        bag = Atom(f"n{i}", tuple(Variable(v) for v in chi_names))
        fresh.append(bag)
        plans.append(
            NodePlan(
                bag, chi_names, tuple(pipeline.order), bag_rows,
                tuple(pipeline.sizes),
                covered=frozenset(pipeline.covered),
                grown=tuple(sorted(v.name for v in chi - p.chi)),
                candidates=tuple(
                    (tuple(sorted(v.name for v in added)), cost)
                    for added, cost in priced.get(i, {}).items()
                ),
            )
        )

    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    edges = [(fresh[i], fresh[j]) for i, j in tree_edges]
    holding = [np for np in plans if set(head) <= set(np.chi_names)]
    root = max(
        holding or plans, key=lambda np: (np.estimated_rows, np.bag.predicate)
    ).bag
    jt = join_tree_from_edges(fresh, edges, root)
    predicted = {}
    if layout == "auto" and not weighted:
        work = _plan_work(
            pipelines, [np.chi_names for np in plans], fresh, jt, head,
            estimator,
        )
        costs = OPERATOR_COSTS[kernels()]
        predicted = {
            "predicted_row_ms": predict_ms(work, costs["row"]),
            "predicted_columnar_ms": predict_ms(work, costs["columnar"]),
        }
    return QueryPlan(
        query=query,
        decomposition=complete,
        node_plans=tuple(plans),
        join_tree=jt,
        output=head,
        width=hd.width,
        provenance=provenance,
        cache_hit=cache_hit,
        layout=layout,
        weighted=weighted,
        **predicted,
    )


def _materialise_bag(
    np: NodePlan,
    p: HTNode,
    db: Database,
    stats: EvalStats,
    deadline: float | None,
    semiring: Semiring | None = None,
    carriers: frozenset[Atom] = frozenset(),
    columnar: bool = False,
) -> Relation:
    """Materialise one decomposition node's bag relation.

    The pipeline is :func:`repro.db.evaluate.bag_relation` (the one
    Lemma 4.6 kernel) over the plan's join order; *carriers* is this
    node's share of the once-per-atom annotation assignment.

    With *columnar* (the plan's resolved layout: every node of a plan
    gets the same answer) the node yields a
    :class:`~repro.db.columnar.ColumnarRelation`, joined in the column
    buffers of the snapshots its atoms view — the Yannakakis
    sweeps then dispatch into the vectorised kernels.  An annotated bag is one when its semiring's values can ride
    a weight column (an :class:`~repro.db.annotated.AnnotatedRelation`
    otherwise); the ``plan.layout_columnar`` /
    ``plan.layout_row`` counters record which path each bag actually
    took, ``plan.bag_filters`` counts the covered atoms joined in as
    filters (the span also says how many χ variables the plan grew into
    the node), and a single-atom node's span says whether its bind reused
    the base relation's snapshot or had to (re)build part of it —
    the cost of a read after a write.  That is read off the atom's own
    snapshot (replaced, or grown a derived form, across the bind), never
    off a process-wide counter another request's build could move."""
    check_deadline(deadline, f"bag materialisation of {np.bag.predicate}")
    registry = get_registry()
    single = np.join_order[0].predicate if len(np.join_order) == 1 else None
    if single is not None:
        before = db.built_snapshot(single)
        derived = before.derived if before is not None else 0
    with current_tracer().span(
        "plan.bag",
        node=np.bag.predicate,
        est=int(np.estimated_rows),
        filters=len(np.covered),
        grown=len(np.grown),
    ) as sp:
        rel = bag_relation(
            np.join_order, p.chi, np.bag.predicate, db, stats,
            semiring, carriers, columnar, deadline,
        )
        if isinstance(rel, ColumnarRelation):
            registry.counter("plan.layout_columnar").inc()
        else:
            registry.counter("plan.layout_row").inc()
        registry.counter("plan.bag_filters").inc(len(np.covered))
        sp.set(rows=len(rel), layout=(
            "columnar" if isinstance(rel, ColumnarRelation) else "row"
        ))
        if single is not None:
            after = db.built_snapshot(single)
            reused = (
                before is not None
                and after is before
                and after.derived == derived
            )
            sp.set(snapshot="reused" if reused else "built")
    return rel


def execute_plan(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats | None = None,
    deadline: float | None = None,
    semiring: Semiring | None = None,
) -> Relation:
    """Run a compiled plan: materialise bags, then Yannakakis.

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
    with current_tracer().span(
        "plan.execute", query=plan.query.name, nodes=len(plan.node_plans)
    ) as sp:
        answer = _execute(plan, db, stats, deadline, semiring)
        sp.set(rows=len(answer))
    return answer


def materialise_bags(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats,
    deadline: float | None = None,
    semiring: Semiring | None = None,
) -> dict[Atom, Relation] | None:
    """Every bag relation of *plan* over *db*, keyed by the plan's bag
    atoms (the nodes of ``plan.join_tree``), in the plan's resolved
    layout.  Under a *semiring* each query atom's annotation enters at
    one bag; ``None`` when the plan's join orders admit no such
    once-per-atom assignment."""
    node_pairs = list(zip(plan.node_plans, plan.decomposition.nodes))
    columnar = plan.resolved_layout == "columnar"
    carriers_of: dict[int, frozenset[Atom]] = {}
    if semiring is not None:
        assignment = assign_annotated_atoms(
            [(np.join_order, p.chi) for np, p in node_pairs],
            plan.query.atoms,
        )
        if assignment is None:
            return None
        for atom, i in assignment.items():
            carriers_of[i] = carriers_of.get(i, frozenset()) | {atom}
    return {
        np.bag: _materialise_bag(
            np, p, db, stats, deadline, semiring,
            carriers_of.get(i, frozenset()), columnar,
        )
        for i, (np, p) in enumerate(node_pairs)
    }


def _execute(
    plan: QueryPlan,
    db: Database,
    stats: EvalStats,
    deadline: float | None,
    semiring: Semiring | None,
) -> Relation:
    relations = None
    if semiring is None or semiring.distributive:
        relations = materialise_bags(plan, db, stats, deadline, semiring)
    if relations is None:
        # A non-distributive fold, or no once-per-atom assignment over
        # this plan's join orders: annotated naive evaluation is always
        # correct.
        return naive_annotated_eval(plan.query, db, semiring, stats)

    check_deadline(deadline, "Yannakakis passes")
    if plan.output or semiring is not None:
        # Annotated Boolean queries enumerate the 0-ary answer too: the
        # () row's annotation is the semiring total; boolean_eval's
        # short-circuit would drop it.
        return enumerate_answers(plan.join_tree, relations, plan.output, stats)
    true = boolean_eval(plan.join_tree, relations, stats)
    return Relation.trusted((), frozenset({()} if true else ()), "ans")
