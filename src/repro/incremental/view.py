"""Materialized views: standing query answers maintained by deltas.

A :class:`MaterializedView` registers one conjunctive query against one
database snapshot, evaluates it through the engine's compiled physical
plan (:class:`repro.engine.plan.QueryPlan` — cached decomposition, per-bag
join orders, rooted join tree), and thereafter keeps the answer relation
fresh under :class:`~repro.incremental.delta.Delta` batches without
recomputation.

The maintained state is the plan's annotated program
(:meth:`QueryPlan.program` with ``annotated=True``) read as a delta
pipeline over ℤ-sets (:class:`~repro.incremental.counting.CountedRows`):

* each part of a ``Bag`` operator becomes an *atom feed* — the binding
  transform of :func:`repro.db.binding.bind_atom` (constants, repeated
  variables) compiled to a per-row filter plus the part's
  pre-projection onto the χ overlap, emitting signed rows; the input it
  feeds counts the base rows a projection collapses;
* each join-tree node owns a :class:`~repro.incremental.counting.DeltaJoin`
  over its parts' inputs and one child slot per program ``Join``; a child
  slot carries its marginal — what the parent's ``Join`` reads of the
  child — and a child's signed output *is* that slot's delta, so each
  edge's rows are counted once, in the parent's input;
* the root keeps the ``Project`` head, and its signed output folds into
  one counted row set: the answer relation, whose zero crossings are
  the :class:`AnswerDelta` handed to subscribers.

The program's semijoins are skipped: they only bound sizes, and the
delta joins are exact without them.

Initial evaluation is not a special case: it is the delta "insert every
base row" applied to empty state, so the property tests exercise the
same code path a cold load does.  The view keeps a shadow copy of its
base relations, making any incoming batch *effective* (idempotent
re-inserts and deletes of absent rows are dropped) before propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .._errors import SchemaError
from ..core.atoms import Atom, Variable
from ..core.query import ConjunctiveQuery
from ..db.binding import term_positions
from ..db.database import Database
from ..db.relation import Relation
from ..db.stats import EvalStats
from ..db.yannakakis import Join, Project
from ..engine.plan import QueryPlan
from ..obs import current_tracer, get_registry
from .counting import CountedRows, DeltaJoin, Row, SignedRows, key_of
from .delta import Delta


@dataclass(frozen=True)
class AnswerDelta:
    """The set-level change of a view's answer relation after one batch."""

    attributes: tuple[str, ...]
    inserted: frozenset[Row]
    deleted: frozenset[Row]

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)

    def __len__(self) -> int:
        return len(self.inserted) + len(self.deleted)

    @staticmethod
    def empty(attributes: tuple[str, ...]) -> "AnswerDelta":
        return AnswerDelta(attributes, frozenset(), frozenset())

    def __str__(self) -> str:
        def render(rows: frozenset[Row], sign: str) -> list[str]:
            return [
                f"{sign}({', '.join(map(str, r))})"
                for r in sorted(rows, key=repr)
            ]

        parts = render(self.inserted, "+") + render(self.deleted, "-")
        header = ", ".join(self.attributes)
        return f"Δans({header})[" + " ".join(parts) + "]"


class _AtomFeed:
    """Compiled transform from one base relation's delta to one join
    input's signed delta: binding filter, then projection onto the χ
    overlap.  Base rows that the projection collapses add up, so the
    input's support counts them exactly."""

    __slots__ = (
        "predicate",
        "arity",
        "input_index",
        "_const_checks",
        "_eq_checks",
        "_out",
    )

    def __init__(self, atom: Atom, attributes: tuple[str, ...], input_index: int):
        self.predicate = atom.predicate
        self.arity = atom.arity
        self.input_index = input_index
        first, self._const_checks, self._eq_checks = term_positions(atom)
        self._out = key_of(
            tuple(first[Variable(name)] for name in attributes)
        )

    def feed(self, rows: Mapping[Row, int]) -> SignedRows:
        signed: SignedRows = {}
        get = signed.get
        out_of = self._out
        const_checks, eq_checks = self._const_checks, self._eq_checks
        for row, sign in rows.items():
            if const_checks and any(row[i] != v for i, v in const_checks):
                continue
            if eq_checks and any(row[i] != row[f] for i, f in eq_checks):
                continue
            out = out_of(row)
            signed[out] = get(out, 0) + sign
        return {row: sign for row, sign in signed.items() if sign}


class _ViewNode(NamedTuple):
    """One join-tree node's maintained state, and where its output delta
    goes: the parent's child slot, or nowhere (``None``) at the root."""

    join: DeltaJoin
    feeds: tuple[_AtomFeed, ...]
    parent: Atom | None
    slot: int


class MaterializedView:
    """One standing query whose answers stay fresh under update batches.

    Parameters
    ----------
    query:
        The registered conjunctive query (its head fixes the answer
        schema; Boolean queries yield the 0-ary relation).
    db:
        The database snapshot the view starts from.  The view copies the
        base rows it depends on and never reads *db* again — callers feed
        subsequent changes through :meth:`apply`.
    plan:
        The compiled physical plan, typically obtained through
        :meth:`repro.engine.Engine.plan` so structurally identical views
        share one cached decomposition.
    track_base:
        With the default ``True`` the view keeps a shadow copy of its
        base relations and normalises every incoming batch against it,
        so raw streams (idempotent re-inserts, deletes of absent rows)
        are safe.  :class:`~repro.incremental.live.LiveEngine` passes
        ``False``: it feeds deltas that :meth:`Database.apply` already
        made effective, so the per-view shadow (O(database) memory per
        view) and the second normalisation pass are skipped.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        db: Database,
        plan: QueryPlan,
        track_base: bool = True,
    ):
        self.query = query
        self.plan = plan
        self.output = plan.output
        self.predicates = frozenset(query.predicates)
        self._arities = dict(query.arities)
        # The annotated program joins along every edge, children before
        # parents: each Join names a child slot and what it carries, and
        # the closing Project what the root keeps.
        program = plan.program(annotated=True)
        bags = {op.node: op for op in program.bags}
        held = {bag: frozenset(op.chi) for bag, op in bags.items()}
        keeps: dict[Atom, tuple[str, ...]] = {}
        slots: dict[Atom, list[Atom]] = {bag: [] for bag in program.nodes}
        for op in program.ops:
            if isinstance(op, Join):
                marginal = (
                    held[op.child] if op.marginal is None else op.marginal
                )
                keeps[op.child] = tuple(sorted(marginal))
                slots[op.node].append(op.child)
                held[op.node] |= marginal
            elif isinstance(op, Project):
                keeps[op.root] = op.head

        self._nodes: dict[Atom, _ViewNode] = {}
        self._unit_bags: set[Atom] = set()
        route: dict[Atom, tuple[Atom, int]] = {}  # child -> parent, slot
        for bag in program.nodes:  # preorder: parents first
            inputs: list[CountedRows] = []
            feeds: list[_AtomFeed] = []
            for part in bags[bag].parts:
                attrs = part.keep
                if attrs is None:  # the atom lies inside χ
                    attrs = tuple(sorted(v.name for v in part.atom.variables))
                feeds.append(_AtomFeed(part.atom, attrs, len(inputs)))
                inputs.append(CountedRows(attrs))
            for child in slots[bag]:
                route[child] = (bag, len(inputs))
                inputs.append(CountedRows(keeps[child]))
            if not inputs:
                # A node with no contributing atoms and no children (an
                # empty-χ leaf) joins as the 0-ary unit relation; its one
                # row is seeded during the initial propagation.
                inputs.append(CountedRows(()))
                self._unit_bags.add(bag)
            self._nodes[bag] = _ViewNode(
                DeltaJoin(inputs, keeps[bag]), tuple(feeds),
                *route.get(bag, (None, 0)),
            )

        # Reversed preorder: every child before its parent.
        self._order = program.nodes[::-1]
        # The root keeps the head; its signed output folds into the answer.
        self._answers = CountedRows(self.output)
        self._subscribers: list[Callable[[AnswerDelta], None]] = []
        self.stats = EvalStats()
        self.last_batch: EvalStats | None = None
        self.batches = 0

        initial_rows = {
            p: db.rows(p) if db.has_predicate(p) else frozenset()
            for p in self.predicates
        }
        self._base: dict[str, set[Row]] | None = (
            {p: set(rows) for p, rows in initial_rows.items()}
            if track_base
            else None
        )
        initial = {
            p: dict.fromkeys(rows, 1)
            for p, rows in initial_rows.items()
            if rows
        }
        self._propagate(initial, seed_units=True)

    # -- views ------------------------------------------------------------
    def answers(self) -> Relation:
        """The current answer relation (schema = the query head)."""
        return Relation.trusted(self.output, self._answers.rows(), "ans")

    @property
    def boolean(self) -> bool:
        """The Boolean reading: is the answer relation non-empty?"""
        return bool(self._answers.counts)

    def __len__(self) -> int:
        return len(self._answers)

    def subscribe(
        self, callback: Callable[[AnswerDelta], None]
    ) -> Callable[[], None]:
        """Register *callback* for non-empty answer deltas; returns an
        unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    # -- maintenance ------------------------------------------------------
    def apply(self, delta: Delta, notify: bool = True) -> AnswerDelta:
        """Fold one update batch into the view; return the answer delta.

        With a base shadow (``track_base=True``) the batch is first
        normalised against it, so re-inserting a present row or deleting
        an absent one is a no-op — callers may pass raw streams.  Without
        one, the caller guarantees effectiveness (as ``LiveEngine`` does
        via ``Database.apply``).

        With *notify*, subscribers run after the state update; a raising
        callback can therefore never leave the view half-applied (see
        :meth:`notify_subscribers`).
        """
        # Validate the whole batch before touching any state: a
        # partially folded batch would desynchronise the view forever.
        for predicate, rows in delta.changes.items():
            arity = self._arities.get(predicate)
            if arity is None:
                continue
            for row in rows:
                if len(row) != arity:
                    raise SchemaError(
                        f"delta row {predicate}{row!r} does not match the "
                        f"view's arity {arity} for {predicate!r}"
                    )
                break  # Delta construction enforced one arity per predicate
        base: dict[str, dict[Row, int]] = {}
        for predicate, rows in delta.changes.items():
            if predicate not in self._arities:
                continue  # predicate not mentioned by this view
            if self._base is None:
                base[predicate] = dict(rows)
                continue
            shadow = self._base[predicate]
            effective: dict[Row, int] = {}
            for row, sign in rows.items():
                if sign > 0:
                    if row not in shadow:
                        shadow.add(row)
                        effective[row] = 1
                elif row in shadow:
                    shadow.remove(row)
                    effective[row] = -1
            if effective:
                base[predicate] = effective
        result = self._propagate(base)
        if notify:
            self.notify_subscribers(result)
        return result

    def notify_subscribers(self, result: AnswerDelta) -> None:
        """Deliver a non-empty answer delta to every subscriber.

        Each callback is isolated: all of them run even if one raises,
        and only then is the first exception re-raised — by that point
        the view's own state is already consistent, so a faulty
        subscriber cannot desynchronise maintenance.
        """
        if not result:
            return
        errors: list[BaseException] = []
        for callback in list(self._subscribers):
            try:
                callback(result)
            except BaseException as error:  # noqa: BLE001 - isolation point
                errors.append(error)
        if errors:
            raise errors[0]

    def _propagate(
        self,
        base_rows: Mapping[str, Mapping[Row, int]],
        seed_units: bool = False,
    ) -> AnswerDelta:
        stats = EvalStats()
        touched = 0
        nodes_touched = 0
        answer_signed: SignedRows = {}
        pending: dict[Atom, dict[int, SignedRows]] = {}
        batch_span = current_tracer().span(
            "view.apply_batch", view=self.query.name, initial=seed_units
        )
        with batch_span, stats.timed():
            for bag in self._order:
                node = self._nodes[bag]
                deltas = pending.pop(bag, {})
                for feed in node.feeds:
                    rows = base_rows.get(feed.predicate)
                    if rows:
                        fed = feed.feed(rows)
                        if fed:
                            deltas[feed.input_index] = fed
                if seed_units and bag in self._unit_bags:
                    deltas[0] = {(): 1}
                if not deltas:
                    continue
                nodes_touched += 1
                out, crossed = node.join.apply(deltas, stats)
                touched += crossed
                if not out:
                    continue
                if node.parent is None:
                    answer_signed = self._answers.apply(out)
                    touched += len(answer_signed)
                else:
                    pending.setdefault(node.parent, {})[node.slot] = out
            batch_span.set(
                touched_rows=touched,
                nodes_touched=nodes_touched,
                answer_changes=len(answer_signed),
            )

        stats.notes["touched_rows"] = float(touched)
        stats.notes["nodes_touched"] = float(nodes_touched)
        stats.notes["batches"] = 1.0
        self.last_batch = stats
        self.stats.merge(stats)
        self.batches += 1

        registry = get_registry()
        registry.counter("view.batches").inc()
        registry.counter("view.touched_rows").inc(touched)
        registry.histogram("view.batch_seconds").observe(stats.wall_time)

        return AnswerDelta(
            self.output,
            frozenset(r for r, s in answer_signed.items() if s > 0),
            frozenset(r for r, s in answer_signed.items() if s < 0),
        )

    def __repr__(self) -> str:
        return (
            f"<MaterializedView {self.query.name}: {len(self)} answers, "
            f"{self.batches} batches>"
        )
