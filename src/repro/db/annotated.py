"""Annotated relations: the semiring-generalised operator layer.

An :class:`AnnotatedRelation` is a :class:`~repro.db.relation.Relation`
whose rows each carry a value from a commutative
:class:`~repro.db.semiring.Semiring`.  The relational operators are
overridden with their annotated semantics:

* ``semijoin`` filters rows and restricts the annotation map (pruned
  rows contribute ``zero`` — safe for every semiring);
* ``join`` multiplies annotations with ``times`` (natural-join output
  rows are in bijection with matched pairs, so no ``plus`` arises);
* ``project`` folds the annotations of collapsed rows with ``plus``,
  stopping early on absorbing values.

Because the overrides live on a subclass, every consumer that already
dispatches through ``Relation`` methods — the Yannakakis sweeps of
:mod:`repro.db.yannakakis`, the bag pipeline of
:mod:`repro.db.evaluate` — evaluates annotated relations unchanged.  Plain
relations never touch this module: set semantics keeps its memoised key
sets, specialised inner loops and ``Relation.trusted`` fast paths.

``join`` is the one operator whose result depends on *both* operands
(a plain receiver joined with an annotated partner must keep the
partner's annotations), so :meth:`Relation.join` lets the higher-ranked
operand bring the probe kernel: annotated relations outrank plain ones
and install :func:`annotated_probe_join`, inheriting ``join`` itself.

This class is the carrier of every semiring.  One that declares a
vector form (:attr:`Semiring.vector`) can instead ride a weight column
of a :class:`~repro.db.columnar.ColumnarRelation`, which exposes the
same ``semiring`` / ``annotations`` / ``annotation`` / ``total`` /
``strip`` surface, ranks between plain and annotated relations, and
hands an operand back to this class whenever a value could leave the
column's machine type.

The free-function entry points (:func:`bind_atom_annotated`,
:func:`annotated_probe_join`) mirror their plain counterparts in
:mod:`repro.db.binding` / :mod:`repro.db.relation`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from .._errors import EvaluationError, SchemaError
from ..core.atoms import Atom, Variable
from .binding import resolve_atom
from .database import Database
from .relation import Relation, Row
from .semiring import Semiring

_MISSING = object()


class AnnotationAssignmentError(EvaluationError):
    """Raised when a decomposition admits no once-per-atom annotation
    assignment (see :func:`assign_annotated_atoms`); callers fall back
    to :func:`naive_annotated_eval`."""


class AnnotatedRelation(Relation):
    """A relation whose rows carry semiring annotations.

    Instances are built with :meth:`make` (the annotated counterpart of
    ``Relation.trusted``); ``annotations`` maps every row to its value
    and ``semiring`` names the algebra the values live in.  Rows and
    annotation keys are kept in lockstep by every operator.
    """

    # ``Relation`` is a frozen dataclass; the two extra attributes are
    # installed the same way ``trusted`` installs the base three.
    semiring: Semiring
    annotations: dict[Row, object]

    # Above a weighted columnar relation (1): joined with one, the
    # probe loop below reads both sides' ``annotations``.
    _rank = 2

    @staticmethod
    def make(
        attributes: tuple[str, ...],
        rows: frozenset[Row],
        name: str,
        semiring: Semiring,
        annotations: dict[Row, object],
    ) -> "AnnotatedRelation":
        rel = object.__new__(AnnotatedRelation)
        object.__setattr__(rel, "attributes", attributes)
        object.__setattr__(rel, "rows", rows)
        object.__setattr__(rel, "name", name)
        object.__setattr__(rel, "semiring", semiring)
        object.__setattr__(rel, "annotations", annotations)
        return rel

    @staticmethod
    def lift(
        rel: Relation,
        semiring: Semiring,
        annotations: Mapping[Row, object] | None = None,
    ) -> "AnnotatedRelation":
        """Wrap a plain relation; missing annotations default to
        ``one`` (the neutral weight of an unannotated fact).  A relation
        that already carries annotations — this class, or a columnar
        relation with a weight column — is returned as it is."""
        if getattr(rel, "semiring", None) is not None:
            return rel
        rows = frozenset(rel.rows)  # a columnar relation's are a lazy view
        if annotations is None:
            ann = dict.fromkeys(rows, semiring.one)
        else:
            ann = {row: annotations.get(row, semiring.one) for row in rows}
        return AnnotatedRelation.make(
            rel.attributes, rows, rel.name, semiring, ann
        )

    @staticmethod
    def unit(semiring: Semiring, name: str = "unit") -> "AnnotatedRelation":
        """The 0-ary relation holding one row annotated ``one`` — the
        join of no relations at all."""
        return AnnotatedRelation.make(
            (), frozenset({()}), name, semiring, {(): semiring.one}
        )

    def __reduce__(self):
        return AnnotatedRelation.make, (
            self.attributes, self.rows, self.name,
            self.semiring, self.annotations,
        )

    def annotation(self, row: Row):
        """The annotation of one row (``zero`` for absent rows)."""
        return self.annotations.get(row, self.semiring.zero)

    def total(self):
        """``plus``-fold of every annotation (``zero`` when empty) —
        e.g. the total derivation count under :data:`COUNTING`."""
        plus = self.semiring.plus
        acc = _MISSING
        for value in self.annotations.values():
            acc = value if acc is _MISSING else plus(acc, value)
        return self.semiring.zero if acc is _MISSING else acc

    def strip(self) -> Relation:
        """The plain set-semantics relation underneath."""
        return Relation.trusted(self.attributes, self.rows, self.name)

    def _no_rows(
        self, attributes: tuple[str, ...], name: str
    ) -> "AnnotatedRelation":
        return AnnotatedRelation.make(
            attributes, frozenset(), name, self.semiring, {}
        )

    # -- relational algebra ------------------------------------------------
    def relabel(
        self, attributes: tuple[str, ...], name: str
    ) -> "AnnotatedRelation":
        return AnnotatedRelation.make(
            attributes, self.rows, name, self.semiring, self.annotations
        )

    def project(
        self, attributes: Sequence[str], name: str | None = None
    ) -> "AnnotatedRelation":
        if len(set(attributes)) != len(attributes):
            raise SchemaError(
                f"projection onto duplicate attributes {tuple(attributes)}"
            )
        positions = [self._position(a) for a in attributes]
        out_name = name or self.name
        if positions == list(range(self.arity)):
            return AnnotatedRelation.make(
                tuple(attributes), self.rows, out_name,
                self.semiring, self.annotations,
            )
        semiring = self.semiring
        ann = self.annotations
        if len(positions) == self.arity:
            # All columns, reordered (attributes are distinct): no two
            # rows can collapse, so rekey without the fold.
            pick = itemgetter(*positions)
            out = {pick(row): value for row, value in ann.items()}
            return AnnotatedRelation.make(
                tuple(attributes), frozenset(out), out_name, semiring, out
            )
        plus = semiring.plus
        absorbing = semiring.is_absorbing
        out: dict[Row, object] = {}
        get = out.get
        for row in self.rows:
            key = tuple(row[p] for p in positions)
            prior = get(key, _MISSING)
            if prior is _MISSING:
                out[key] = ann[row]
            elif not absorbing(prior):
                out[key] = plus(prior, ann[row])
        return AnnotatedRelation.make(
            tuple(attributes), frozenset(out), out_name, semiring, out
        )

    def semijoin_with_keys(
        self, shared: tuple[str, ...], keys: frozenset
    ) -> "AnnotatedRelation":
        kept = super().semijoin_with_keys(shared, keys)
        if kept is self:
            return self
        ann = self.annotations
        return AnnotatedRelation.make(
            self.attributes, kept.rows, self.name, self.semiring,
            {row: ann[row] for row in kept.rows},
        )

    def __str__(self) -> str:
        return f"{super().__str__()} [{self.semiring.tag}-annotated]"


def annotated_probe_join(
    build: Relation,
    probe: Relation,
    build_is_left: bool,
    shared: tuple[str, ...],
    extra_pos: Sequence[int],
    out_attrs: tuple[str, ...],
    name: str,
) -> AnnotatedRelation:
    """The annotated hash-join probe loop (either side may be plain;
    a plain side contributes ``one``, i.e. its annotations are neutral).
    Mirrors :func:`repro.db.relation.probe_join`, additionally
    ``times``-combining the matched pair's annotations.  Output rows are
    in bijection with matched pairs, so each is assigned exactly once.
    """
    build_ann = getattr(build, "annotations", None)
    probe_ann = getattr(probe, "annotations", None)
    semiring = getattr(build, "semiring", None) or getattr(
        probe, "semiring", None
    )
    if semiring is None:
        raise EvaluationError(
            "annotated_probe_join requires at least one annotated side"
        )
    build_sr = getattr(build, "semiring", None) or semiring
    probe_sr = getattr(probe, "semiring", None) or semiring
    if build_sr is not probe_sr:
        raise EvaluationError(
            f"cannot join {build_sr.tag}-annotated and "
            f"{probe_sr.tag}-annotated relations"
        )
    times = semiring.times
    table = build.key_index(shared)
    single = len(shared) == 1
    probe_pos = [probe._position(a) for a in shared]
    probe_single = probe_pos[0] if single else None

    out: dict[Row, object] = {}
    get = table.get
    for row in probe.rows:
        key = (
            row[probe_single]
            if single
            else tuple(row[p] for p in probe_pos)
        )
        matches = get(key)
        if not matches:
            continue
        pv = probe_ann[row] if probe_ann is not None else None
        for match in matches:
            left_row = match if build_is_left else row
            right_row = row if build_is_left else match
            out_row = left_row + tuple(right_row[p] for p in extra_pos)
            bv = build_ann[match] if build_ann is not None else None
            if bv is None:
                out[out_row] = pv
            elif pv is None:
                out[out_row] = bv
            else:
                out[out_row] = times(bv, pv)
    return AnnotatedRelation.make(
        out_attrs, frozenset(out), name, semiring, out
    )


AnnotatedRelation._probe_join = staticmethod(annotated_probe_join)


def assign_annotated_atoms(
    bags: Sequence[tuple[Sequence[Atom], frozenset]],
    query_atoms: Sequence[Atom],
) -> dict[Atom, int] | None:
    """Pick, for every distinct query atom, the one decomposition node
    that introduces its annotation.

    A hypertree decomposition may mention one atom in several λ sets;
    multiplying its annotation once per mention would over-count under
    non-idempotent ``times`` (ℕ, costs, probabilities).  Each atom is
    therefore *assigned* to the first node that both binds it and covers
    all its variables with χ (so none of the atom's columns are folded
    away before the join-tree's own variable elimination); every other
    mention joins unannotated, contributing only its filtering power.

    *bags* lists, per node, the atoms bound there and the node's χ
    variable set.  Returns ``atom -> node index``, or ``None`` when some
    query atom has no eligible node — the caller then falls back to
    annotated naive evaluation, which is always correct.
    """
    assigned: dict[Atom, int] = {}
    for i, (atoms, chi) in enumerate(bags):
        for atom in sorted(atoms, key=str):
            if atom not in assigned and atom.variables <= chi:
                assigned[atom] = i
    if set(query_atoms) - assigned.keys():
        return None
    return assigned


def naive_annotated_eval(query, db: Database, semiring: Semiring, stats=None):
    """Annotated evaluation by one full join — the always-correct
    fallback when a decomposition admits no once-per-atom annotation
    assignment.  Joins every distinct atom's annotated binding
    (smallest first) and ``plus``-projects onto the head."""
    head = tuple(
        dict.fromkeys(
            t.name for t in query.head_terms if isinstance(t, Variable)
        )
    )
    atoms = list(dict.fromkeys(query.atoms))
    bindings = sorted(
        (bind_atom_annotated(a, db, semiring) for a in atoms), key=len
    )
    rel = None
    for part in bindings:
        rel = part if rel is None else rel.join(part)
        if stats is not None:
            stats.joins += 1
            stats.record(rel)
    if rel is None:
        rel = AnnotatedRelation.unit(semiring, query.name)
    answer = rel.project(list(head), name="ans")
    if stats is not None:
        stats.projections += 1
        stats.record(answer)
    return answer


def bind_atom_annotated(
    atom: Atom, db: Database, semiring: Semiring, columnar: bool = False
) -> Relation:
    """The annotated counterpart of :func:`repro.db.binding.bind_atom`.

    The bound-row → base-row map is injective (constants and repeated
    variables are filtered; the surviving columns determine the full
    row), so each bound row's annotation is exactly the ``lift`` of its
    one base fact — no ``plus`` arises during binding.  The lifted map
    is memoised per relation version (:meth:`Database.annotations`); an
    atom over distinct variables shares it, and the snapshot's row set,
    outright — or, with *columnar*, views the snapshot's column buffers
    and the weight column built beside them
    (:meth:`Database.weighted_columnar`), when the semiring's values can
    ride one.
    """
    snap, names, selected = resolve_atom(atom, db)
    if selected is None and columnar:
        weighted = db.weighted_columnar(atom.predicate, semiring)
        if weighted is not None:
            return weighted.relabel(names, str(atom))
    lifted = db.annotations(atom.predicate, semiring)
    if selected is None:
        return AnnotatedRelation.make(
            names, snap.rows, str(atom), semiring, lifted
        )
    annotations = {bound: lifted[base] for bound, base in selected}
    return AnnotatedRelation.make(
        names, frozenset(annotations), str(atom), semiring, annotations
    )
