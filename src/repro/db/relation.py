"""Relations and the carrier protocol (paper §2.1).

A relation instance is a finite set of tuples over a named schema.  For
query evaluation the attribute names are query-variable names, so natural
join / semijoin operate positionally on shared variables — exactly the
"common variables acting as join attributes" convention of Lemma 4.6.

**The carrier protocol.**  The paper's evaluation route — Lemma 4.6
bags, then Yannakakis (Theorems 4.7 / 4.8) — needs three operators on a
node relation: semijoin, join, projection.  The list below is the whole
contract of a relation carrier, stated here and nowhere else.  Three
carriers implement it — :class:`Relation` (a ``frozenset`` of row
tuples), :class:`~repro.db.annotated.AnnotatedRelation` (rows plus a
semiring value each) and :class:`~repro.db.columnar.ColumnarRelation`
(column buffers, optionally a weight column) — and none has a public
method outside it; ``tests/db/test_carrier_protocol.py`` runs every
operator on every carrier and checks that no other surface grows back.

*Operands* — what the operators of :mod:`repro.db.yannakakis` (the
sweeps, and ``Bag.run``, a node's bag pipeline) ask of any carrier, in
any mix (what a mixed pair does is the operands' business):

* ``attributes``, ``name``, ``len``, ``bool``, iteration and ``rows`` —
  the schema and the tuples;
* ``semijoin(other)`` — ⋉: the rows with a join partner in *other*.
  Never grows, returns the receiver itself when nothing is filtered,
  and reads of *other* only ``bool`` and ``attributes`` before handing
  it to the receiver's probe hook (``_semijoin_probe``, under *Kernels*),
  which by default asks it for nothing but ``key_set``;
* ``join(other, name=None)`` — natural join ⋈ on the shared attribute
  names; the schema is the receiver's attributes, then the partner's
  others.  Annotations multiply with ``times``;
* ``project(attributes, name=None)`` — π; collapsed rows deduplicate,
  their annotations fold with ``plus``;
* ``key_set(attributes)`` — the distinct key values over *attributes*
  (the bare value for one attribute, the value tuple otherwise),
  memoised per instance: the probe set of a semijoin.

*Kernels* — what the operators above are built from, and what atom
binding uses:

* ``_semijoin_probe(shared, other)`` — the last line of ``semijoin``:
  filter the receiver against the *partner*, both non-empty, *shared*
  non-empty.  The default is ``semijoin_with_keys(shared,
  other.key_set(shared))`` and works against any operand; a columnar
  receiver answers a columnar partner column-against-column instead
  (no key set is built) and reads its ``columns``;
* ``semijoin_with_keys(shared, keys)`` — the semijoin probe against a
  prebuilt key set;
* ``relabel(attributes, name)`` — the same tuples under another schema,
  sharing storage (how an atom views a base relation);
* ``_no_rows(attributes, name)`` — the empty relation of the receiver's
  own flavour, what every operator's empty short-circuit returns;
* ``key_index(attributes)``, ``column(attribute)``, ``arity`` — the
  memoised build table of a hash join, one column's values, the width;
* ``_rank`` and ``_probe_join`` — operand precedence: the higher-ranked
  side of a join brings the probe kernel and the result's flavour (a
  non-zero rank is also how the sweep tells an operand carrying values);
* ``__reduce__`` — a carrier pickles as a call to its own trusted
  constructor on its fields, so memoised structures never travel.

*Constructors*: ``trusted`` / ``from_rows`` / ``empty`` here, ``make`` /
``lift`` / ``unit`` on the annotated and columnar classes.  *Annotated
answers* (a carrier whose rows carry semiring values) expose
``semiring``, ``annotations``, ``annotation(row)``, ``total()`` and
``strip()``; a weighted columnar relation also converts with
``annotated()`` and, weighted or not, with ``row_relation()``.

The row carrier below is a straightforward set-of-tuples engine with
hash joins, deliberately simple and fully observable: the evaluation
strategies record intermediate sizes after every operation, which is how
experiments E15/E16 reproduce the paper's "semijoins keep intermediates
small" claims.  Relations are immutable, so the hash structures a join
or semijoin needs are *memoised per instance* and reused across the
bottom-up and top-down sweeps (a relation acting as the filter of
several semijoins — a star root, or the same tree edge in both sweeps —
would otherwise rebuild the identical structure on every call).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Sequence

from .._errors import SchemaError, UnknownAttributeError

Row = tuple
Value = Hashable


@dataclass(frozen=True)
class Relation:
    """An immutable named relation: schema + set of rows.

    Attributes
    ----------
    attributes:
        Ordered attribute names; must be distinct.
    rows:
        The tuples, each of length ``len(attributes)``.
    name:
        Optional display name.
    """

    attributes: tuple[str, ...]
    rows: frozenset[Row]
    name: str = "r"

    #: Operand precedence.  The higher-ranked operand of a join brings
    #: the probe kernel and the flavour of the result, so what a richer
    #: partner carries is never dropped by a plainer receiver: row and
    #: columnar relations rank 0, a columnar relation with a weight
    #: column 1, annotated ones 2.
    _rank = 0

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attributes "
                f"{self.attributes}"
            )
        width = len(self.attributes)
        for row in self.rows:
            if len(row) != width:
                raise SchemaError(
                    f"row {row!r} does not match schema {self.attributes} "
                    f"of relation {self.name!r}"
                )

    # -- constructors -----------------------------------------------------
    @staticmethod
    def trusted(
        attributes: tuple[str, ...], rows: frozenset[Row], name: str = "r"
    ) -> "Relation":
        """Construct without re-validating rows (hot-path constructor).

        Every relational-algebra operation below produces rows that match
        its output schema *by construction*, so re-running the
        ``__post_init__`` width check over each result row — once per
        join/semijoin/projection in a Yannakakis pass — is pure overhead.
        Arguments must already be a ``tuple`` and a ``frozenset`` of
        correctly sized tuples; external data should keep entering through
        :meth:`from_rows`, which validates.
        """
        rel = object.__new__(Relation)
        object.__setattr__(rel, "attributes", attributes)
        object.__setattr__(rel, "rows", rows)
        object.__setattr__(rel, "name", name)
        return rel

    @staticmethod
    def from_rows(
        attributes: Sequence[str], rows: Iterable[Sequence[Value]], name: str = "r"
    ) -> "Relation":
        return Relation(
            tuple(attributes), frozenset(tuple(r) for r in rows), name
        )

    @staticmethod
    def empty(attributes: Sequence[str], name: str = "r") -> "Relation":
        return Relation(tuple(attributes), frozenset(), name)

    # Subclasses store the same logical relation differently (columnar
    # buffers, a versioned base-relation snapshot), so equality is by
    # contents, not by class.
    def __eq__(self, other) -> bool:
        if isinstance(other, Relation):
            return (
                self.attributes == other.attributes
                and self.name == other.name
                and self.rows == other.rows
            )
        return NotImplemented

    def __reduce__(self):
        # Fields only: the memoised hash structures in ``__dict__`` are
        # orders of magnitude larger than the rows and rebuild (and
        # re-memoise) on the other side.  A subclass that adds no fields
        # of its own (a database snapshot) arrives as a plain relation.
        return Relation.trusted, (self.attributes, self.rows, self.name)

    def _no_rows(self, attributes: tuple[str, ...], name: str) -> "Relation":
        """The empty relation over *attributes* in the receiver's own
        flavour — what every operator's empty short-circuit returns, so
        an empty partner never changes the kind of relation handed on."""
        return Relation.trusted(attributes, frozenset(), name)

    # -- views --------------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.attributes)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @cached_property
    def _index_of(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.attributes)}

    def column(self, attribute: str) -> set[Value]:
        i = self._position(attribute)
        return {row[i] for row in self.rows}

    def _position(self, attribute: str) -> int:
        try:
            return self._index_of[attribute]
        except KeyError:
            raise UnknownAttributeError(
                f"attribute {attribute!r} not in schema {self.attributes} "
                f"of relation {self.name!r}"
            ) from None

    # -- memoised hash structures -------------------------------------------
    #
    # Keyed by the attribute tuple; a single attribute keys by the bare
    # value (no 1-tuple allocation per row), longer tuples by the value
    # tuple.  Instances are immutable, so entries never invalidate; under
    # concurrent use two threads may compute the same entry, which is
    # harmless (the structures are idempotent and the dict write is
    # atomic under the GIL).

    @cached_property
    def _key_sets(self) -> dict[tuple[str, ...], frozenset]:
        return {}

    @cached_property
    def _key_indexes(self) -> dict[tuple[str, ...], dict]:
        return {}

    def key_set(self, attributes: tuple[str, ...]) -> frozenset:
        """The set of key values over *attributes*, built once per
        relation instance (the probe set of a semijoin)."""
        cached = self._key_sets.get(attributes)
        if cached is None:
            if len(attributes) == 1:
                i = self._position(attributes[0])
                cached = frozenset(row[i] for row in self.rows)
            else:
                positions = [self._position(a) for a in attributes]
                cached = frozenset(
                    tuple(row[p] for p in positions) for row in self.rows
                )
            self._key_sets[attributes] = cached
        return cached

    def key_index(self, attributes: tuple[str, ...]) -> dict:
        """Key value -> list of rows, built once per relation instance
        (the build table of a hash join).  Treat the lists as frozen:
        the index is shared by every later join against this relation.
        """
        cached = self._key_indexes.get(attributes)
        if cached is None:
            cached = {}
            if len(attributes) == 1:
                i = self._position(attributes[0])
                for row in self.rows:
                    cached.setdefault(row[i], []).append(row)
            else:
                positions = [self._position(a) for a in attributes]
                for row in self.rows:
                    cached.setdefault(
                        tuple(row[p] for p in positions), []
                    ).append(row)
            self._key_indexes[attributes] = cached
        return cached

    # -- relational algebra --------------------------------------------------
    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """π over the given attributes (duplicates removed by the set)."""
        # The attribute list is caller-supplied, so the schema check of
        # the validating constructor must not be skipped (rows, however,
        # are correct by construction).
        if len(set(attributes)) != len(attributes):
            raise SchemaError(
                f"projection onto duplicate attributes {tuple(attributes)}"
            )
        positions = [self._position(a) for a in attributes]
        # Short projections dominate the enumeration pass; direct tuple
        # construction avoids one generator frame per row.
        if positions == list(range(self.arity)):
            rows = self.rows  # identity projection shares the row set
        elif len(positions) == 1:
            p0 = positions[0]
            rows = frozenset((row[p0],) for row in self.rows)
        elif len(positions) == 2:
            p0, p1 = positions
            rows = frozenset((row[p0], row[p1]) for row in self.rows)
        elif len(positions) == 3:
            p0, p1, p2 = positions
            rows = frozenset(
                (row[p0], row[p1], row[p2]) for row in self.rows
            )
        else:
            rows = frozenset(
                tuple(row[p] for p in positions) for row in self.rows
            )
        return Relation.trusted(tuple(attributes), rows, name or self.name)

    def relabel(self, attributes: tuple[str, ...], name: str) -> "Relation":
        """The same tuples under a new schema and name, sharing storage
        (how an atom over distinct variables views a base relation).
        *attributes* must be distinct and match the arity."""
        return Relation.trusted(attributes, self.rows, name)

    def join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join ⋈ on shared attribute names (hash join).

        The result schema is this relation's attributes followed by the
        other's non-shared attributes, matching textbook natural join.
        The build-side hash table comes from :meth:`key_index`, so joining
        repeatedly against the same relation reuses one table.
        """
        top = other if other._rank > self._rank else self
        shared = tuple(a for a in self.attributes if a in other._index_of)
        extra = [a for a in other.attributes if a not in self._index_of]
        out_attrs = self.attributes + tuple(extra)
        out_name = name or f"({self.name}⋈{other.name})"
        if not self.rows or not other.rows:
            # Empty-input short-circuit: no hash table, no probe scan.
            return top._no_rows(out_attrs, out_name)
        extra_pos = [other._position(a) for a in extra]

        # Build (memoised) on the smaller side, probe the larger.
        if len(self.rows) <= len(other.rows):
            build, probe, build_is_left = self, other, True
        else:
            build, probe, build_is_left = other, self, False
        return top._probe_join(
            build, probe, build_is_left, shared, extra_pos, out_attrs, out_name
        )

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ⋉: keep rows with a join partner in *other*.

        This is the workhorse of Yannakakis' algorithm — it never grows
        the relation, which is why acyclic evaluation stays polynomial.
        An empty input on either side short-circuits without scanning,
        and a semijoin that filters nothing returns ``self`` itself so
        downstream operations keep its memoised hash structures.  Written
        once for every single-piece carrier: what differs between them
        is the probe, :meth:`_semijoin_probe`.
        """
        if not self:
            return self
        if not other:
            # ⋉ against the empty relation is empty regardless of the
            # schemas (with no shared attributes it is a product with
            # nothing) — and must not scan the rows to find that out.
            return self._no_rows(self.attributes, self.name)
        shared = tuple(a for a in self.attributes if a in other.attributes)
        if not shared:
            # Every row has a partner: identity (other is non-empty).
            return self
        return self._semijoin_probe(shared, other)

    def _semijoin_probe(
        self, shared: tuple[str, ...], other: "Relation"
    ) -> "Relation":
        """Filter against the partner itself (both sides non-empty,
        *shared* non-empty).  The probe set over the shared attributes
        is memoised on *other* (:meth:`key_set`) and nothing else of it
        is read, so the partner may be any carrier."""
        return self.semijoin_with_keys(shared, other.key_set(shared))

    def semijoin_with_keys(
        self, shared: tuple[str, ...], keys: frozenset
    ) -> "Relation":
        """Filter against a prebuilt key set over *shared* — the probe
        loop behind :meth:`semijoin`.  Key convention matches
        :meth:`key_set`: a single attribute keys by the bare value,
        longer tuples by the value tuple.  Returns ``self`` when nothing
        is filtered, keeping its memoised hash structures alive."""
        if not self.rows:
            return self
        if len(shared) == 1:
            i = self._index_of[shared[0]]
            rows = frozenset(row for row in self.rows if row[i] in keys)
        else:
            pos = [self._index_of[a] for a in shared]
            rows = frozenset(
                row for row in self.rows if tuple(row[p] for p in pos) in keys
            )
        if len(rows) == len(self.rows):
            return self
        return Relation.trusted(self.attributes, rows, self.name)

    # -- rendering -------------------------------------------------------------
    def __str__(self) -> str:
        header = ", ".join(self.attributes)
        shown = sorted(self.rows)[:8]
        body = "; ".join(str(r) for r in shown)
        suffix = " ..." if len(self.rows) > 8 else ""
        return f"{self.name}({header}) [{len(self.rows)} rows: {body}{suffix}]"


def probe_join(
    build: Relation,
    probe: Relation,
    build_is_left: bool,
    shared: tuple[str, ...],
    extra_pos: Sequence[int],
    out_attrs: tuple[str, ...],
    name: str,
) -> Relation:
    """The hash-join probe loop over an explicit build/probe assignment.

    ``build``'s table comes from its memoised :meth:`Relation.key_index`,
    so a relation probed by many partners pays for the table once.
    ``build_is_left`` says which side contributes the row prefix of the
    output (``out_attrs`` = left attributes + right extras,
    ``extra_pos`` indexes the extras on the right side).  The inner loop
    runs once per matched pair; no shape of extras runs a Python-level
    generator per match.
    """
    table = build.key_index(shared)
    single = len(shared) == 1
    probe_pos = [probe._position(a) for a in shared]
    probe_single = probe_pos[0] if single else None

    out_rows: set[Row] = set()
    add = out_rows.add
    get = table.get
    e0 = extra_pos[0] if len(extra_pos) == 1 else None
    # Two or more extras: itemgetter then returns the tuple to append.
    pick = itemgetter(*extra_pos) if len(extra_pos) > 1 else None
    for row in probe.rows:
        key = (
            row[probe_single]
            if single
            else tuple(row[p] for p in probe_pos)
        )
        matches = get(key)
        if not matches:
            continue
        if not extra_pos:
            if build_is_left:
                for match in matches:
                    add(match)
            else:
                add(row)
        elif e0 is not None:
            if build_is_left:
                e = row[e0]
                for match in matches:
                    add(match + (e,))
            else:
                for match in matches:
                    add(row + (match[e0],))
        elif build_is_left:
            extras = pick(row)  # the probe row's, once for all its matches
            for match in matches:
                add(match + extras)
        else:
            for match in matches:
                add(row + pick(match))
    return Relation.trusted(out_attrs, frozenset(out_rows), name)


#: The build/probe kernel an operand brings to a join (see ``_rank``);
#: subclasses install their own.
Relation._probe_join = staticmethod(probe_join)
