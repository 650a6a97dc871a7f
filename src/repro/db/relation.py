"""Relations and relational-algebra operations (paper §2.1).

A relation instance is a finite set of tuples over a named schema.  For
query evaluation the attribute names are query-variable names, so natural
join / semijoin operate positionally on shared variables — exactly the
"common variables acting as join attributes" convention of Lemma 4.6.

The implementation is a straightforward set-of-tuples engine with hash
joins.  It is deliberately simple and fully observable: the evaluation
strategies in :mod:`repro.db.yannakakis` and :mod:`repro.db.evaluate`
record intermediate sizes after every operation, which is how experiments
E15/E16 reproduce the paper's "semijoins keep intermediates small" claims.

Relations are immutable, so the hash structures a join or semijoin needs
are *memoised per instance*: :meth:`Relation.key_set` and
:meth:`Relation.key_index` build the probe set / build table for a given
attribute tuple once and reuse it across the bottom-up and top-down
Yannakakis sweeps (a relation acting as the filter of several semijoins —
a star root, or the same tree edge in both sweeps — used to rebuild the
identical hash structure on every call).  A semijoin that filters nothing
returns ``self`` unchanged, keeping those memoised structures alive for
the next pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

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
    #: A relation held in one piece is one shard.
    n_shards = 1

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

    def _no_rows(self, attributes: tuple[str, ...], name: str) -> "Relation":
        """The empty relation over *attributes* in the receiver's own
        flavour — what every operator's empty short-circuit returns, so
        an empty partner never changes the kind of relation handed on."""
        return Relation.trusted(attributes, frozenset(), name)

    # -- views --------------------------------------------------------------
    def to_relation(self) -> "Relation":
        """This operand as one process-local relation: itself.  (A
        sharded operand coalesces its pieces here.)"""
        return self

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

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Relation":
        """ρ: rename attributes according to *mapping* (others unchanged)."""
        new_attrs = tuple(mapping.get(a, a) for a in self.attributes)
        # Validating constructor on purpose: a non-injective mapping can
        # collapse two attributes into one, which must raise.
        return Relation(new_attrs, self.rows, name or self.name)

    def select(
        self, predicate: Callable[[dict[str, Value]], bool], name: str | None = None
    ) -> "Relation":
        """σ with an arbitrary row predicate over attribute→value dicts."""
        attrs = self.attributes
        rows = frozenset(
            row for row in self.rows if predicate(dict(zip(attrs, row)))
        )
        return Relation.trusted(attrs, rows, name or self.name)

    def select_eq(self, attribute: str, value: Value) -> "Relation":
        """σ attribute = constant."""
        i = self._position(attribute)
        return Relation.trusted(
            self.attributes,
            frozenset(row for row in self.rows if row[i] == value),
            self.name,
        )

    def join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Natural join ⋈ on shared attribute names (hash join).

        The result schema is this relation's attributes followed by the
        other's non-shared attributes, matching textbook natural join.
        The build-side hash table comes from :meth:`key_index`, so joining
        repeatedly against the same relation reuses one table.
        """
        other = other.to_relation()  # a sharded partner joins coalesced
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
        The probe set over the shared attributes is memoised on *other*
        (:meth:`key_set`), an empty input on either side short-circuits
        without scanning, and a semijoin that filters nothing returns
        ``self`` itself so downstream operations keep its memoised hash
        structures.  Of *other* only ``bool``, ``attributes`` and
        ``key_set`` are used, so the partner may be sharded.
        """
        if not other:
            # ⋉ against the empty relation is empty regardless of the
            # schemas (with no shared attributes it is a product with
            # nothing) — and must not scan self.rows to find that out.
            return self._no_rows(self.attributes, self.name)
        if not self.rows:
            return self
        shared = tuple(a for a in self.attributes if a in other.attributes)
        if not shared:
            # Every row has a partner: identity (other is non-empty).
            return self
        return semijoin_with_keys(self, shared, other.key_set(shared))

    def semijoin_with_keys(
        self, shared: tuple[str, ...], keys: frozenset
    ) -> "Relation":
        """Filter against a prebuilt key set (method form, so annotated
        subclasses can carry their annotations through the broadcast
        semijoin of the sharded kernel)."""
        return semijoin_with_keys(self, shared, keys)

    def union(self, other: "Relation") -> "Relation":
        if self.attributes != other.attributes:
            raise SchemaError(
                f"union of incompatible schemas {self.attributes} and "
                f"{other.attributes}"
            )
        return Relation.trusted(self.attributes, self.rows | other.rows, self.name)

    def intersect(self, other: "Relation") -> "Relation":
        if self.attributes != other.attributes:
            raise SchemaError(
                f"intersection of incompatible schemas {self.attributes} and "
                f"{other.attributes}"
            )
        return Relation.trusted(self.attributes, self.rows & other.rows, self.name)

    def difference(self, other: "Relation") -> "Relation":
        if self.attributes != other.attributes:
            raise SchemaError(
                f"difference of incompatible schemas {self.attributes} and "
                f"{other.attributes}"
            )
        return Relation.trusted(self.attributes, self.rows - other.rows, self.name)

    def reorder(self, attributes: Sequence[str]) -> "Relation":
        """Permute columns into the given attribute order (must be a
        permutation of the schema)."""
        if set(attributes) != set(self.attributes) or len(attributes) != self.arity:
            raise SchemaError(
                f"{attributes} is not a permutation of {self.attributes}"
            )
        return self.project(attributes)

    # -- rendering -------------------------------------------------------------
    def __str__(self) -> str:
        header = ", ".join(self.attributes)
        shown = sorted(self.rows)[:8]
        body = "; ".join(str(r) for r in shown)
        suffix = " ..." if len(self.rows) > 8 else ""
        return f"{self.name}({header}) [{len(self.rows)} rows: {body}{suffix}]"


def semijoin_with_keys(
    rel: Relation, shared: tuple[str, ...], keys: frozenset
) -> Relation:
    """Filter *rel* against a prebuilt key set over *shared*.

    The probe loop behind :meth:`Relation.semijoin`, shared with the
    sharded kernel's broadcast mode (every shard against one key set
    built for all of them).  Key convention matches
    :meth:`Relation.key_set`: a single attribute keys by the bare value,
    longer tuples by the value tuple.  Returns ``rel`` itself when
    nothing is filtered, keeping its memoised hash structures alive.
    """
    if not rel.rows:
        return rel
    if len(shared) == 1:
        i = rel._index_of[shared[0]]
        rows = frozenset(row for row in rel.rows if row[i] in keys)
    else:
        pos = [rel._index_of[a] for a in shared]
        rows = frozenset(
            row for row in rel.rows if tuple(row[p] for p in pos) in keys
        )
    if len(rows) == len(rel.rows):
        return rel
    return Relation.trusted(rel.attributes, rows, rel.name)


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
    so a relation probed by many partners — the broadcast mode of the
    sharded kernel, where every shard probes the same un-co-partitioned
    partner — pays for the table once.  ``build_is_left`` says which side
    contributes the row prefix of the output (``out_attrs`` = left
    attributes + right extras, ``extra_pos`` indexes the extras on the
    right side).  The inner loop runs once per matched pair; no shape
    of extras runs a Python-level generator per match.
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
