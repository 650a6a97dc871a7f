"""Hash-partitioned relations: the sharded operand of the Yannakakis driver.

A :class:`ShardedRelation` splits a relation's rows into ``n`` shards by
hashing one *shard key* attribute.  Because a natural join or semijoin on
a shared attribute only matches rows agreeing on that attribute, two
relations sharded on the same key admit *partition-wise* operation: shard
``i`` interacts with shard ``i`` alone — no cross-shard communication,
which is what makes the evaluation side of Yannakakis' algorithm
embarrassingly parallel.  When the partner is not co-sharded the
operations fall back to *broadcast* mode (every shard against the
partner's one memoised key set / hash table), which is still correct and
still fans shard-wise over the execution backend.

Two properties of the partitioning matter beyond speed:

* **Determinism** — rows are placed with :func:`stable_hash`, not the
  builtin ``hash``: per-process ``PYTHONHASHSEED`` randomisation makes
  string hashes disagree between worker processes, which would silently
  break partition-wise joins under the process backend.  The stable hash
  agrees wherever builtin equality does (``2 == 2.0 == True`` land
  together), so equal join keys always meet in the same shard.
* **Skew** — hash partitioning degrades when one join-key value
  dominates.  :meth:`ShardedRelation.shard` detects heavy hitters
  (frequency above ``rows / n_shards * skew_factor``), spreads their
  rows round-robin across all shards for balance, and records them in
  :attr:`ShardedRelation.heavy`.  A relation with spread keys is never
  treated as partition-wise aligned: its operations run in broadcast
  mode (the probe side checks the partner's *full* memoised structure),
  which is the correctness fix-up that makes the spread sound.

A sharded relation is cut with an
:class:`~repro.db.backend.ExecutionContext` and keeps it: every operator
fans its shard tasks over that context, and so does every relation
derived from it.  The class answers the operand half of the carrier
protocol (:mod:`repro.db.relation`) with exactly :class:`Relation`'s
signatures, so the Yannakakis driver in :mod:`repro.db.yannakakis`
sweeps plain and sharded operands alike —
:func:`shard_relations` is what makes some of a join tree's relations
sharded.  Under a :class:`~repro.db.backend.ProcessBackend` the shard
pieces are :class:`~repro.db.backend.RemoteShard` handles resident in
worker processes — operators route to the owning worker, results stay
resident, and rows only return to the parent on
:meth:`ShardedRelation.to_relation`.  Semantics are identical to the
:class:`Relation` operations in every mode, which
``tests/db/test_carrier_protocol.py`` and the property suite in
``tests/db/test_parallel_equivalence.py`` enforce backend by backend
and shard-count by shard-count.
"""

from __future__ import annotations

import zlib
from typing import Iterator, Mapping, Sequence

from .._errors import SchemaError
from ..core.atoms import Atom
from ..core.jointree import JoinTree
from ..obs import get_registry
from .annotated import AnnotatedRelation
from .backend import SEQUENTIAL, ExecutionContext, RemoteShard
from .columnar import ColumnarRelation, partition_columnar
from .relation import Relation, Row, Value


def stable_hash(value: Value) -> int:
    """A hash that agrees across processes wherever ``==`` does.

    Builtin ``hash`` randomises ``str``/``bytes`` per process (via
    ``PYTHONHASHSEED``), so it cannot place rows when shards live in
    different workers.  Strings and bytes hash through ``zlib.crc32`` of
    their canonical byte encoding; tuples combine their elements'
    stable hashes; every other builtin scalar (``int``, ``float``,
    ``bool``, ``None``, …) keeps its builtin hash, which CPython defines
    deterministically and consistently across numeric types
    (``hash(2) == hash(2.0) == hash(True)``), preserving the invariant
    that equal values land in equal shards.
    """
    kind = type(value)
    if kind is str:
        return zlib.crc32(value.encode("utf-8"))
    if kind is bytes:
        return zlib.crc32(value)
    if kind is tuple:
        acc = 0x345678
        for item in value:
            acc = ((acc * 1000003) ^ stable_hash(item)) & 0xFFFFFFFF
        return acc
    return hash(value)


def shard_of(value: Value, n_shards: int) -> int:
    """The shard owning *value* — stable across worker processes."""
    return stable_hash(value) % n_shards


#: A key value is a heavy hitter when its row count exceeds
#: ``rows / n_shards * DEFAULT_SKEW_FACTOR`` — i.e. its rows alone would
#: make some shard more than ``DEFAULT_SKEW_FACTOR`` times the average.
DEFAULT_SKEW_FACTOR = 2.0


class ShardedRelation:
    """An immutable relation hash-partitioned on one key attribute.

    Attributes
    ----------
    attributes:
        The schema, shared by every shard.
    key:
        The attribute whose stable hash assigns each row to a shard.
    shards:
        ``n`` disjoint pieces — plain :class:`Relation` objects, or
        :class:`~repro.db.backend.RemoteShard` handles when the pieces
        live in process-backend workers.  Row ``t`` lives in shard
        ``stable_hash(t[key]) % n`` unless ``t[key]`` is a recorded
        heavy hitter, whose rows are spread round-robin.
    heavy:
        The heavy-hitter key values whose rows were spread (empty for a
        clean hash partition).  Non-empty disables partition-wise
        alignment — operations fall back to broadcast mode.
    context:
        The :class:`~repro.db.backend.ExecutionContext` the relation was
        cut with: its operators run there, and it owns any remote
        pieces.
    """

    __slots__ = (
        "attributes", "key", "shards", "name", "heavy", "context",
        "_key_sets", "_merged",
    )

    def __init__(
        self,
        attributes: tuple[str, ...],
        key: str,
        shards: tuple,
        name: str = "r",
        heavy: frozenset = frozenset(),
        context: ExecutionContext = SEQUENTIAL,
    ):
        if key not in attributes:
            raise SchemaError(
                f"shard key {key!r} not in schema {attributes} of "
                f"sharded relation {name!r}"
            )
        if not shards:
            raise SchemaError(f"sharded relation {name!r} needs >= 1 shard")
        self.attributes = attributes
        self.key = key
        self.shards = shards
        self.name = name
        self.heavy = heavy
        self.context = context
        self._key_sets: dict[tuple[str, ...], frozenset] = {}
        self._merged: Relation | None = None

    # -- constructors -----------------------------------------------------
    @staticmethod
    def shard(
        relation: Relation,
        key: str,
        n_shards: int,
        backend: ExecutionContext = SEQUENTIAL,
        skew_factor: float = DEFAULT_SKEW_FACTOR,
    ) -> "ShardedRelation":
        """Partition *relation* on *key* into *n_shards* pieces.

        Placement uses :func:`stable_hash` so every process agrees.  If
        any shard overflows ``rows / n_shards * skew_factor`` rows, the
        key values responsible (the heavy hitters) are spread round-robin
        across all shards and recorded in :attr:`heavy` — the skew guard.
        The detection is two-phase so the common unskewed case pays one
        ``max`` over bucket sizes, not a value-frequency count.

        The result runs its operators on *backend*.  With a process
        backend the freshly cut shards are scattered to their owner
        workers immediately and the returned relation holds
        :class:`~repro.db.backend.RemoteShard` handles.
        """
        if n_shards < 1:
            raise SchemaError(f"n_shards must be >= 1, got {n_shards}")
        i = relation._position(key)
        if n_shards == 1:
            # One shard is the relation itself — keeps its memoised
            # hash structures alive.
            return ShardedRelation(
                relation.attributes, key, (relation,), relation.name,
                context=backend,
            )
        if isinstance(relation, ColumnarRelation):
            # Columnar partition kernel: selection vectors per shard,
            # dictionary keys hashed once per pool entry, buffers
            # carved without materialising row tuples.
            pieces, heavy = partition_columnar(
                relation, i, n_shards, stable_hash, skew_factor
            )
            if heavy:
                registry = get_registry()
                registry.counter("shard.skew_guard_activations").inc()
                registry.counter("shard.heavy_hitters").inc(len(heavy))
            return ShardedRelation(
                relation.attributes, key, _resident(pieces, relation, backend),
                relation.name, heavy=heavy, context=backend,
            )
        buckets: list[list[Row]] = [[] for _ in range(n_shards)]
        appends = [b.append for b in buckets]
        _hash = stable_hash
        for row in relation.rows:
            appends[_hash(row[i]) % n_shards](row)
        heavy: frozenset = frozenset()
        threshold = skew_factor * len(relation.rows) / n_shards
        if relation.rows and max(len(b) for b in buckets) > threshold:
            heavy = _heavy_hitters(buckets, i, threshold)
            if heavy:
                get_registry().counter(
                    "shard.skew_guard_activations"
                ).inc()
                get_registry().counter("shard.heavy_hitters").inc(
                    len(heavy)
                )
                buckets = _spread_heavy(
                    relation.rows, i, heavy, n_shards
                )
        annotations = getattr(relation, "annotations", None)
        if annotations is not None:
            # Annotated input: each piece carves out its rows' slice of
            # the annotation map (rows partition, so slices are disjoint
            # and gather's plus-merge is a plain dict union).
            shards: tuple = tuple(
                AnnotatedRelation.make(
                    relation.attributes,
                    frozenset(b),
                    relation.name,
                    relation.semiring,
                    {row: annotations[row] for row in b},
                )
                for b in buckets
            )
        else:
            shards = tuple(
                Relation.trusted(
                    relation.attributes, frozenset(b), relation.name
                )
                for b in buckets
            )
        return ShardedRelation(
            relation.attributes, key, _resident(shards, relation, backend),
            relation.name, heavy=heavy, context=backend,
        )

    # -- views ------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def __bool__(self) -> bool:
        return any(bool(s) for s in self.shards)

    def __iter__(self) -> Iterator[Row]:
        if any(isinstance(s, RemoteShard) for s in self.shards):
            yield from self.to_relation().rows
            return
        for shard in self.shards:
            yield from shard.rows

    @property
    def rows(self) -> frozenset[Row]:
        return self.to_relation().rows

    def to_relation(self) -> Relation:
        """Coalesce the shards back into one plain relation (memoised).
        For worker-resident shards this is the *gather* point — the one
        place rows travel back to the parent."""
        if self._merged is None:
            if len(self.shards) == 1 and isinstance(self.shards[0], Relation):
                self._merged = self.shards[0]
            else:
                self._merged = self.context.gather(
                    self.shards, self.attributes, self.name
                )
        return self._merged

    def key_set(self, attributes: tuple[str, ...]) -> frozenset:
        """Union of the shards' memoised key sets over *attributes*.
        Computed worker-side for resident shards (only the key values
        cross the process boundary, never the rows)."""
        cached = self._key_sets.get(attributes)
        if cached is None:
            if any(isinstance(s, RemoteShard) for s in self.shards):
                sets = self.context.map_shards(
                    "key_set", [(s, attributes) for s in self.shards]
                )
            else:
                sets = [s.key_set(attributes) for s in self.shards]
            cached = frozenset().union(*sets)
            self._key_sets[attributes] = cached
        return cached

    def _aligned_with(
        self, other: "ShardedRelation | Relation", shared: tuple[str, ...]
    ) -> bool:
        """Partition-wise operation is sound iff both sides are sharded
        on the same number of shards by the same *shared* key — and
        neither side spread heavy-hitter rows off their hash shard."""
        return (
            isinstance(other, ShardedRelation)
            and other.key == self.key
            and other.n_shards == self.n_shards
            and self.key in shared
            and not self.heavy
            and not other.heavy
        )

    def _rebuild(self, shards: list) -> "ShardedRelation":
        if all(new is old for new, old in zip(shards, self.shards)):
            return self
        return ShardedRelation(
            self.attributes, self.key, tuple(shards), self.name,
            heavy=self.heavy, context=self.context,
        )

    # -- relational algebra ----------------------------------------------
    def semijoin(
        self, other: "ShardedRelation | Relation"
    ) -> "ShardedRelation":
        """⋉ shard-wise: pairwise against an aligned partner, otherwise
        every shard against the partner's one memoised key set (scattered
        to the workers at most once per partner)."""
        ctx = self.context
        keep = ctx.kind == "process"
        if not other:
            # Each piece empties itself where it lives, so the result
            # keeps the pieces' flavour (annotated, columnar, resident).
            nothing = Relation.trusted(
                other.attributes, frozenset(), other.name
            )
            tasks = [(shard, nothing) for shard in self.shards]
            shards = ctx.map_shards(
                "semijoin_pair", tasks, keep=keep,
                out_attributes=self.attributes, out_name=self.name,
            )
            return self._rebuild(shards)
        shared = tuple(a for a in self.attributes if a in other.attributes)
        if not shared:
            return self
        if self._aligned_with(other, shared):
            pairs = list(zip(self.shards, other.shards))
            shards = ctx.map_shards(
                "semijoin_pair", pairs, keep=keep,
                out_attributes=self.attributes, out_name=self.name,
            )
            return self._rebuild(shards)
        if not isinstance(other, ShardedRelation) and (
            ctx.prefers_relation_scatter(other)
        ):
            # Shm-eligible columnar partner: ship the relation itself
            # (zero-copy segment) and let each worker probe its column
            # buffers in place, instead of pickling a key set through
            # the queues.
            ref = ctx.scatter(other)
            tasks = [(shard, ref) for shard in self.shards]
            shards = ctx.map_shards(
                "semijoin_pair", tasks, keep=keep,
                out_attributes=self.attributes, out_name=self.name,
            )
            return self._rebuild(shards)
        keys = ctx.scatter(other.key_set(shared))
        tasks = [(shard, shared, keys) for shard in self.shards]
        shards = ctx.map_shards(
            "semijoin_keys", tasks, keep=keep,
            out_attributes=self.attributes, out_name=self.name,
        )
        return self._rebuild(shards)

    def join(
        self, other: "ShardedRelation | Relation", name: str | None = None
    ) -> "ShardedRelation":
        """⋈ shard-wise; the result stays sharded on this side's key
        (every output row extends one of this side's rows, so the key
        column — and with it the partition — is preserved)."""
        ctx = self.context
        keep = ctx.kind == "process"
        shared = tuple(a for a in self.attributes if a in other.attributes)
        here = set(self.attributes)
        extra = tuple(a for a in other.attributes if a not in here)
        out_attrs = self.attributes + extra
        out_name = name or f"({self.name}⋈{other.name})"
        if self._aligned_with(other, shared):
            pairs = [
                (left, right, name)
                for left, right in zip(self.shards, other.shards)
            ]
            shards = ctx.map_shards(
                "join_pair", pairs, keep=keep,
                out_attributes=out_attrs, out_name=out_name,
            )
        else:
            partner = other.to_relation()
            # Broadcast: every shard probes the partner's one memoised
            # hash table (building per-shard tables would redo the same
            # build n times and probe the full partner per shard).  The
            # partner ships to each worker at most once via scatter.
            extra_pos = tuple(partner._position(a) for a in extra)
            ref = ctx.scatter(partner)
            tasks = [
                (ref, shard, shared, extra_pos, out_attrs, out_name)
                for shard in self.shards
            ]
            shards = ctx.map_shards(
                "probe_join", tasks, keep=keep,
                out_attributes=out_attrs, out_name=out_name,
            )
        return ShardedRelation(
            out_attrs, self.key, tuple(shards), out_name,
            heavy=self.heavy, context=ctx,
        )

    def project(
        self, attributes: Sequence[str], name: str | None = None
    ) -> "ShardedRelation | Relation":
        """π shard-wise; the result stays sharded when the shard key
        survives (rows equal after projection then agree on the key, so
        they were in the same shard and shard-local dedup is global).
        Dropping the key — or projecting a relation with spread heavy
        hitters, whose equal-after-projection rows may straddle shards —
        still projects shard-wise, with the final union of the (smaller)
        projected shards performing the cross-shard dedup."""
        ctx = self.context
        attrs = tuple(attributes)
        out_name = name or self.name
        tasks = [(shard, attrs, name) for shard in self.shards]
        if self.key in attrs and not self.heavy:
            keep = ctx.kind == "process"
            shards = ctx.map_shards(
                "project", tasks, keep=keep,
                out_attributes=attrs, out_name=out_name,
            )
            return ShardedRelation(
                attrs, self.key, tuple(shards), out_name, context=ctx
            )
        projected = ctx.map_shards("project", tasks)
        return ctx.gather(projected, attrs, out_name)

    def __str__(self) -> str:
        sizes = ", ".join(str(len(s)) for s in self.shards)
        spread = f" heavy={len(self.heavy)}" if self.heavy else ""
        return (
            f"{self.name}({', '.join(self.attributes)}) "
            f"[{len(self)} rows @ {self.key}: {sizes}{spread}]"
        )


def _resident(
    pieces: tuple, relation: Relation, backend: ExecutionContext
) -> tuple:
    """Freshly cut *pieces* of *relation* where *backend* keeps shard
    data: scattered to their owner workers under the process backend,
    as they are otherwise."""
    if backend.kind != "process":
        return pieces
    return tuple(
        backend.map_shards(
            "identity",
            [(piece,) for piece in pieces],
            keep=True,
            out_attributes=relation.attributes,
            out_name=relation.name,
        )
    )


def _shard_key(
    tree: JoinTree, node: Atom, relation: Relation
) -> str | None:
    """The partition key for *node*'s relation: prefer an attribute shared
    with the parent (the bottom-up and top-down sweeps both run over the
    parent edge, so agreeing on it makes those semijoins pairwise), then
    one shared with a child, then any attribute; ``None`` for the 0-ary
    relation, which cannot be partitioned."""
    attrs = relation.attributes
    if not attrs:
        return None
    here = set(attrs)
    parent = tree.parent_of.get(node)
    neighbours = ([parent] if parent is not None else []) + list(
        tree.children(node)
    )
    for neighbour in neighbours:
        shared = sorted(
            here & {v.name for v in neighbour.variables}
        )
        if shared:
            return shared[0]
    return attrs[0]


def shard_relations(
    tree: JoinTree,
    relations: Mapping[Atom, Relation],
    shards: Mapping[Atom, int],
    ctx: ExecutionContext = SEQUENTIAL,
) -> dict[Atom, "ShardedRelation | Relation"]:
    """The relations of *tree*'s nodes, those assigned more than one
    shard cut into that many pieces on *ctx*.

    Nodes with one shard (or none listed) and 0-ary relations stay as
    they are — for the engine's cost-based policy that is the
    "partition overhead dominates below ~1k rows" rule made concrete.
    The result feeds :func:`repro.db.yannakakis.boolean_eval` /
    ``full_reduce`` / ``enumerate_answers`` unchanged: sharding is a
    property of an operand, not of the sweep."""
    out = dict(relations)
    for node, n in shards.items():
        key = _shard_key(tree, node, relations[node]) if n > 1 else None
        if key is not None:
            out[node] = ShardedRelation.shard(relations[node], key, n, ctx)
    return out


def _heavy_hitters(
    buckets: list[list[Row]], key_pos: int, threshold: float
) -> frozenset:
    """Key values whose row count alone exceeds *threshold*, counted
    only inside oversized buckets (a value's rows all share a bucket
    before spreading, so no heavy hitter can hide in a small one)."""
    heavy: set[Value] = set()
    for bucket in buckets:
        if len(bucket) <= threshold:
            continue
        counts: dict[Value, int] = {}
        for row in bucket:
            value = row[key_pos]
            counts[value] = counts.get(value, 0) + 1
        heavy.update(v for v, c in counts.items() if c > threshold)
    return frozenset(heavy)


def _spread_heavy(
    rows: frozenset[Row],
    key_pos: int,
    heavy: frozenset,
    n_shards: int,
) -> list[list[Row]]:
    """Re-bucket with heavy-hitter rows dealt round-robin for balance."""
    buckets: list[list[Row]] = [[] for _ in range(n_shards)]
    appends = [b.append for b in buckets]
    _hash = stable_hash
    spread = 0
    for row in rows:
        value = row[key_pos]
        if value in heavy:
            appends[spread % n_shards](row)
            spread += 1
        else:
            appends[_hash(value) % n_shards](row)
    return buckets
