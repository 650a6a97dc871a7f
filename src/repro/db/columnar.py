"""Columnar relations: contiguous column buffers + vectorised kernels.

The row engine in :mod:`repro.db.relation` stores a relation as a
``frozenset`` of Python tuples.  That representation is ideal for
set-semantics correctness but pays interpreter overhead per *row* in
every hot loop: a semijoin touches one tuple at a time and a projection
allocates one output tuple per input row.

:class:`ColumnarRelation` keeps the same logical contract — an immutable
named set of tuples, substitutable anywhere a
:class:`~repro.db.relation.Relation` is accepted — but stores each
column as one contiguous buffer:

* pure-``int`` columns as ``array('q')`` (machine int64),
* pure-``float`` columns as ``array('d')``,
* everything else dictionary-encoded: an ``array('q')`` of codes plus a
  tuple *pool* of the distinct values (the pool is shared, never
  re-encoded, across every derived relation).

The relational operators are rewritten as batch kernels over those
buffers: key sets build in one pass over a column, semijoins produce a
*selection vector* of surviving positions and gather each output column
in a single ``array(map(...))`` sweep, joins collect matched position
pairs and materialise output columns without ever allocating per-row
tuples, and dictionary columns get a pool-level fast path (membership
is decided once per *distinct* value, then rows are selected by integer
code).  Between two columnar relations a semijoin builds no key set at
all: the membership mask comes from the two sides' buffers, column
against column (:func:`_np_semijoin_mask`); the key set is for row
receivers, no-numpy builds and the pairs of columns only Python
equality can compare.

Row materialisation stays available (:attr:`ColumnarRelation.rows` is a
:class:`RowsView`: counting and iterating decode straight from the
buffers, anything that needs a hash table builds the ``frozenset`` once)
so inherited operations, equality and every existing consumer keep
working.

**Weight columns.**  A relation annotated over a semiring that declares
a vector form (:attr:`~repro.db.semiring.Semiring.vector` — counting,
the integer ring) carries its annotations as one more buffer,
:attr:`ColumnarRelation.weights`, aligned with the rows: a semijoin
filters it with the mask it already computed, a join multiplies the
matched pairs' weights, a projection ``plus``-folds the rows it
collapses with a segmented reduction over the sort that finds them.
:func:`rides_buffers` is the one place that says whether a semiring's
annotations can be such a column; the others (object carriers, float
folds whose result depends on order), and any build without numpy, stay
on :class:`~repro.db.annotated.AnnotatedRelation`.  Python ints are
unbounded and int64 is not, so a weighted relation also carries
:attr:`ColumnarRelation.bound`, an upper bound on the magnitude of its
weights: an operator whose result could reach ``2**63`` hands that
operand to the row carrier instead (:meth:`ColumnarRelation.annotated`)
and the sweep carries on with a mixed pair — never a wrapped count.
"""

from __future__ import annotations

from array import array
from collections.abc import Set
from functools import partial
from itertools import compress, repeat
from operator import is_not
from typing import Iterable, Iterator, Mapping, Sequence

from .._errors import SchemaError
from .annotated import AnnotatedRelation, annotated_probe_join
from .relation import Relation, Row, Value, probe_join
from .semiring import Semiring

try:  # Optional acceleration: zero-copy numpy views over the buffers.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is in the standard image
    _np = None

#: C-level "is not None" predicate for mask building.
_NOT_NONE = partial(is_not, None)

#: Valid layout policies for engines / plans.  ``row`` is the tuple
#: engine, ``columnar`` puts every bag of every plan in column buffers,
#: ``auto`` picks one of the two per *plan*: columnar when the largest
#: relation any of its pipelines touches is estimated at
#: :data:`COLUMNAR_MIN_ROWS` rows or more, row otherwise.
LAYOUTS = ("row", "columnar", "auto")

#: Environment variable selecting the default layout (CI runs the tier-1
#: suite once with ``REPRO_LAYOUT=columnar`` to exercise the columnar
#: kernels end to end).
LAYOUT_ENV_VAR = "REPRO_LAYOUT"

#: Under ``layout="auto"`` a plan is columnar when some relation its
#: pipelines touch reaches this many (estimated) rows.  No conversion is
#: being amortised — atoms view their snapshot's buffers and bags join
#: in them — so this is purely where a batch kernel's fixed cost per
#: call (a handful of numpy calls, ≈ 10 µs each) is repaid by the
#: interpreter steps per row it saves.  That is a measurement:
#: ``benchmarks/bench_columnar.py``'s crossover sweep (warm ``path3`` /
#: ``star3`` / ``triangle`` / ``path4`` requests at mean degree 1 and 2,
#: 10 → 10 000 rows per relation, row vs columnar), recorded in
#: ``benchmarks/baseline.json`` as ``columnar/layout.crossover.rows.*``
#: beside the per-size medians it was read from.  With numpy the mean
#: request crosses at ≈ 165 rows (row up to 1.8x faster at 10-60 rows,
#: columnar 1.8x at 500, 12x at 10 000) and the last operators, the
#: semijoin and the join, at ≈ 270-290, with single shapes still losing
#: at 250; on the pure-Python buffers the two layouts stay within 1.2x
#: of each other up to 2 000 rows and the mean crosses at ≈ 1 350.  The
#: constant is the power of two above the mean crossover of the kernels
#: that loaded — which is a fact about the deployment, not an option.
COLUMNAR_MIN_ROWS = 256 if _np is not None else 2048


def default_layout() -> str:
    """The layout engines use when none is chosen explicitly:
    ``$REPRO_LAYOUT`` when it names a valid layout, else ``auto``."""
    import os

    layout = os.environ.get(LAYOUT_ENV_VAR, "").strip().lower()
    return layout if layout in LAYOUTS else "auto"


_TYPECODE = {"i": "q", "f": "d", "o": "q"}
_NP_DTYPE = {"i": "int64", "f": "float64", "o": "int64"}
#: Column kind holding a semiring's declared vector dtype.
_WEIGHT_KIND = {"int64": "i", "float64": "f"}

#: What the magnitude of a weight must stay under to be exact in int64.
_WEIGHT_LIMIT = 1 << 63


def rides_buffers(semiring: Semiring | None) -> bool:
    """Whether annotations over *semiring* can be a weight column: it
    declares a vector form and numpy is here to run it.  Engines compile
    a semiring request with their layout policy when this says yes and
    as a row plan when it says no."""
    return (
        _np is not None
        and semiring is not None
        and semiring.vector is not None
    )


def _np_view(col: "Column"):
    """Zero-copy numpy view of a column buffer."""
    return _np.frombuffer(
        memoryview(col.data).cast("B"), dtype=_NP_DTYPE[col.kind]
    )


def _np_keys(keys, kind: str):
    """The key set as a numpy array matching the column dtype, or
    ``None`` when the keys are not homogeneously typed to match the
    column (heterogeneous sets keep Python equality semantics, so those
    fall back to the interpreter membership path)."""
    key_types = set(map(type, keys))
    if kind == "i" and key_types == {int}:
        try:
            return _np.fromiter(keys, dtype=_np.int64, count=len(keys))
        except OverflowError:
            return None  # a key beyond int64 cannot use the int64 path
    if kind == "f" and key_types == {float}:
        return _np.fromiter(keys, dtype=_np.float64, count=len(keys))
    return None


def _np_unique(view):
    """Sorted distinct values of an int64/float64 view.  Rolled by hand
    because ``numpy.unique`` pays an order of magnitude over a plain
    sort-and-diff on large integer buffers."""
    if view.size < 2:
        return view
    ordered = _np.sort(view)
    keep = _np.empty(ordered.size, dtype=bool)
    keep[0] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _np_used_codes(col: "Column"):
    """Distinct codes of a dictionary column — codes are dense in
    ``[0, len(pool))``, so one ``bincount`` beats any sort."""
    view = _np_view(col)
    if not view.size:
        return view
    counts = _np.bincount(view, minlength=len(col.pool))
    return _np.flatnonzero(counts)


def _np_member_mask(view, karr):
    """Boolean membership mask of *view* against key array *karr*.

    Integer keys spanning a modest range get a direct-address table
    (one boolean gather per row, no sorting); everything else uses the
    sort-based ``numpy.isin``."""
    if karr.size and karr.dtype == _np.int64 and view.size:
        lo = int(karr.min())
        hi = int(karr.max())
        span = hi - lo + 1
        if span <= max(4 * (karr.size + view.size), 1 << 16):
            table = _np.zeros(span, dtype=bool)
            table[karr - lo] = True
            in_range = (view >= lo) & (view <= hi)
            offsets = _np.where(in_range, view - lo, 0)
            return in_range & table[offsets]
    return _np.isin(view, karr)


def _np_radix_keys(*sides):
    """One int64 per row of every side, equal exactly where the rows
    are — across sides too.  A side is one int64 view per attribute
    (raw ints, or dictionary codes in one code space per attribute);
    each attribute is a digit of a mixed-radix number over the range
    its values span on all sides together.  ``None`` when that number
    leaves int64, decided on Python ints before any array subtracts."""
    keys = [None] * len(sides)
    radix = 1
    for views in zip(*sides):
        lo = min(int(view.min()) for view in views)
        span = max(int(view.max()) for view in views) - lo + 1
        radix *= span
        if radix >= 1 << 62:
            return None
        keys = [
            view - lo if key is None else key * span + (view - lo)
            for key, view in zip(keys, views)
        ]
    return keys


def _np_row_keys(cols: Sequence["Column"]):
    """One int64 per row, equal exactly where the rows are (values or
    dictionary codes as the digits of :func:`_np_radix_keys`).  ``None``
    for float columns and for ranges whose product leaves int64 — the
    caller's tuple path handles those."""
    if any(col.kind == "f" for col in cols):
        return None
    keys = _np_radix_keys([_np_view(col) for col in cols])
    return None if keys is None else keys[0]


def _np_codes_in(col: "Column", space: "Column"):
    """The codes of dictionary column *col* in the code space of
    *space*'s pool — one small pass over the *pools*, never the rows,
    and none at all when the two share a pool (views of one base
    relation do).  A value *space* does not hold becomes -1, which is
    no code, so it simply never matches."""
    if col.pool is space.pool:
        return _np_view(col)
    code_of = {v: c for c, v in enumerate(space.pool)}
    trans = _np.fromiter(
        (code_of.get(v, -1) for v in col.pool),
        _np.int64,
        count=len(col.pool),
    )
    return trans[_np_view(col)]


def _np_semijoin_mask(mine: Sequence["Column"], theirs: Sequence["Column"]):
    """Which rows of *mine* have a partner in *theirs* (aligned key
    columns of two non-empty relations), buffer against buffer: the
    partner's raw column is the key array — not distinct, not sorted,
    no Python object per key.  Dictionary columns compare in *mine*'s
    code space; several attributes become one int64 per row on both
    sides.  ``None`` where only Python equality can decide
    (``1 == 1.0 == True``) or no int64 key exists: kinds that differ, a
    float column in a multi-attribute key, a joint radix past int64."""
    views, partners = [], []
    for col, partner in zip(mine, theirs):
        if col.kind != partner.kind:
            return None
        views.append(_np_view(col))
        partners.append(
            _np_codes_in(partner, col) if col.kind == "o" else _np_view(partner)
        )
    if len(mine) == 1:
        return _np_member_mask(views[0], partners[0])
    if any(col.kind == "f" for col in mine):
        return None
    keys = _np_radix_keys(views, partners)
    return None if keys is None else _np_member_mask(*keys)


def _np_groups(keys):
    """Sort per-row *keys*: the sorting order, and the mask (in that
    order) of the first row of every run of equal keys."""
    order = _np.argsort(keys)
    ordered = keys[order]
    first = _np.empty(ordered.size, dtype=bool)
    first[0] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, first


def _np_column(values, like: "Column") -> "Column":
    """A numpy result memcpy'd back into ``array`` storage, as a column
    of *like*'s kind sharing its pool."""
    out = array(_TYPECODE[like.kind])
    out.frombytes(values.tobytes())
    return Column(like.kind, out, like.pool)


def _np_select(col: "Column", mask) -> "Column":
    """Filter by a numpy boolean mask — one vectorised gather."""
    return _np_column(_np_view(col)[mask], col)


def _np_take(col: "Column", sel) -> "Column":
    """Gather by a numpy integer selection vector."""
    return _np_column(_np_view(col)[sel], col)


def _np_pick(col: "Column", sel):
    """The values of *col* a join kept: *sel* is an index vector (numpy
    or a list) or a 0/1 ``bytes`` mask."""
    if isinstance(sel, bytes):
        return _np_view(col)[_np.frombuffer(sel, dtype=bool)]
    return _np_view(col)[_np.asarray(sel, dtype=_np.intp)]


def _np_bound(weights) -> int:
    """The largest magnitude in a weight array (exact: a Python int)."""
    if not weights.size:
        return 0
    return max(int(weights.max()), -int(weights.min()))


class Column:
    """One relation column as a contiguous buffer.

    ``kind`` is ``"i"`` (int64 values in ``data``), ``"f"`` (float64
    values in ``data``), or ``"o"`` (dictionary-encoded: ``data`` holds
    int64 *codes* into ``pool``, a tuple of distinct values).  ``data``
    is an ``array``.  The code→value mapping of a pool is injective, so code-level
    equality coincides with value-level equality — which is what lets
    the kernels deduplicate and select on raw int codes.
    """

    __slots__ = ("kind", "data", "pool")

    def __init__(self, kind: str, data, pool: tuple | None = None):
        self.kind = kind
        self.data = data
        self.pool = pool

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        return len(self.data) * 8  # 'q' and 'd' are both 8-byte items

    def values(self) -> Iterator[Value]:
        """Decoded values in row order."""
        if self.kind == "o":
            return map(self.pool.__getitem__, self.data)
        return iter(self.data)

    def distinct(self) -> set:
        """The set of decoded values appearing in this column."""
        if self.kind == "o":
            return set(map(self.pool.__getitem__, set(self.data)))
        return set(self.data)

    def take(self, sel: Sequence[int]) -> "Column":
        """Gather the positions in *sel* into a fresh column (one batch
        ``map`` sweep, no per-row tuples; dictionary pools are shared)."""
        data = array(_TYPECODE[self.kind], map(self.data.__getitem__, sel))
        return Column(self.kind, data, self.pool)

    def compress(self, mask: bytes) -> "Column":
        """Filter by a 0/1 byte *mask* — ``itertools.compress`` runs the
        whole sweep in C, no Python bytecode per row."""
        data = array(_TYPECODE[self.kind], compress(self.data, mask))
        return Column(self.kind, data, self.pool)

    def __reduce__(self):
        return Column, (self.kind, self.data, self.pool)


def encode_column(values: Sequence[Value]) -> Column:
    """Pack one column of values into the tightest column kind."""
    kinds = set(map(type, values))
    if kinds == {int}:
        try:
            return Column("i", array("q", values))
        except OverflowError:
            pass  # beyond int64: dictionary-encode below
    elif kinds == {float}:
        # NaN would lose the row engine's identity-based set membership
        # when re-boxed from a buffer, so NaN columns dictionary-encode
        # (the pool keeps the original float objects).
        if all(v == v for v in values):
            return Column("f", array("d", values))
    index: dict[Value, int] = {}
    codes = array("q")
    append = codes.append
    for v in values:
        code = index.get(v, -1)
        if code < 0:
            code = index[v] = len(index)
        append(code)
    return Column("o", codes, tuple(index))


def _empty_columns(arity: int) -> tuple[Column, ...]:
    return tuple(Column("i", array("q")) for _ in range(arity))


class RowsView(Set):
    """What :attr:`ColumnarRelation.rows` is: the rows of column buffers
    as an immutable set that builds no hash table until one is needed.

    ``len`` and iteration decode straight from the buffers (rows there
    are distinct), so a consumer that walks an answer once — an encoder,
    a digest, a printer — neither allocates nor keeps a table whose size
    steps with the row count.  Membership, equality, hashing and the
    ``frozenset`` methods go to the ``frozenset`` built on the first such
    use and kept; set algebra returns plain ``frozenset`` objects.
    """

    __slots__ = ("_columns", "_frozen", "_decoded")

    def __init__(self, columns: tuple["Column", ...]):
        self._columns = columns
        self._frozen: frozenset[Row] | None = None
        # The rows already decoded, in buffer order (the owner's
        # annotation map, once built): walked instead of decoding again.
        self._decoded: Iterable[Row] | None = None

    def frozen(self) -> frozenset[Row]:
        if self._frozen is None:
            self._frozen = frozenset(self)
        return self._frozen

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Row]:
        if self._frozen is not None:
            return iter(self._frozen)
        if self._decoded is not None:
            return iter(self._decoded)
        return zip(*(c.values() for c in self._columns))

    def __contains__(self, row) -> bool:
        return row in self.frozen()

    def __eq__(self, other) -> bool:
        return self.frozen() == other

    def __hash__(self) -> int:
        return hash(self.frozen())

    def __getattr__(self, name: str):
        # union / issubset / isdisjoint / copy ...: frozenset's own.
        return getattr(self.frozen(), name)

    def __repr__(self) -> str:
        return repr(self.frozen())

    def __reduce__(self):
        return frozenset, (tuple(self),)

    @classmethod
    def _from_iterable(cls, rows) -> frozenset[Row]:
        return frozenset(rows)


class ColumnarRelation(Relation):
    """A relation stored column-wise; same contract as ``Relation``.

    Instances are built with :meth:`make` (the columnar counterpart of
    ``Relation.trusted``).  ``columns`` holds one :class:`Column` per
    attribute and ``length`` the row count; the inherited ``rows``
    field becomes a lazy :class:`RowsView` over the buffers (inherited
    operations, equality and rendering all keep working, they just pay
    the decode).
    Construction invariant: the column buffers never contain duplicate
    rows, so ``length == len(rows)`` always holds.

    An annotated relation additionally holds ``weights`` (one more
    :class:`Column`, the i-th row's annotation at position i), the
    ``semiring`` the weights live in and ``bound``, an upper bound on
    their magnitude; ``weights`` is ``None`` under set semantics.
    """

    # Relation is a frozen dataclass; extra attributes are installed the
    # way ``trusted`` installs the base three.
    columns: tuple[Column, ...]
    length: int
    weights: Column | None = None
    semiring: Semiring | None = None
    bound: int = 0

    @staticmethod
    def make(
        attributes: tuple[str, ...],
        columns: tuple[Column, ...],
        name: str,
        length: int,
        weights: Column | None = None,
        semiring: Semiring | None = None,
        bound: int = 0,
    ) -> "ColumnarRelation":
        rel = object.__new__(ColumnarRelation)
        object.__setattr__(rel, "attributes", attributes)
        object.__setattr__(rel, "name", name)
        object.__setattr__(rel, "columns", columns)
        object.__setattr__(rel, "length", length)
        if weights is not None:
            object.__setattr__(rel, "weights", weights)
            object.__setattr__(rel, "semiring", semiring)
            object.__setattr__(rel, "bound", bound)
        return rel

    def __reduce__(self):
        return ColumnarRelation.make, (
            self.attributes, self.columns, self.name, self.length,
            self.weights, self.semiring, self.bound,
        )

    @property
    def _rank(self) -> int:
        # A weight column outranks a plain partner (whose rows count
        # ``one``) and yields to an AnnotatedRelation.
        return 0 if self.weights is None else 1

    # ``rows`` is a dataclass *field* on the base; here it is a lazy
    # decoding property (a data descriptor, so it wins over the instance
    # dict and the frozen-dataclass machinery never sees an assignment).
    @property
    def rows(self) -> "RowsView | frozenset[Row]":
        cached = self.__dict__.get("_rows")
        if cached is None:
            if self.length:
                cached = RowsView(self.columns)
            else:
                cached = frozenset()
            self.__dict__["_rows"] = cached
        return cached

    # -- views ------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __iter__(self) -> Iterator[Row]:
        if not self.length:
            return iter(())
        return zip(*(c.values() for c in self.columns))

    def column(self, attribute: str) -> set[Value]:
        return self.columns[self._position(attribute)].distinct()

    def relabel(
        self, attributes: tuple[str, ...], name: str
    ) -> "ColumnarRelation":
        return ColumnarRelation.make(
            attributes, self.columns, name, self.length,
            self.weights, self.semiring, self.bound,
        )

    # -- the annotated surface (what an AnnotatedRelation exposes) ----------
    @property
    def annotations(self) -> dict[Row, object] | None:
        """Row → weight as Python numbers (``None`` without a weight
        column), decoded on first use and kept, like :attr:`rows`."""
        if self.weights is None:
            return None
        cached = self.__dict__.get("_annotations")
        if cached is None:
            cached = dict(zip(self, self.weights.data.tolist()))
            self.__dict__["_annotations"] = cached
            if self.length:
                # One decode per answer: ``rows`` walks these keys, so a
                # consumer pairing rows with annotations sees the same
                # tuple objects (as on the row carrier) instead of a
                # second generation of fresh ones.
                self.rows._decoded = cached
        return cached

    def annotation(self, row: Row):
        """The annotation of one row (``zero`` for absent rows)."""
        return self.annotations.get(row, self.semiring.zero)

    def total(self):
        """``plus``-fold of every weight (``zero`` when empty)."""
        if not self.length:
            return self.semiring.zero
        if self.bound * self.length >= _WEIGHT_LIMIT:
            return self.annotated().total()
        plus = getattr(_np, self.semiring.vector[2])
        return plus.reduce(_np_view(self.weights)).item()

    def strip(self) -> "ColumnarRelation":
        """The plain set-semantics relation underneath (same buffers)."""
        return ColumnarRelation.make(
            self.attributes, self.columns, self.name, self.length
        )

    def annotated(self) -> AnnotatedRelation:
        """This weighted relation on the row carrier, where values are
        Python numbers and nothing can overflow."""
        annotations = self.annotations
        return AnnotatedRelation.make(
            self.attributes, frozenset(annotations), self.name,
            self.semiring, annotations,
        )

    def row_relation(self) -> Relation:
        """The plain row relation this encodes (decodes the buffers)."""
        rows = self.rows
        if isinstance(rows, RowsView):
            rows = rows.frozen()
        return Relation.trusted(self.attributes, rows, self.name)

    # -- internal kernels -------------------------------------------------
    def _key_positions(self, shared: tuple[str, ...]) -> list[int]:
        return [self._position(a) for a in shared]

    def _key_values(self, shared: tuple[str, ...]):
        """Row-ordered iterable of key values over *shared* (bare value
        for one attribute, value tuple otherwise — matching the
        ``key_set``/``key_index`` convention of the row engine)."""
        cols = [self.columns[p] for p in self._key_positions(shared)]
        if len(cols) == 1:
            return cols[0].values()
        if not cols:
            # ``zip()`` of no columns is empty, but the key of every row
            # under zero shared attributes is the empty tuple (the
            # cross-product case of the row engine's key convention).
            return repeat((), self.length)
        return zip(*(c.values() for c in cols))

    def _no_rows(
        self, attributes: tuple[str, ...], name: str
    ) -> "ColumnarRelation":
        weights = self.weights
        if weights is not None:
            weights = Column(weights.kind, array(_TYPECODE[weights.kind]))
        return ColumnarRelation.make(
            attributes, _empty_columns(len(attributes)), name, 0,
            weights, self.semiring,
        )

    def _select_rows(self, mask, survivors: int) -> "ColumnarRelation":
        """The *survivors* rows whose *mask* entry is set — a numpy
        boolean array or a 0/1 ``bytes`` — each with its weight."""
        pick = Column.compress if isinstance(mask, bytes) else _np_select
        weights = self.weights
        return ColumnarRelation.make(
            self.attributes,
            tuple(pick(c, mask) for c in self.columns),
            self.name,
            survivors,
            None if weights is None else pick(weights, mask),
            self.semiring,
            self.bound,
        )

    # -- memoised hash structures -----------------------------------------
    def key_set(self, attributes: tuple[str, ...]) -> frozenset:
        cached = self._key_sets.get(attributes)
        if cached is None:
            if len(attributes) == 1:
                col = self.columns[self._position(attributes[0])]
                if _np is not None:
                    if col.kind == "o":
                        cached = frozenset(
                            map(col.pool.__getitem__, _np_used_codes(col).tolist())
                        )
                    else:
                        cached = frozenset(_np_unique(_np_view(col)).tolist())
                elif col.kind == "o":
                    cached = frozenset(
                        map(col.pool.__getitem__, set(col.data))
                    )
                else:
                    cached = frozenset(col.data)
            else:
                cached = frozenset(self._key_values(attributes))
            self._key_sets[attributes] = cached
        return cached

    # -- relational algebra -----------------------------------------------
    def _semijoin_probe(
        self, shared: tuple[str, ...], other: Relation
    ) -> Relation:
        """A columnar partner is probed where it lies: the membership
        mask comes straight from the two sides' column buffers
        (:func:`_np_semijoin_mask`) and no key set is built.  Any other
        partner — and any pair of columns only Python equality can
        compare — is asked for its key set, as on the row carrier."""
        if _np is not None and isinstance(other, ColumnarRelation):
            mask = _np_semijoin_mask(
                [self.columns[self._position(a)] for a in shared],
                [other.columns[other._position(a)] for a in shared],
            )
            if mask is not None:
                return self._keep(mask, int(_np.count_nonzero(mask)))
        return super()._semijoin_probe(shared, other)

    def _keep(self, mask, survivors: int) -> "ColumnarRelation":
        """What a semijoin returns for *mask*: the receiver itself when
        every row survives, else the *survivors* it selects."""
        if survivors == self.length:
            return self
        if not survivors:
            return self._no_rows(self.attributes, self.name)
        return self._select_rows(mask, survivors)

    def semijoin_with_keys(
        self, shared: tuple[str, ...], keys: frozenset
    ) -> Relation:
        """The vectorised semijoin probe: one batch pass over the key
        column builds a selection mask (``numpy.isin`` on the buffer
        view when available, else a C ``map``/``bytes`` chain), then
        each output column is one vectorised gather — no Python
        bytecode runs per row.  A dictionary column resolves membership
        once per *distinct* value (``pool[code] in keys``) and masks on
        the raw int codes.  A weight column is filtered by the same
        mask."""
        if not self.length:
            return self
        positions = self._key_positions(shared)
        if len(positions) == 1:
            col = self.columns[positions[0]]
            data = col.data
            if _np is not None:
                mask = None
                if col.kind == "o":
                    view = _np_view(col)
                    used = _np_used_codes(col)
                    pool = col.pool
                    ok = [c for c in used.tolist() if pool[c] in keys]
                    if len(ok) == used.size:
                        return self
                    mask = _np_member_mask(
                        view, _np.fromiter(ok, _np.int64, count=len(ok))
                    )
                else:
                    karr = _np_keys(keys, col.kind)
                    if karr is not None:
                        mask = _np_member_mask(_np_view(col), karr)
                if mask is not None:
                    return self._keep(mask, int(_np.count_nonzero(mask)))
            if col.kind == "o":
                used = set(data)
                pool = col.pool
                ok = {c for c in used if pool[c] in keys}
                if len(ok) == len(used):
                    return self
                mask = bytes(map(ok.__contains__, data))
            else:
                mask = bytes(map(keys.__contains__, data))
        else:
            mask = bytes(map(keys.__contains__, self._key_values(shared)))
        return self._keep(mask, mask.count(1))

    def join(self, other: Relation, name: str | None = None) -> Relation:
        if other._rank > self._rank:
            # The richer partner brings the kernel: a weighted columnar
            # one this module's, an AnnotatedRelation its row loop.
            return Relation.join(self, other, name)
        out_name = name or f"({self.name}⋈{other.name})"
        shared = tuple(a for a in self.attributes if a in other._index_of)
        extra = [a for a in other.attributes if a not in self._index_of]
        out_attrs = self.attributes + tuple(extra)
        if not self.length or not other:
            return self._no_rows(out_attrs, out_name)
        right = to_columnar(other)
        if not isinstance(right, ColumnarRelation):
            # What the encoder declines (a 0-ary partner) has no buffers
            # to probe: the row kernel, by the same dispatch.
            return Relation.join(self, other, name)
        extra_pos = tuple(right._position(a) for a in extra)
        if self.length <= right.length:
            build, probe, build_is_left = self, right, True
        else:
            build, probe, build_is_left = right, self, False
        return columnar_probe_join(
            build, probe, build_is_left, shared, extra_pos, out_attrs, out_name
        )

    @staticmethod
    def _probe_join(build: Relation, probe: Relation, *rest) -> Relation:
        """The batch kernel needs buffers on both sides; a row partner
        takes the row loop (the annotated one if either side carries
        weights)."""
        if isinstance(build, ColumnarRelation) and isinstance(
            probe, ColumnarRelation
        ):
            return columnar_probe_join(build, probe, *rest)
        if build._rank or probe._rank:
            return annotated_probe_join(build, probe, *rest)
        return probe_join(build, probe, *rest)

    def project(
        self, attributes: Sequence[str], name: str | None = None
    ) -> Relation:
        if len(set(attributes)) != len(attributes):
            raise SchemaError(
                f"projection onto duplicate attributes {tuple(attributes)}"
            )
        positions = [self._position(a) for a in attributes]
        out_name = name or self.name
        attrs = tuple(attributes)
        if len(positions) == self.arity:
            # Identity or pure column permutation (attributes are
            # distinct): nothing can collapse, so share the buffers.
            return ColumnarRelation.make(
                attrs,
                tuple(self.columns[p] for p in positions),
                out_name,
                self.length,
                self.weights,
                self.semiring,
                self.bound,
            )
        if not positions:
            rows = frozenset({()}) if self.length else frozenset()
            if self.weights is not None:
                # Every row collapses into (): its weight is the total.
                return AnnotatedRelation.make(
                    (), rows, out_name, self.semiring,
                    dict.fromkeys(rows, self.total()),
                )
            return Relation.trusted((), rows, out_name)
        cols = [self.columns[p] for p in positions]
        if self.weights is not None:
            folded = self._fold(cols, attrs, out_name)
            if folded is None:
                return self.annotated().project(attributes, name)
            return folded
        if len(cols) == 1:
            # Distinct over raw codes/values — no per-row tuples at all.
            col = cols[0]
            if _np is not None:
                if col.kind == "o":
                    uniq = _np_used_codes(col)
                else:
                    uniq = _np_unique(_np_view(col))
                if uniq.size == self.length:
                    return ColumnarRelation.make(
                        attrs, (col,), out_name, self.length
                    )
                data = array(_TYPECODE[col.kind])
                data.frombytes(uniq.tobytes())
            else:
                distinct = set(col.data)
                if len(distinct) == self.length:
                    return ColumnarRelation.make(
                        attrs, (col,), out_name, self.length
                    )
                data = array(_TYPECODE[col.kind], distinct)
            return ColumnarRelation.make(
                attrs, (Column(col.kind, data, col.pool),), out_name, len(data)
            )
        # Multi-column: dedup on raw values (codes are injective per
        # pool, so code-level equality is value-level equality).
        vectorised = _np is not None and self.length
        keys = _np_row_keys(cols) if vectorised else None
        if keys is not None:
            # One sort of per-row keys finds the duplicates and picks
            # the survivors; a projection that collapses one row costs
            # what one that collapses none does.
            order, keep = _np_groups(keys)
            if keep.all():
                return ColumnarRelation.make(
                    attrs, tuple(cols), out_name, self.length
                )
            sel = order[keep]
            taken = tuple(_np_take(c, sel) for c in cols)
            return ColumnarRelation.make(attrs, taken, out_name, sel.size)
        # No numpy (or float / int64-overflowing columns): dedup on raw
        # tuples, then rebuild each column from the deduped transpose.
        deduped = set(zip(*(c.data for c in cols)))
        if len(deduped) == self.length:
            return ColumnarRelation.make(
                attrs, tuple(cols), out_name, self.length
            )
        out_cols: list[Column] = []
        transposed = tuple(zip(*deduped)) if deduped else ((),) * len(cols)
        for col, raw in zip(cols, transposed):
            out_cols.append(
                Column(col.kind, array(_TYPECODE[col.kind], raw), col.pool)
            )
        return ColumnarRelation.make(
            attrs, tuple(out_cols), out_name, len(deduped)
        )

    def _fold(
        self, cols: Sequence[Column], attrs: tuple[str, ...], name: str
    ) -> "ColumnarRelation | None":
        """π with ⊕ over a weight column: rows equal on *cols* become
        one row whose weight is the ``plus``-fold of theirs — a segmented
        reduction over the sort that finds them.  ``None`` when it has to
        be done on Python numbers instead: the rows have no single sort
        key (see :func:`_np_row_keys`), or a sum could leave int64."""
        weights = self.weights
        if not self.length:
            return ColumnarRelation.make(
                attrs, tuple(cols), name, 0, weights, self.semiring
            )
        keys = _np_view(cols[0]) if len(cols) == 1 else _np_row_keys(cols)
        if keys is None:
            return None
        order, first = _np_groups(keys)
        if first.all():
            return ColumnarRelation.make(
                attrs, tuple(cols), name, self.length,
                weights, self.semiring, self.bound,
            )
        starts = _np.flatnonzero(first)
        longest = int(_np.diff(starts, append=first.size).max())
        if self.bound * longest >= _WEIGHT_LIMIT:
            return None
        plus = getattr(_np, self.semiring.vector[2])
        folded = plus.reduceat(_np_view(weights)[order], starts)
        sel = order[starts]
        return ColumnarRelation.make(
            attrs,
            tuple(_np_take(c, sel) for c in cols),
            name,
            starts.size,
            _np_column(folded, weights),
            self.semiring,
            _np_bound(folded),
        )


def _joined_weights(
    build: ColumnarRelation, probe: ColumnarRelation, bsel, psel
) -> tuple:
    """The ``weights, semiring, bound`` of a join output whose i-th row
    pairs build row ``bsel[i]`` with probe row ``psel[i]``: the ``times``
    of the two rows' weights, a side without a weight column counting
    ``one``.  Selections are index vectors or, for rows kept in place, a
    0/1 ``bytes`` mask.  The caller has checked that the product of the
    two bounds fits."""
    bw, pw = build.weights, probe.weights
    if bw is None and pw is None:
        return None, None, 0
    if pw is None:
        return _np_column(_np_pick(bw, bsel), bw), build.semiring, build.bound
    if bw is None:
        return _np_column(_np_pick(pw, psel), pw), probe.semiring, probe.bound
    times = getattr(_np, build.semiring.vector[1])
    product = times(_np_pick(bw, bsel), _np_pick(pw, psel))
    return _np_column(product, bw), build.semiring, _np_bound(product)


def columnar_probe_join(
    build: ColumnarRelation,
    probe: ColumnarRelation,
    build_is_left: bool,
    shared: tuple[str, ...],
    extra_pos: Sequence[int],
    out_attrs: tuple[str, ...],
    name: str,
) -> ColumnarRelation:
    """The vectorised hash-join: same build/probe contract as
    :func:`repro.db.relation.probe_join` (``out_attrs`` = left
    attributes + right extras, ``extra_pos`` indexing the right side).
    When the build side's keys are unique (foreign-key joins, reduced
    nodes) the whole probe runs as C sweeps: one ``map(index.get, …)``
    pass yields per-row matches, a mask selects the hits, and every
    output column is a ``compress``/gather batch — no Python bytecode
    per row.  Duplicate build keys fall back to an expansion loop that
    only iterates the *matched* probe rows (the probe is pre-filtered
    with a C membership mask first).  Natural join of sets is
    duplicate-free (output rows are in bijection with matched pairs
    agreeing on the shared columns), so no output dedup is needed —
    and a weight column needs no ``plus``: every exit multiplies the
    matched pairs' weights (:func:`_joined_weights`)."""
    n_build = build.length
    top = probe if probe._rank > build._rank else build
    if not n_build or not probe.length:
        return top._no_rows(out_attrs, name)
    if build.weights is not None and probe.weights is not None and (
        build.semiring is not probe.semiring
        or build.bound * probe.bound >= _WEIGHT_LIMIT
    ):
        # Some product could leave int64: the row loop multiplies Python
        # ints (it also is what rejects a pair of different semirings).
        return annotated_probe_join(
            build, probe, build_is_left, shared, extra_pos, out_attrs, name
        )
    if _np is not None and len(shared) == 1:
        result = _np_probe_join(
            build, probe, build_is_left, shared[0], extra_pos, out_attrs, name
        )
        if result is not None:
            return result
    index = dict(zip(build._key_values(shared), range(n_build)))
    if len(index) == n_build:
        # Unique build keys: ≤ 1 match per probe row, fully C.
        matches = list(map(index.get, probe._key_values(shared)))
        mask = bytes(map(_NOT_NONE, matches))
        hits = mask.count(1)
        if not hits:
            return top._no_rows(out_attrs, name)
        bsel = list(compress(matches, mask))
        if build_is_left:
            out_cols = [c.take(bsel) for c in build.columns]
            out_cols.extend(
                probe.columns[p].compress(mask) for p in extra_pos
            )
        else:
            out_cols = [c.compress(mask) for c in probe.columns]
            out_cols.extend(
                build.columns[p].take(bsel) for p in extra_pos
            )
        return ColumnarRelation.make(
            out_attrs, tuple(out_cols), name, hits,
            *_joined_weights(build, probe, bsel, mask),
        )
    # Duplicate build keys: full position-list index, then expand only
    # the probe rows that match at all (C-masked prefilter).
    index = {}
    for pos, key in enumerate(build._key_values(shared)):
        entry = index.get(key)
        if entry is None:
            index[key] = [pos]
        else:
            entry.append(pos)
    pkeys = list(probe._key_values(shared))
    mask = bytes(map(index.__contains__, pkeys))
    ppos: list[int] = []
    bpos: list[int] = []
    padd = ppos.append
    badd = bpos.append
    get = index.get
    for j, key in zip(compress(range(len(pkeys)), mask), compress(pkeys, mask)):
        for p in get(key):
            padd(j)
            badd(p)
    if not ppos:
        return top._no_rows(out_attrs, name)
    if build_is_left:
        left, lsel = build, bpos
        right, rsel = probe, ppos
    else:
        left, lsel = probe, ppos
        right, rsel = build, bpos
    out_cols = [c.take(lsel) for c in left.columns]
    out_cols.extend(right.columns[p].take(rsel) for p in extra_pos)
    return ColumnarRelation.make(
        out_attrs, tuple(out_cols), name, len(ppos),
        *_joined_weights(build, probe, bpos, ppos),
    )


def _np_probe_join(
    build: ColumnarRelation,
    probe: ColumnarRelation,
    build_is_left: bool,
    key: str,
    extra_pos: Sequence[int],
    out_attrs: tuple[str, ...],
    name: str,
):
    """Vectorised single-key probe: sort the build keys once, binary
    search every probe key for its match *range* (so duplicate build
    keys expand without a Python loop: the flattened ranges come from
    ``repeat``/``cumsum`` arithmetic), and gather every output column
    with numpy fancy indexing.  Dictionary key columns first translate
    probe codes into the build pool's code space
    (:func:`_np_codes_in`).  Returns ``None`` when the key kinds
    don't line up — the caller's generic path keeps Python equality
    semantics for those."""
    bcol = build.columns[build._position(key)]
    pcol = probe.columns[probe._position(key)]
    if bcol.kind != pcol.kind:
        return None
    bk = _np_view(bcol)
    pk = _np_codes_in(pcol, bcol) if bcol.kind == "o" else _np_view(pcol)
    order = _np.argsort(bk)
    direct = False
    if bk.dtype == _np.int64:
        kmin = int(bk.min())
        kmax = int(bk.max())
        span = kmax - kmin + 1
        direct = span <= max(4 * (bk.size + pk.size), 1 << 16)
    if direct:
        # Direct-address CSR: ``order`` groups build rows by key value
        # and ``starts[v]`` is the group boundary, so each probe key
        # resolves its match range with two gathers — no binary search.
        group_counts = _np.bincount(bk - kmin, minlength=span)
        starts = _np.zeros(span + 1, dtype=_np.int64)
        _np.cumsum(group_counts, out=starts[1:])
        in_range = (pk >= kmin) & (pk <= kmax)
        slot = _np.where(in_range, pk - kmin, 0)
        lo = _np.where(in_range, starts[slot], 0)
        hi = _np.where(in_range, starts[slot + 1], 0)
    else:
        sbk = bk[order]
        lo = _np.searchsorted(sbk, pk, side="left")
        hi = _np.searchsorted(sbk, pk, side="right")
    matches = hi - lo
    total = int(matches.sum())
    if not total:
        top = probe if probe._rank > build._rank else build
        return top._no_rows(out_attrs, name)
    # Flatten the per-probe match ranges: probe row j repeats once per
    # partner, and the partner positions are lo[j], lo[j]+1, … hi[j)-1
    # (arange minus each range's running start).
    ppos = _np.repeat(_np.arange(pk.size), matches)
    ends = _np.cumsum(matches)
    offsets = _np.arange(total) - _np.repeat(ends - matches, matches)
    bsel = order[_np.repeat(lo, matches) + offsets]
    if build_is_left:
        out_cols = [_np_take(c, bsel) for c in build.columns]
        out_cols.extend(_np_take(probe.columns[p], ppos) for p in extra_pos)
    else:
        out_cols = [_np_take(c, ppos) for c in probe.columns]
        out_cols.extend(_np_take(build.columns[p], bsel) for p in extra_pos)
    return ColumnarRelation.make(
        out_attrs, tuple(out_cols), name, total,
        *_joined_weights(build, probe, bsel, ppos),
    )


def to_columnar(rel: Relation) -> Relation:
    """Convert a plain relation to columnar storage.

    Already-columnar input — weighted or not — and annotated relations
    return unchanged (:func:`lift_columnar` is what encodes an
    annotated relation, weights and all); 0-ary relations stay row
    (there is nothing to pack)."""
    if isinstance(rel, (ColumnarRelation, AnnotatedRelation)):
        return rel
    if not rel.attributes:
        return rel
    rows = rel.rows
    n = len(rows)
    if not n:
        columns = _empty_columns(len(rel.attributes))
    else:
        columns = tuple(encode_column(vals) for vals in zip(*rows))
    return ColumnarRelation.make(rel.attributes, columns, rel.name, n)


def weighted_view(
    rel: Relation,
    semiring: Semiring,
    annotations: Mapping[Row, object] | None = None,
) -> ColumnarRelation | None:
    """*rel*'s column buffers plus a weight column over *semiring*:
    ``annotations[row]`` at each row's position, ``one`` for rows it
    does not list (all of them when it is ``None``).  ``None`` when
    there is nothing to view — *rel* is not columnar, the semiring
    cannot ride buffers, or a value is not a machine number of its
    vector dtype."""
    if not isinstance(rel, ColumnarRelation) or not rides_buffers(semiring):
        return None
    kind = _WEIGHT_KIND[semiring.vector[0]]
    typecode = _TYPECODE[kind]
    one = semiring.one
    try:
        if annotations is None:
            data = array(typecode, (one,)) * rel.length
        else:
            data = array(
                typecode, (annotations.get(row, one) for row in rel)
            )
    except (OverflowError, TypeError):
        return None
    weights = Column(kind, data)
    return ColumnarRelation.make(
        rel.attributes, rel.columns, rel.name, rel.length,
        weights, semiring, _np_bound(_np_view(weights)),
    )


def lift_columnar(rel: Relation, semiring: Semiring) -> Relation:
    """The columnar counterpart of :meth:`AnnotatedRelation.lift`: *rel*
    encoded with a weight column — its own annotations if it has any,
    ``one`` per row otherwise.  Where :func:`weighted_view` has nothing
    to offer (a 0-ary relation, values beyond int64, a semiring without
    a vector form) the result is the row carrier instead."""
    if isinstance(rel, AnnotatedRelation):
        out = weighted_view(
            to_columnar(rel.strip()), semiring, rel.annotations
        )
        return rel if out is None else out
    if getattr(rel, "semiring", None) is not None:
        return rel
    out = weighted_view(to_columnar(rel), semiring)
    return AnnotatedRelation.lift(rel, semiring) if out is None else out


def from_columns(
    attributes: Sequence[str],
    columns: Iterable[Sequence[Value]],
    name: str = "r",
) -> ColumnarRelation:
    """Build a columnar relation straight from column value sequences
    (deduplicating rows, preserving the set contract)."""
    cols = [tuple(c) for c in columns]
    attrs = tuple(attributes)
    if len(set(attrs)) != len(attrs):
        raise SchemaError(f"duplicate attributes {attrs}")
    lengths = {len(c) for c in cols}
    if len(lengths) > 1:
        raise SchemaError(
            f"columns of relation {name!r} have differing lengths {lengths}"
        )
    if len(cols) != len(attrs):
        raise SchemaError(
            f"{len(cols)} columns for {len(attrs)} attributes in {name!r}"
        )
    rows = frozenset(zip(*cols)) if cols and cols[0] else frozenset()
    return to_columnar(Relation.trusted(attrs, rows, name))

