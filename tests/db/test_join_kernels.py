"""The columnar join kernels answer what the row join answers.

:func:`repro.db.columnar.columnar_probe_join` picks a kernel by key
shape — a cross product, a lookup, the sort-based probe on one key per
row, or the interpreter path where only Python equality can decide.
Whatever it picks, the output must be the row join's rows (and, for
weighted operands, the product of the two rows' weights), with numpy
loaded and with it hidden.  The interpreter path is counted by the
registry counter ``db.columnar.join_fallback``; the cyclic shapes of
the cold-planning benchmark never take it while numpy is loaded.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import Relation
from repro.db import columnar as columnar_mod
from repro.db.annotated import AnnotatedRelation
from repro.db.columnar import ColumnarRelation, lift_columnar, to_columnar
from repro.db.semiring import COUNTING
from repro.engine import Engine
from repro.generators.families import cycle_query
from repro.generators.workloads import random_database
from repro.obs import get_registry
from tests.conftest import spy_on

#: Values whose columns encode as every kind: pure ints, pure floats
#: (``1 == 1.0``), and dictionary columns mixing ints, floats, bools
#: (``1 == 1.0 == True``) and strings.  Each relation encodes its own
#: pools, so two sides' dictionary columns never share one.
INTS = st.integers(-3, 3)
FLOATS = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 2.5])
MIXED = st.sampled_from([0, 1, 1.0, True, False, 2.0, "a", "b", -1])
WIDE = st.sampled_from([0, 1, 2**40, -(2**40), 2**62])
VALUES = st.sampled_from([INTS, FLOATS, MIXED, WIDE])


def _fallbacks() -> float:
    return get_registry().counter("db.columnar.join_fallback").value


@pytest.fixture(params=["numpy", "python"])
def kernels(request, monkeypatch):
    """Run with the vectorised kernels and with numpy hidden."""
    if request.param == "numpy" and columnar_mod._np is None:
        pytest.skip("vectorised kernels need numpy")
    if request.param == "python":
        monkeypatch.setattr(columnar_mod, "_np", None)
    return request.param


@st.composite
def join_pairs(draw):
    """Two relations and, per side, the weights of a ``count`` operand
    (``None`` for a plain side).  The key is zero, one or several shared
    attributes; either side may carry attributes of its own or none;
    sizes differ either way, so either side builds."""
    n_keys = draw(st.integers(0, 3))
    keys = [f"k{i}" for i in range(n_keys)]
    left_own = [f"a{i}" for i in range(draw(st.integers(0 if keys else 1, 2)))]
    right_own = [f"c{i}" for i in range(draw(st.integers(0 if keys else 1, 2)))]
    # A key attribute draws both sides' values alike (kinds that line
    # up: the batch kernels) or each side its own (kinds that may not).
    shared = {k: draw(VALUES) for k in keys if draw(st.booleans())}
    sides = []
    for own in (left_own, right_own):
        attrs = draw(st.permutations(keys + own))
        columns = {
            a: shared[a] if a in shared else draw(VALUES) for a in attrs
        }
        rows = draw(st.lists(
            st.tuples(*(columns[a] for a in attrs)), max_size=12
        ))
        weights = draw(st.one_of(
            st.none(),
            st.sampled_from([1, 3, 2**31, 2**62]).flatmap(
                lambda top: st.lists(
                    st.integers(-top, top), min_size=len(rows),
                    max_size=len(rows),
                )
            ),
        ))
        sides.append((tuple(attrs), rows, weights))
    return sides


def _side(attrs, rows, weights):
    """The operand a plan hands the kernel: column buffers, weighted by
    *weights* in row order when given (the row carrier where no weight
    column can ride)."""
    plain = Relation.from_rows(attrs, rows, "r")
    if weights is None:
        return to_columnar(plain)
    annotations = dict(zip(rows, weights))  # a repeated row keeps one
    return lift_columnar(
        AnnotatedRelation.lift(plain, COUNTING, annotations), COUNTING
    )


def _weight(side, row):
    return 1 if side.semiring is None else side.annotation(row)


class TestKernelEquivalence:
    # The fixture only hides numpy or not: nothing to reset per input.
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(pair=join_pairs())
    def test_a_columnar_join_equals_the_row_join(self, pair, kernels):
        (l_attrs, l_rows, l_w), (r_attrs, r_rows, r_w) = pair
        left, right = _side(l_attrs, l_rows, l_w), _side(r_attrs, r_rows, r_w)
        expected = Relation.from_rows(l_attrs, l_rows, "l").join(
            Relation.from_rows(r_attrs, r_rows, "r")
        )
        got = left.join(right)
        assert got.attributes == expected.attributes
        assert got.rows == expected.rows
        assert len(got) == len(expected)
        if l_w is None and r_w is None:
            assert got.semiring is None
            return
        positions = [got.attributes.index(a) for a in right.attributes]
        assert dict(got.annotations) == {
            row: _weight(left, row[: len(l_attrs)])
            * _weight(right, tuple(row[p] for p in positions))
            for row in expected.rows
        }

    def test_a_cross_product_runs_no_interpreter_loop(self, kernels):
        left = to_columnar(Relation.from_rows(
            ("a", "b"), [(i, f"v{i % 3}") for i in range(7)], "l"
        ))
        right = to_columnar(Relation.from_rows(
            ("c",), [(float(i),) for i in range(5)], "r"
        ))
        before = _fallbacks()
        for one, two in ((left, right), (right, left)):
            got = one.join(two)
            assert len(got) == 35
            assert got.rows == one.row_relation().join(two.row_relation()).rows
        assert _fallbacks() == before

    def test_the_int64_bound_takes_the_row_loop(self, kernels):
        """Weights whose product could leave int64 are multiplied as
        Python ints, on a cross product as on a keyed join."""
        big = 2**40
        for r_attrs in (("c",), ("b", "c")):
            left = _side(("a", "b"), [(1, 2), (2, 2)], [big, 3])
            right = _side(r_attrs, [(2, 5)[-len(r_attrs):]], [big])
            got = left.join(right)
            assert sorted(got.annotations.values()) == [3 * big, big * big]


class TestFallbackCounter:
    def test_a_join_only_python_equality_decides_counts_once(self, kernels):
        """An int key column against a float one: ``1 == 1.0`` is for
        the interpreter path, which the counter counts."""
        left = to_columnar(Relation.from_rows(
            ("a", "k"), [(i, i) for i in range(4)], "l"
        ))
        right = to_columnar(Relation.from_rows(
            ("k", "c"), [(float(i % 2), i) for i in range(6)], "r"
        ))
        before = _fallbacks()
        got = left.join(right)
        assert _fallbacks() == before + 1
        assert len(got) == 6

    @pytest.mark.parametrize("layout", ["auto", "columnar"])
    def test_cold_planning_cycles_never_fall_back(self, layout, monkeypatch):
        """``cycle_query(4…16)`` at the cold-planning benchmark's size:
        every columnar join — cross products and several-attribute keys
        included — runs a batch kernel."""
        if columnar_mod._np is None:
            pytest.skip("without numpy every keyed join is the interpreter's")
        joins = spy_on(monkeypatch, columnar_mod, "columnar_probe_join")
        before = _fallbacks()
        with Engine(layout=layout) as engine:
            for n in range(4, 17):
                query = cycle_query(n)
                db = random_database(query, 64, 8, seed=n, plant_answer=True)
                assert engine.execute(query, db).answer
        assert _fallbacks() == before
        assert joins and all(isinstance(j, ColumnarRelation) for j in joins)
