"""Tests for the ordering/bounds/improve/validate pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._errors import DecompositionError
from repro.core.acyclicity import is_acyclic
from repro.core.atoms import Atom, Constant, Variable
from repro.core.detkdecomp import hypertree_width
from repro.core.hypertree import HypertreeDecomposition, node
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    path_query,
    random_query,
)
from repro.generators.paper_queries import all_named_queries, qn
from repro.graphs.primal import primal_graph
from repro.heuristics import (
    ORDERING_METHODS,
    CoverTable,
    bags_from_ordering,
    check_decomposition,
    elimination_ordering,
    ghtd_from_ordering,
    greedy_cover,
    greedy_upper_bound,
    improve_ordering,
    is_valid_ghtd,
    lower_bound,
    ordering_width,
    query_orderings,
)

from tests.conftest import small_queries

FAMILIES = [
    cycle_query(4),
    cycle_query(9),
    path_query(7),
    clique_query(5),
    grid_query(3),
    grid_query(4),
    hyperwheel_query(5, 4),
    book_query(4),
    qn(4),
    random_query(7, 8, 3, seed=11),
    random_query(5, 9, 4, seed=12, connected=False),
]


class TestOrderings:
    @pytest.mark.parametrize("method", ORDERING_METHODS)
    def test_orders_are_permutations(self, query_q5, method):
        graph = primal_graph(query_q5)
        order = elimination_ordering(graph, method)
        assert sorted(order) == sorted(graph)

    def test_unknown_method_rejected(self, query_q1):
        with pytest.raises(ValueError):
            elimination_ordering(primal_graph(query_q1), "bogus")

    def test_query_orderings_cover_all_methods(self, query_q3):
        orders = query_orderings(query_q3)
        assert set(orders) == set(ORDERING_METHODS)


class TestBagsFromOrdering:
    def test_wrong_vertex_set_rejected(self, query_q1):
        graph = primal_graph(query_q1)
        with pytest.raises(DecompositionError):
            bags_from_ordering(graph, list(graph)[:-1])

    @pytest.mark.parametrize("method", ORDERING_METHODS)
    def test_bags_are_a_tree_decomposition(self, method):
        """Every primal edge is inside some bag and every vertex's bags
        are connected — checked through the GHTD checker downstream, but
        asserted structurally here on a grid."""
        q = grid_query(3)
        graph = primal_graph(q)
        order = elimination_ordering(graph, method)
        bags, children, roots = bags_from_ordering(graph, order)
        assert roots and set(roots) <= set(bags)
        # edge coverage in the primal graph
        for u, nbrs in graph.items():
            for v in nbrs:
                assert any({u, v} <= bag for bag in bags.values())
        # the children maps form a forest over exactly the kept bags
        seen = []
        for root in roots:
            stack = [root]
            while stack:
                x = stack.pop()
                seen.append(x)
                stack.extend(children[x])
        assert sorted(map(str, seen)) == sorted(map(str, bags))

    def test_no_subset_bags_remain(self):
        q = cycle_query(8)
        graph = primal_graph(q)
        bags, children, roots = bags_from_ordering(
            graph, elimination_ordering(graph, "min_degree")
        )
        parent = {
            c: p for p, kids in children.items() for c in kids
        }
        for v, p in parent.items():
            assert not bags[v] <= bags[p]
            assert not bags[p] <= bags[v]


def definitional_cover(target, atoms):
    """The greedy cover as its definition reads — every atom's variable
    set and rendering recomputed at every step.  The oracle for the
    table-driven :func:`greedy_cover`."""
    uncovered = set(target)
    chosen = []
    while uncovered:
        best = min(
            atoms, key=lambda a: (-len(a.variables & uncovered), str(a))
        )
        gain = best.variables & uncovered
        if not gain:
            names = ", ".join(sorted(v.name for v in uncovered))
            raise DecompositionError(
                f"variables {{{names}}} are not covered by any atom"
            )
        chosen.append(best)
        uncovered -= gain
    return frozenset(chosen)


_COVER_TERMS = st.sampled_from(
    [Variable(name) for name in ("A", "B", "C", "D", "E", "X1", "X10")]
    + [Constant(1), Constant("a")]
)
# Few predicates and few variables: bodies repeat predicates (even whole
# atoms) and most steps tie on gain, so the rendering decides.
_COVER_BODIES = st.lists(
    st.builds(
        Atom,
        st.sampled_from(["e", "p", "p1"]),
        st.lists(_COVER_TERMS, min_size=1, max_size=4).map(tuple),
    ),
    min_size=1,
    max_size=9,
)


class TestGreedyCover:
    @settings(max_examples=300, deadline=None)
    @given(body=_COVER_BODIES, data=st.data())
    def test_table_cover_is_the_definitional_cover(self, body, data):
        occurring = sorted({v for a in body for v in a.variables})
        target = frozenset(
            data.draw(st.lists(st.sampled_from(occurring), unique=True))
            if occurring
            else ()
        )
        expected = definitional_cover(target, body)
        assert greedy_cover(target, body) == expected
        assert greedy_cover(target, CoverTable(body)) == expected

    @settings(max_examples=100, deadline=None)
    @given(body=_COVER_BODIES)
    def test_uncoverable_target_raises_like_the_definition(self, body):
        target = frozenset({Variable("A"), Variable("B"), Variable("ZZ")})
        with pytest.raises(DecompositionError) as expected:
            definitional_cover(target, body)
        with pytest.raises(DecompositionError) as got:
            greedy_cover(target, body)
        assert str(got.value) == str(expected.value)

    def test_covers_exactly(self, query_q5):
        target = query_q5.variables
        cover = greedy_cover(target, query_q5.atoms)
        covered = frozenset(v for a in cover for v in a.variables)
        assert target <= covered

    def test_uncoverable_raises(self, query_q1):
        with pytest.raises(DecompositionError):
            greedy_cover(frozenset({Variable("ZZZ")}), query_q1.atoms)

    def test_deterministic(self, query_q4):
        covers = {
            greedy_cover(query_q4.variables, query_q4.atoms)
            for _ in range(5)
        }
        assert len(covers) == 1


class TestGhtdFromOrdering:
    @pytest.mark.parametrize(
        "query", FAMILIES, ids=lambda q: q.name
    )
    @pytest.mark.parametrize("method", ORDERING_METHODS)
    def test_families_give_valid_ghtds(self, query, method):
        hd = ghtd_from_ordering(query, method=method)
        assert check_decomposition(hd) == []

    def test_mcs_is_exact_on_acyclic(self):
        """For acyclic queries the MCS ordering is a PEO, so every bag is
        a clique inside one atom: width 1, matching hw."""
        for q in (path_query(6), qn(5), all_named_queries()["Q2"]):
            assert is_acyclic(q)
            assert ghtd_from_ordering(q, method="mcs").width == 1

    def test_ordering_width_matches_tree(self):
        q = grid_query(3)
        graph = primal_graph(q)
        for method in ORDERING_METHODS:
            order = elimination_ordering(graph, method)
            assert (
                ordering_width(q, order)
                == ghtd_from_ordering(q, order=order).width
            )

    def test_empty_query_rejected(self):
        from repro.core.query import ConjunctiveQuery

        with pytest.raises(ValueError):
            ghtd_from_ordering(ConjunctiveQuery((), ()))

    def test_variable_free_query(self):
        from repro.core.parser import parse_query

        q = parse_query("r('a'), s('b')")
        hd = ghtd_from_ordering(q)
        assert hd.width == 1 and is_valid_ghtd(hd)

    @settings(max_examples=60, deadline=None)
    @given(query=small_queries())
    def test_random_queries_give_valid_ghtds(self, query):
        for method in ORDERING_METHODS:
            hd = ghtd_from_ordering(query, method=method)
            assert check_decomposition(hd) == [], (query, method)


class TestBounds:
    def test_upper_bound_is_witnessed(self, query_q5):
        ub = greedy_upper_bound(query_q5)
        assert ub.decomposition.width == ub.width
        assert is_valid_ghtd(ub.decomposition)

    @pytest.mark.parametrize(
        "query", FAMILIES[:6], ids=lambda q: q.name
    )
    def test_lower_bound_sound(self, query):
        hw, _ = hypertree_width(query)
        assert lower_bound(query) <= hw

    def test_acyclic_bracket_closes(self):
        q = path_query(5)
        assert lower_bound(q) == 1 == greedy_upper_bound(q).width

    def test_cyclic_lower_bound_at_least_two(self, query_q1):
        assert lower_bound(query_q1) >= 2

    def test_empty_query(self):
        from repro.core.query import ConjunctiveQuery

        empty = ConjunctiveQuery((), ())
        assert lower_bound(empty) == 0
        with pytest.raises(ValueError):
            greedy_upper_bound(empty)


class TestImprove:
    def test_never_worse_and_deterministic(self):
        q = grid_query(4)
        graph = primal_graph(q)
        order = elimination_ordering(graph, "min_degree")
        start = ordering_width(q, order)
        once = improve_ordering(q, order, rounds=25, seed=7)
        again = improve_ordering(q, order, rounds=25, seed=7)
        assert once == again
        assert once[1] <= start
        # the input ordering is not mutated
        assert order == elimination_ordering(graph, "min_degree")

    def test_zero_rounds_is_identity(self, query_q5):
        order = elimination_ordering(primal_graph(query_q5), "min_fill")
        improved, width = improve_ordering(query_q5, order, rounds=0)
        assert improved == list(order)
        assert width == ordering_width(query_q5, order)


class TestValidateChecker:
    """The checker must catch each violation class independently of the
    construction code."""

    def _hd(self, query, root):
        return HypertreeDecomposition(query, root)

    def test_accepts_exact_decompositions(self, paper_corpus):
        for q in paper_corpus.values():
            _, hd = hypertree_width(q)
            assert check_decomposition(hd) == []

    def test_detects_missing_coverage(self, query_q1):
        a = query_q1.atoms[0]
        hd = self._hd(query_q1, node(a.variables, {a}))
        assert any("coverage" in v for v in check_decomposition(hd))

    def test_detects_empty_lambda(self, query_q1):
        a = query_q1.atoms[0]
        hd = self._hd(query_q1, node(a.variables, set()))
        assert any("empty λ" in v for v in check_decomposition(hd))

    def test_detects_chi_not_covered_by_lambda(self, query_q1):
        a = query_q1.atoms[0]  # enrolled(S, C, R): misses P and A
        hd = self._hd(query_q1, node(query_q1.variables, {a}))
        violations = check_decomposition(hd)
        assert any("λ-cover" in v for v in violations)

    def test_detects_disconnected_variable(self):
        from repro.core.parser import parse_query

        q = parse_query("r(X, Y), s(Y, Z), t(Z, W)")
        r, s, t = q.atoms
        # X,Y — Z,W(with Y missing in the middle) — Y,Z: Y occurs at the
        # two ends but not in the middle node.
        root = node(
            r.variables, {r}, node(t.variables, {t}, node(s.variables, {s}))
        )
        assert any(
            "connectedness" in v for v in check_decomposition(root and HypertreeDecomposition(q, root))
        )

    def test_detects_foreign_atoms_and_variables(self, query_q1, query_q3):
        foreign = query_q3.atoms[0]
        hd = self._hd(query_q1, node(foreign.variables, {foreign}))
        violations = check_decomposition(hd)
        assert any("non-query atoms" in v for v in violations)
        assert any("non-query variables" in v for v in violations)

    def test_ghtds_fail_strict_validate_but_pass_checker(self):
        """The subsystem's whole point: condition 4 is not required of
        heuristic results, so hd.validate() may object while the GHTD
        checker accepts."""
        q = grid_query(3)
        hd = ghtd_from_ordering(q, method="min_degree")
        assert check_decomposition(hd) == []
        # (no assertion on hd.validate(): it may or may not violate 4)

    def test_assert_valid_raises_with_context(self, query_q1):
        from repro.heuristics import assert_valid

        a = query_q1.atoms[0]
        bad = self._hd(query_q1, node(a.variables, set()))
        with pytest.raises(DecompositionError, match="unit-test"):
            assert_valid(bad, context="unit-test")
