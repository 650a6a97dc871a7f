"""Fingerprint properties: isomorphism-invariance and discrimination."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atoms import Atom, Variable, atom
from repro.core.query import ConjunctiveQuery
from repro.engine.fingerprint import (
    fingerprint,
    refine_colors,
    shape_isomorphism,
)
from repro.generators.families import (
    book_query,
    clique_query,
    cycle_query,
    grid_query,
    hyperwheel_query,
    path_query,
)
from repro.generators.workloads import renamed_variant
from tests.conftest import small_queries


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(query=small_queries(), seed=st.integers(0, 10_000))
    def test_invariant_under_renaming_and_permutation(self, query, seed):
        """Variable renaming + predicate renaming + atom permutation all
        map to the same fingerprint."""
        variant = renamed_variant(query, seed=seed)
        assert fingerprint(query) == fingerprint(variant)

    @settings(max_examples=40, deadline=None)
    @given(query=small_queries(), seed=st.integers(0, 10_000))
    def test_invariant_without_predicate_renaming(self, query, seed):
        variant = renamed_variant(query, seed=seed, rename_predicates=False)
        assert fingerprint(query) == fingerprint(variant)

    def test_head_is_ignored(self):
        """Plans are head-independent (Lemma 4.6 sees only the body), so
        the cache key deliberately ignores the head."""
        q = cycle_query(4)
        assert fingerprint(q) == fingerprint(
            q.with_head((Variable("X1"), Variable("X2")))
        )

    def test_constants_are_anonymous(self):
        """Constants behave like fresh variables structurally (§3.1 note),
        so plans transport across constant changes."""
        q1 = ConjunctiveQuery((atom("e", "X", 1), atom("e", "X", "Y")), ())
        q2 = ConjunctiveQuery((atom("e", "X", 2), atom("e", "X", "Y")), ())
        assert fingerprint(q1) == fingerprint(q2)


class TestOncePerQuery:
    def test_a_request_refines_colours_once(self, monkeypatch):
        """Lookup, the single-flight gate key and the store all need the
        key; a query is immutable, so it is derived once per object."""
        import importlib

        from repro.engine import Engine

        # (`repro.engine.fingerprint` the attribute is the function.)
        module = importlib.import_module("repro.engine.fingerprint")
        from repro.generators.workloads import random_database

        calls = []
        refine = module.refine_colors

        def counted(edges):
            calls.append(len(edges))
            return refine(edges)

        monkeypatch.setattr(module, "refine_colors", counted)
        query = path_query(4)  # acyclic: the miss runs no isomorphism
        with Engine() as engine:
            db = random_database(query, 6, 12, seed=1)
            assert not engine.execute(query, db).cache_hit  # miss + store
            assert engine.execute(query, db).cache_hit
        assert calls == [len(query.atoms)]
        assert fingerprint(query) == fingerprint(path_query(4))
        assert len(calls) == 2  # an equal query is another object

    def test_the_key_survives_pickling_and_ignores_equality(self):
        import pickle

        query = cycle_query(5)
        key = fingerprint(query)
        clone = pickle.loads(pickle.dumps(query))
        assert clone == query and hash(clone) == hash(query)
        assert fingerprint(clone) == key


class TestDiscrimination:
    def test_distinguishes_sizes_and_families(self):
        shapes = [
            cycle_query(4),
            cycle_query(5),
            cycle_query(6),
            path_query(3),
            path_query(4),
            clique_query(4),
            grid_query(3),
            book_query(2),
            book_query(3),
            hyperwheel_query(4, 3),
        ]
        prints = [fingerprint(q) for q in shapes]
        assert len(set(prints)) == len(shapes)

    def test_same_shape_despite_different_surface(self):
        """A 3-edge joined to a 2-edge at one vertex, written two ways:
        genuinely isomorphic hypergraphs, so the key must coincide."""
        q1 = ConjunctiveQuery((atom("r", "X", "Y", "Z"), atom("s", "Z", "W")), ())
        q2 = ConjunctiveQuery((atom("r", "X", "Y"), atom("s", "Y", "Z", "W")), ())
        assert fingerprint(q1) == fingerprint(q2)

    def test_distinguishes_overlap_patterns(self):
        """Same edge sizes, different overlap: one shared variable vs two."""
        q1 = ConjunctiveQuery((atom("r", "X", "Y", "Z"), atom("s", "Z", "W")), ())
        q2 = ConjunctiveQuery((atom("r", "X", "Y", "Z"), atom("s", "Y", "Z")), ())
        assert fingerprint(q1) != fingerprint(q2)

    def test_distinguishes_connectivity(self):
        tri_plus_edge = ConjunctiveQuery(
            (atom("e", "A", "B"), atom("e", "B", "C"), atom("e", "C", "A"),
             atom("e", "C", "D")),
            (),
        )
        star = ConjunctiveQuery(
            (atom("e", "A", "B"), atom("e", "A", "C"), atom("e", "A", "D"),
             atom("e", "A", "E")),
            (),
        )
        assert fingerprint(tri_plus_edge) != fingerprint(star)


class TestShapeIsomorphism:
    @settings(max_examples=40, deadline=None)
    @given(query=small_queries(), seed=st.integers(0, 10_000))
    def test_finds_certified_bijection(self, query, seed):
        """The returned map is a variable bijection carrying the edge
        multiset of the source exactly onto the target's."""
        variant = renamed_variant(query, seed=seed)
        varmap = shape_isomorphism(query, variant)
        assert varmap is not None
        assert len(set(varmap.values())) == len(varmap) == len(query.variables)
        source_edges = sorted(
            tuple(sorted(varmap[v].name for v in a.variables))
            for a in query.atoms
        )
        target_edges = sorted(
            tuple(sorted(v.name for v in a.variables)) for a in variant.atoms
        )
        assert source_edges == target_edges

    def test_rejects_different_shapes(self):
        assert shape_isomorphism(cycle_query(4), cycle_query(5)) is None
        assert shape_isomorphism(cycle_query(4), path_query(4)) is None

    def test_rejects_same_colors_different_structure(self):
        """Two 6-cycles vs. two triangles... the classic 1-WL-hard pair
        collapses at the *query* level because our queries are connected
        per component anyway; use C6 vs 2×C3 explicitly."""
        c6 = cycle_query(6)
        two_triangles = ConjunctiveQuery(
            (
                Atom("e", (Variable("A"), Variable("B"))),
                Atom("e", (Variable("B"), Variable("C"))),
                Atom("e", (Variable("C"), Variable("A"))),
                Atom("e", (Variable("D"), Variable("E"))),
                Atom("e", (Variable("E"), Variable("F"))),
                Atom("e", (Variable("F"), Variable("D"))),
            ),
            (),
        )
        # 1-WL gives both the same colours — the certified isomorphism
        # search is what tells them apart (and why the cache re-checks).
        assert shape_isomorphism(c6, two_triangles) is None
        assert shape_isomorphism(two_triangles, c6) is None


class TestRefineColors:
    def test_symmetric_cycle_is_monochrome(self):
        edges = [a.variables for a in cycle_query(5).atoms]
        var_color, edge_color = refine_colors(edges)
        assert len(set(var_color.values())) == 1
        assert len(set(edge_color)) == 1

    def test_asymmetric_path_separates_endpoints(self):
        edges = [a.variables for a in path_query(3).atoms]
        var_color, _ = refine_colors(edges)
        degrees = {}
        for v, c in var_color.items():
            degrees.setdefault(c, set()).add(
                sum(1 for e in edges if v in e)
            )
        # distinct colours never merge distinct degrees
        assert all(len(ds) == 1 for ds in degrees.values())

    def test_empty_query(self):
        var_color, edge_color = refine_colors([])
        assert var_color == {} and edge_color == []
