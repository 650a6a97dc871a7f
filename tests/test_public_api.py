"""The curated public API: everything advertised imports and works."""

import repro


def test_version():
    assert repro.__version__


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_surface():
    """The README quickstart, as a test."""
    q = repro.parse_query(
        "ans() :- enrolled(S, C, R), teaches(P, C, A), parent(P, S)."
    )
    assert not repro.is_acyclic(q)
    width, hd = repro.hypertree_width(q)
    assert width == 2
    assert hd.is_valid

    from repro.db import Database

    db = Database()
    db.add_fact("enrolled", "ann", "db101", "2026-01-01")
    db.add_fact("teaches", "bob", "db101", "yes")
    db.add_fact("parent", "bob", "ann")
    assert repro.Engine().execute(q, db).boolean


def test_exceptions_exported():
    assert issubclass(repro.ParseError, repro.ReproError)
    assert issubclass(repro.SchemaError, repro.ReproError)
    assert issubclass(repro.DecompositionError, repro.ReproError)
    assert issubclass(repro.DatalogError, repro.ReproError)
    assert issubclass(repro.EvaluationError, repro.ReproError)


def test_doctest_examples():
    """Run the doctests embedded in key public docstrings."""
    import doctest

    import repro.core.atoms
    import repro.core.parser
    import repro.core.qwsearch
    import repro.graphs.trees

    for module in (
        repro.core.atoms,
        repro.core.parser,
        repro.core.qwsearch,
        repro.graphs.trees,
    ):
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0, module.__name__
