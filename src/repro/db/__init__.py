"""Relational engine and the paper's evaluation strategies."""

from .annotated import AnnotatedRelation
from .binding import BoundQuery, bind_atom
from .columnar import (
    COLUMNAR_MIN_ROWS,
    LAYOUTS,
    ColumnarRelation,
    default_layout,
    from_columns,
    lift_columnar,
    to_columnar,
)
from .database import Database
from .evaluate import (
    Lemma46Result,
    evaluate,
    evaluate_boolean,
    lemma46_transform,
)
from .naive import (
    backtracking_answers,
    backtracking_eval,
    naive_boolean_eval,
    naive_join_eval,
)
from .relation import Relation
from .semiring import (
    COUNTING,
    INT_RING,
    MINCOST,
    PROB,
    PROVENANCE,
    SEMIRINGS,
    Semiring,
    get_semiring,
    resolve_semiring,
)
from .stats import EvalStats
from .yannakakis import boolean_eval, enumerate_answers, full_reduce

__all__ = [
    "AnnotatedRelation",
    "BoundQuery",
    "COLUMNAR_MIN_ROWS",
    "COUNTING",
    "ColumnarRelation",
    "Database",
    "EvalStats",
    "INT_RING",
    "LAYOUTS",
    "Lemma46Result",
    "MINCOST",
    "PROB",
    "PROVENANCE",
    "Relation",
    "SEMIRINGS",
    "Semiring",
    "backtracking_answers",
    "backtracking_eval",
    "bind_atom",
    "boolean_eval",
    "default_layout",
    "enumerate_answers",
    "from_columns",
    "evaluate",
    "evaluate_boolean",
    "full_reduce",
    "get_semiring",
    "lemma46_transform",
    "lift_columnar",
    "resolve_semiring",
    "naive_boolean_eval",
    "naive_join_eval",
    "to_columnar",
]
