"""The relational layer under :class:`repro.engine.Engine`, the one
evaluator: carriers, databases, semirings, the Yannakakis passes and the
Lemma 4.6 bag operator, and the naive-join and backtracking baselines."""

from .annotated import AnnotatedRelation
from .binding import BoundQuery, bind_atom
from .columnar import (
    LAYOUTS,
    ColumnarRelation,
    default_layout,
    from_columns,
    lift_columnar,
    to_columnar,
)
from .database import Database
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
    "COUNTING",
    "ColumnarRelation",
    "Database",
    "EvalStats",
    "INT_RING",
    "LAYOUTS",
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
    "full_reduce",
    "get_semiring",
    "lift_columnar",
    "resolve_semiring",
    "naive_boolean_eval",
    "naive_join_eval",
    "to_columnar",
]
