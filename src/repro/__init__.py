"""repro: Hypertree Decompositions and Tractable Queries.

A from-scratch reproduction of Gottlob, Leone & Scarcello (PODS'99 /
JCSS 2002).  See README.md for a tour, and its "Layout" section for the
system map.
"""

from ._errors import (
    BudgetExceeded,
    DatalogError,
    DecompositionError,
    EvaluationError,
    ParseError,
    ReproError,
    SchemaError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .core import *  # noqa: F401,F403 -- curated in core/__init__.py
from .core import __all__ as _core_all
from .engine import BatchResult, Engine, EvalResult, PlanCache, fingerprint
from .heuristics import (
    PortfolioResult,
    decompose,
    greedy_upper_bound,
    lower_bound,
)
from .incremental import (
    AnswerDelta,
    Delta,
    LiveEngine,
    MaterializedView,
    ViewHandle,
)
from .obs import (
    FlightRecorder,
    MetricsRegistry,
    Profile,
    SamplingProfiler,
    Tracer,
    current_profiler,
    current_tracer,
    get_flight_recorder,
    get_registry,
    profiling,
    tracing,
    write_chrome_trace,
    write_speedscope,
)
__version__ = "1.24.0"

# After __version__: the server advertises it in the hello handshake.
from .serve import (  # noqa: E402
    QueryServer,
    ServeClient,
    ServerThread,
    serve_in_thread,
)

__all__ = [
    "AnswerDelta",
    "BatchResult",
    "BudgetExceeded",
    "DatalogError",
    "DecompositionError",
    "Delta",
    "Engine",
    "EvalResult",
    "EvaluationError",
    "FlightRecorder",
    "LiveEngine",
    "MaterializedView",
    "MetricsRegistry",
    "ParseError",
    "PlanCache",
    "PortfolioResult",
    "Profile",
    "QueryServer",
    "ReproError",
    "SamplingProfiler",
    "SchemaError",
    "ServeClient",
    "ServerThread",
    "Tracer",
    "UnknownAttributeError",
    "UnknownRelationError",
    "ViewHandle",
    "__version__",
    "current_profiler",
    "current_tracer",
    "decompose",
    "fingerprint",
    "get_flight_recorder",
    "get_registry",
    "greedy_upper_bound",
    "lower_bound",
    "profiling",
    "serve_in_thread",
    "tracing",
    "write_chrome_trace",
    "write_speedscope",
    *_core_all,
]
