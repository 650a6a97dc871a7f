"""``repro.obs`` — end-to-end tracing and metrics for the whole stack.

Two complementary instruments, both with strictly-zero-cost off states:

* **Tracing** (:mod:`~repro.obs.tracer`): nested wall-clock spans with
  structured attributes, recorded from every layer — portfolio
  decomposition attempts, plan-cache lookups, bag materialisation,
  Yannakakis sweep operators, and incremental view maintenance.
  Exported as Chrome trace-event JSON
  (:func:`~repro.obs.export.write_chrome_trace`), loadable in
  ``chrome://tracing`` or Perfetto, or consumed in-process by
  ``Engine.explain(query, db, analyze=True)``.
* **Metrics** (:mod:`~repro.obs.metrics`): a process-global registry of
  counters, gauges and fixed-bucket histograms (p50/p95/p99) absorbing
  ``EvalStats``, plan-cache hit rates, snapshot builds, and live-view
  maintenance stats.  Exported as
  a JSON snapshot (``repro stats``, ``repro run --metrics out.json``).

Switches: the ``--trace out.json`` CLI flag, the ``$REPRO_TRACE``
environment variable, or programmatic ``with tracing(Tracer()) as t:``.
An installed tracer belongs to the current execution context (a
``ContextVar``): a thread records only into a tracer it installed, and
otherwise an engine request records into its flight recorder's ring.
The sampling profiler (:mod:`~repro.obs.profiler`) is its own context
manager, ``with SamplingProfiler() as p:``, and tags each thread's
samples with that thread's innermost open span, whichever tracer the
span records into.

>>> from repro import Engine, parse_query
>>> from repro.db import Database
>>> from repro.obs import Tracer, tracing
>>> db = Database.from_relations({"e": [(1, 2), (2, 3)]})
>>> with tracing(Tracer()) as t:
...     _ = Engine().execute(parse_query("e(X,Y), e(Y,Z)"), db)
>>> bool(t.find("engine.execute"))
True
"""

from .export import (
    chrome_trace_events,
    metrics_snapshot,
    render_metrics,
    render_trace_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from .flight import (
    FlightEvent,
    FlightRecorder,
    get_flight_recorder,
    render_flight,
    set_flight_recorder,
    span_forest,
)
from .history import (
    DiffReport,
    diff_runs,
    env_fingerprint,
    load_run,
    make_run,
    merge_runs,
    record,
    validate_run,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .profiler import (
    Profile,
    SamplingProfiler,
    fold_frame,
    profile_path_from_env,
    write_collapsed,
    write_speedscope,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_span,
    current_tracer,
    trace_path_from_env,
    tracing,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "DiffReport",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Profile",
    "SamplingProfiler",
    "Span",
    "Tracer",
    "active_span",
    "chrome_trace_events",
    "current_tracer",
    "diff_runs",
    "env_fingerprint",
    "fold_frame",
    "get_flight_recorder",
    "get_registry",
    "load_run",
    "make_run",
    "merge_runs",
    "metrics_snapshot",
    "profile_path_from_env",
    "record",
    "render_flight",
    "render_metrics",
    "render_trace_summary",
    "set_flight_recorder",
    "span_forest",
    "trace_path_from_env",
    "tracing",
    "validate_chrome_trace",
    "validate_run",
    "write_chrome_trace",
    "write_collapsed",
    "write_metrics_snapshot",
    "write_speedscope",
]
