"""Observability quickstart: spans, metrics, EXPLAIN ANALYZE, traces.

One query runs under a tracer; we then look at the same execution from
all four observability angles:

1. the raw **span** stream, one span per layer the request crossed;
2. the exported **Chrome trace** (load it at https://ui.perfetto.dev);
3. the process-global **metrics registry** snapshot;
4. ``EXPLAIN ANALYZE`` — the plan annotated with actual row counts and
   per-node wall time next to the optimizer's estimates.

Run with ``PYTHONPATH=src python examples/tracing_quickstart.py``.
"""

import os
import tempfile

from repro import Engine, Tracer, parse_query, tracing, write_chrome_trace
from repro.db import Database
from repro.obs import metrics_snapshot, render_metrics, validate_chrome_trace
from repro.obs.export import chrome_trace_events


def build_database(n: int = 3000) -> Database:
    edges = [(i, (i * 7 + 3) % (n // 4)) for i in range(n)]
    edges += [((i * 5 + 1) % (n // 4), i % (n // 6)) for i in range(n // 2)]
    return Database.from_relations({"e": edges})


def main() -> None:
    db = build_database()
    query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).", name="two_hop")

    # -- 1. trace an execution -------------------------------------------
    # ``tracing`` installs the tracer in this thread's context for its
    # extent; every layer (decompose -> plan -> bag -> sweep) records
    # spans into it.
    # Tracing is off otherwise, and free when off.
    with Engine() as engine, tracing(Tracer()) as tracer:
        result = engine.execute(query, db)
        print(f"{len(result.answer)} answers in {result.elapsed:.3f}s "
              f"({len(tracer.spans())} spans recorded)")

        sweep_spans = [
            s for s in tracer.spans() if s.name.startswith("sweep.")
        ]
        print(f"of those, {len(sweep_spans)} are Yannakakis sweep "
              f"operators, e.g.:")
        for span in sweep_spans[:3]:
            print(f"  {span}")

        # -- 2. export for chrome://tracing / Perfetto -------------------
        events = chrome_trace_events(tracer)
        assert validate_chrome_trace(events) == []
        path = os.path.join(tempfile.gettempdir(), "repro_trace.json")
        count = write_chrome_trace(tracer, path)
        print(f"\nwrote {count} trace events -> {path} "
              f"(load in ui.perfetto.dev)")

        # -- 4. EXPLAIN ANALYZE ------------------------------------------
        # Executes once more under the same tracer and renders the plan
        # with actual rows / wall time next to the estimates.
        print("\nEXPLAIN ANALYZE:")
        print(engine.explain(query, db, analyze=True))

    # -- 3. the metrics registry -----------------------------------------
    # Counters/gauges/histograms accumulate process-wide whether or not
    # tracing is on: engine requests, eval operator counts, plan-cache
    # occupancy, snapshot builds and reuses...
    print("\nmetrics snapshot:")
    print(render_metrics(metrics_snapshot()))


if __name__ == "__main__":
    main()
