"""Profiling & flight-recorder quickstart: always-on observability.

Three tours in one script:

1. the **sampling profiler** — a background wall-clock sampler that
   folds stacks into flamegraph form and tags each sample with the
   innermost active span;
2. the **flight recorder** — a bounded always-on ring of recent spans,
   requests, and slow queries that dumps itself to JSON when an
   evaluation fails;
3. the **speedscope export** — load the written profile at
   https://www.speedscope.app.

Run with ``PYTHONPATH=src python examples/profiling_quickstart.py``.
"""

import os
import tempfile

from repro import (
    BudgetExceeded,
    Engine,
    FlightRecorder,
    SamplingProfiler,
    parse_query,
    write_speedscope,
)
from repro.db import Database
from repro.obs import render_flight


def build_database(n: int = 4000) -> Database:
    edges = [(i, (i * 7 + 3) % (n // 4)) for i in range(n)]
    edges += [((i * 5 + 1) % (n // 4), i % (n // 6)) for i in range(n // 2)]
    return Database.from_relations({"e": edges})


def main() -> None:
    db = build_database()
    query = parse_query("ans(X, Z) :- e(X, Y), e(Y, Z).", name="two_hop")

    # -- 1. profile an execution -----------------------------------------
    # ``with profiler`` runs the sampler thread for its extent (default
    # 99 Hz; off means no thread at all).  Each sample is rooted at the
    # innermost span open on its thread (``span:plan.bag;...``),
    # whichever tracer records it: with none installed, the engine's
    # requests record into its flight recorder's ring.
    profiler = SamplingProfiler(hz=500)
    with profiler, Engine() as engine:
        for _ in range(100):
            result = engine.execute(query, db)
    print(f"{len(result.answer)} answers; "
          f"{profiler.profile.total()} samples collected at {profiler.hz:g} Hz")

    hottest = sorted(profiler.profile.items(), key=lambda item: -item[1])
    print(f"{len(hottest)} distinct stacks; the hottest:")
    for stack, count in hottest[:2]:
        frames = stack.split(";")
        print(f"  {count:4d}  {frames[0]};...;{frames[-1]}")

    path = os.path.join(tempfile.gettempdir(), "repro_profile.speedscope.json")
    total = write_speedscope(profiler.profile, path, name="two_hop")
    print(f"wrote {total} samples -> {path} (open in speedscope.app)")

    # -- 2. the flight recorder ------------------------------------------
    # Always on, bounded, and cheap: every engine request lands in the
    # ring with its plan digest; queries slower than ``slow_query_ms``
    # get an EXPLAIN ANALYZE captured alongside.
    flight = FlightRecorder(capacity=64)
    engine = Engine(flight=flight, slow_query_ms=0.0)
    engine.execute(query, db)
    [slow] = flight.events(kind="slow_query")
    print("\nslow-query log captured plan digest "
          f"{slow.payload['digest'][:12]}... with EXPLAIN ANALYZE attached")

    # A failing request auto-dumps the ring (here to an explicit path;
    # set $REPRO_FLIGHT_DUMP to arm a directory process-wide).
    dump_path = os.path.join(tempfile.gettempdir(), "repro_flight.json")
    engine = Engine(flight=flight, flight_dump=dump_path)
    try:
        engine.execute(parse_query("e(X,Y), e(Y,Z), e(Z,X)"), db, budget=0.0)
    except BudgetExceeded:
        pass
    print(f"budget blew -> flight dump written to {dump_path}")
    print("\nthe dump, rendered (what `repro stats --flight FILE` shows):")
    snapshot = flight.snapshot(reason="quickstart")
    print("\n".join(render_flight(snapshot).splitlines()[:8]))


if __name__ == "__main__":
    main()
