"""The benchmark's vocabulary: every metric name, unit and direction.

``BENCHMARK.json`` at the repo root lists the same names (the smoke test
keeps the two in step); what it cannot carry — which end-to-end metric a
layer metric should move, on which workload, and whether a count must
repeat bit-for-bit under one seed — lives here.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float  # share of the parent's median the metric may worsen by


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    exact: bool  # a count that must repeat bit-for-bit under one seed
    moves: str  # the end-to-end metric and workload it should move


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("latency_p90_ms", "ms", "lower", 0.25),
    EndToEnd("throughput_ops_s", "1/s", "higher", 0.25),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
)

_EXEC = "acyclic_large, cyclic_bags, semiring_count"

PER_LAYER = (
    PerLayer("core.parser.parse_ms", "ms", "lower", False,
             "latency_p50_ms on plan_cold, serve_small"),
    PerLayer("engine.fingerprint.ms", "ms", "lower", False,
             "latency_p50_ms on plan_cold, serve_small"),
    PerLayer("engine.cache.lookup_ms", "ms", "lower", False,
             "latency_p50_ms on serve_small"),
    PerLayer("engine.cache.store_ms", "ms", "lower", False,
             "latency_p50_ms on plan_cold"),
    PerLayer("engine.cache.hit_ratio", "ratio", "higher", True,
             "guard: 1.0 on warm workloads, 0.0 on plan_cold"),
    PerLayer("heuristics.decompose_ms", "ms", "lower", False,
             "latency_p50_ms, throughput_ops_s on plan_cold"),
    PerLayer("heuristics.decompose_calls", "count", "lower", True,
             "guard: one per op on plan_cold, 0 elsewhere"),
    PerLayer("heuristics.width_sum", "count", "lower", True,
             "guard: a faster search may not buy time with wider plans"),
    PerLayer("engine.plan.compile_ms", "ms", "lower", False,
             "latency_p50_ms on acyclic_large, serve_small"),
    PerLayer("engine.plan.execute_ms", "ms", "lower", False,
             f"latency_p50_ms on {_EXEC}"),
    PerLayer("engine.plan.execute_self_ms", "ms", "lower", False,
             f"latency_p50_ms on {_EXEC}"),
    PerLayer("engine.plan.bag_ms", "ms", "lower", False,
             "latency_p50_ms on cyclic_bags, acyclic_large"),
    PerLayer("engine.plan.bag_rows", "count", "lower", True,
             "peak_rss_mb, cpu_ms_per_op on cyclic_bags"),
    PerLayer("db.sweep.semijoin_ms", "ms", "lower", False,
             "latency_p50_ms on acyclic_large, semiring_count"),
    PerLayer("db.sweep.join_ms", "ms", "lower", False,
             "latency_p90_ms on acyclic_large, semiring_count"),
    PerLayer("db.stats.semijoins", "count", "lower", True,
             f"cpu_ms_per_op on {_EXEC}"),
    PerLayer("db.stats.joins", "count", "lower", True,
             f"cpu_ms_per_op on {_EXEC}"),
    PerLayer("db.stats.projections", "count", "lower", True,
             f"cpu_ms_per_op on {_EXEC}"),
    PerLayer("db.stats.tuples_produced", "count", "lower", True,
             f"cpu_ms_per_op, peak_rss_mb on {_EXEC}"),
    PerLayer("db.stats.max_intermediate", "count", "lower", True,
             f"peak_rss_mb on {_EXEC}"),
    PerLayer("db.layout.columnar_bags", "count", "higher", True,
             "explains acyclic_large vs semiring_count"),
    PerLayer("db.layout.row_bags", "count", "lower", True,
             "explains acyclic_large vs semiring_count"),
    PerLayer("engine.executor.other_ms", "ms", "lower", False,
             "latency_p50_ms on serve_small, plan_cold"),
    PerLayer("db.database.load_facts_per_s", "1/s", "higher", False,
             "setup_s on acyclic_large"),
    PerLayer("serve.server.engine_ms", "ms", "lower", False,
             "latency_p50_ms on serve_small"),
    PerLayer("serve.server.overhead_ms", "ms", "lower", False,
             "latency_p50_ms, throughput_ops_s on serve_small"),
    PerLayer("serve.protocol.decode_ms", "ms", "lower", False,
             "latency_p50_ms on serve_small"),
    PerLayer("serve.protocol.encode_ms", "ms", "lower", False,
             "latency_p50_ms on serve_small"),
    PerLayer("serve.protocol.response_bytes", "bytes", "lower", True,
             "serve.protocol.encode_ms"),
    PerLayer("serve.admission.shed", "count", "lower", True,
             "failed ops on serve_small (must be 0)"),
    PerLayer("serve.admission.max_queued", "count", "lower", False,
             "latency_p90_ms on serve_small"),
    PerLayer("incremental.live.apply_ms", "ms", "lower", False,
             "latency_p50_ms on live_updates"),
    PerLayer("incremental.live.read_ms", "ms", "lower", False,
             "latency_p90_ms on live_updates"),
    PerLayer("incremental.live.register_ms", "ms", "lower", False,
             "setup_s on live_updates"),
    PerLayer("incremental.view.touched_rows", "count", "lower", True,
             "incremental.live.apply_ms"),
    PerLayer("incremental.view.answer_delta_rows", "count", "lower", True,
             "incremental.live.apply_ms"),
    PerLayer("bench.traced_latency_ms", "ms", "lower", False,
             "the base every *_ms layer share is read against"),
    PerLayer("bench.latency_p99_ms", "ms", "lower", False,
             "informational; 0 when the untraced phase has < 1000 ops"),
    PerLayer("bench.speed_factor", "ratio", "higher", False,
             "none: reference speed / this box's, what every time was scaled by"),
    PerLayer("bench.unattributed_ratio", "ratio", "lower", False,
             "flag when > 0.15"),
    PerLayer("obs.traced_overhead_ratio", "ratio", "lower", False,
             "none: the cost of the traced run"),
)

EXACT = frozenset(m.name for m in PER_LAYER if m.exact)
