"""Set-up, the timed closed loop, and the two result sets of one run.

One invocation measures one workload: set-up (repeated, median reported),
the oracle, then ``seconds`` of timed rounds.  With ``trace`` off the
rounds go through the program's front door and yield the end-to-end
metrics; with ``trace`` on, half of the time goes to the same untraced
loop (exact counts, the base of the overhead ratio) and half to the
staged, span-recording driver that yields the per-layer numbers.

**Speed normalisation.**  The box the sizes were frozen on changes speed
under the benchmark's feet: a fixed pure-Python loop takes anywhere from
0.76 to 1.15 ms, in plateaus of a quarter second to tens of seconds, and
whole 10 s runs of identical work differed by 15 %.  Medians inside a run
cannot remove noise that lasts longer than the run, so a
:class:`Speedometer` times two fixed loops between ops and every time
measured is scaled to the speed those loops have on a quiet box — times
are reported as they would read at the reference speed.  On recorded
traces this cut the run-to-run spread of p50 from 10-12 % to 3-5 %.
The unscaled medians ride along in the detail line.
"""

from __future__ import annotations

import bisect
import gc
import importlib.util
import math
import os
import resource
import statistics
import threading
import time
import traceback
from collections import Counter, defaultdict

from repro.obs import write_chrome_trace
from repro.obs.history import env_fingerprint

from .metrics import END_TO_END, PER_LAYER
from .staged import ROOT, Recorder, analyse
from .workloads import FULL, WORKLOADS

MIN_OPS = 100  # p90 needs ten samples beyond it
SETUP_REPEATS = (3, 9)  # at least, at most
SETUP_BUDGET_S = 2.0  # stop repeating set-up once this much was spent
UNTRACED_SHARE = 0.5  # of --seconds, in a traced run

# span name → per-layer metric fed by the span's self time
SELF_METRIC = {
    "core.parser": "core.parser.parse_ms",
    "engine.fingerprint": "engine.fingerprint.ms",
    "engine.cache.lookup": "engine.cache.lookup_ms",
    "engine.cache.store": "engine.cache.store_ms",
    "heuristics.decompose": "heuristics.decompose_ms",
    "engine.plan.compile": "engine.plan.compile_ms",
    "plan.bag": "engine.plan.bag_ms",
    "sweep.semijoin": "db.sweep.semijoin_ms",
    "sweep.join": "db.sweep.join_ms",
    "serve.protocol.decode": "serve.protocol.decode_ms",
    "serve.protocol.encode": "serve.protocol.encode_ms",
    "incremental.live.apply": "incremental.live.apply_ms",
}
PEAK = "db.stats.max_intermediate"  # a high-water mark, not a sum

# Spans whose whole duration is a metric although children cover part.
TOTAL_METRIC = {
    "engine.plan.execute": "engine.plan.execute_ms",
    "incremental.live.read": "incremental.live.read_ms",
}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Speedometer:
    """Readings of how fast the box is running right now, as a factor
    (reference seconds / seconds now) to scale measured times by.

    One reading times two loops — interpreter arithmetic, and the
    tuple/dict/set churn the program's row operators are made of — and
    takes the geometric mean of their factors: either alone tracks the
    numpy-heavy workloads worse than the pair does.  The references are
    the loops' usual times on the box the sizes were frozen on.
    """

    ARITH_S = 1.0e-3
    CHURN_S = 0.9e-3
    GAP_S = 0.02  # between ops, read at most this often

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self.wall = self.cpu = 0.0  # spent reading, to subtract

    def read(self, force: bool = False) -> None:
        wall0 = time.perf_counter()
        if not force and self.times and wall0 - self.times[-1] < self.GAP_S:
            return
        cpu0 = _cpu_s()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        wall1 = time.perf_counter()
        rows = [(i * 7919 % 1009, i) for i in range(3000)]
        index: dict = {}
        for a, b in rows:
            index.setdefault(a, []).append(b)
        acc += sum(len(index.get(b % 1009, ())) for _, b in rows) + len(set(rows))
        wall2 = time.perf_counter()
        self.times.append(wall2)
        self.factors.append(
            math.sqrt(self.ARITH_S / (wall1 - wall0) * self.CHURN_S / (wall2 - wall1))
        )
        self.wall += wall2 - wall0
        self.cpu += _cpu_s() - cpu0

    def factor(self, start: float, end: float) -> float:
        """Mean of the readings around the interval: the last one taken
        before *start* and the first one taken after *end*."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return (self.factors[before] + self.factors[after]) / 2


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def set_up(cls, seed: int, sizes: dict):
    """Build and boot the workload several times; the last one is kept.
    Returns ``(workload, median scaled set-up seconds, repeats)``."""
    least, most = SETUP_REPEATS
    times: list[float] = []
    spent = 0.0
    meter = Speedometer()
    while True:
        gc.collect()
        meter.read(force=True)
        started = time.perf_counter()
        workload = cls(seed, sizes)
        workload.boot()
        ended = time.perf_counter()
        meter.read(force=True)
        times.append((ended - started) * meter.factor(started, ended))
        spent += ended - started
        if len(times) >= most or (len(times) >= least and spent >= SETUP_BUDGET_S):
            return workload, statistics.median(times), len(times)
        workload.close()


class Phase:
    """What one timed phase (untraced or staged) produced."""

    def __init__(self) -> None:
        # (shape, seconds as measured, the speed factor around the op)
        self.samples: list[tuple[str, float, float]] = []
        self.failed = 0
        self.first_error: str | None = None
        self.counts: Counter = Counter()  # exact window: the first round
        self.wall = 0.0  # scaled seconds inside rounds
        self.cpu = 0.0  # scaled
        self.hit_ratio = 0.0
        self.factors: list[float] = []  # one per round
        self.meter = Speedometer()
        self.lock = threading.Lock()

    @property
    def attempted(self) -> int:
        return len(self.samples)

    def latencies(self, scaled: bool = True) -> list[float]:
        return sorted(s * (f if scaled else 1.0) for _, s, f in self.samples)

    def mean_latency_ms(self) -> float:
        return statistics.fmean(s * f for _, s, f in self.samples) * 1e3

    def shape_medians_ms(self) -> dict[str, float]:
        groups = defaultdict(list)
        for shape, seconds, factor in self.samples:
            groups[shape].append(seconds * factor)
        return {s: statistics.median(v) * 1e3 for s, v in sorted(groups.items())}


def _client_round(workload, client, rec, phase, seq, counts):
    """One client's ops of one round; returns ``[(shape, start, end, ok)]``.
    A lone client reads the speedometer between ops; several would only
    measure each other, so their rounds are read at both ends alone."""
    out = []
    for op in workload.ops(client):
        if workload.clients == 1:
            phase.meter.read()
        started = time.perf_counter()
        try:
            if rec is None:
                raw = workload.call(client, op)
            else:
                raw = workload.staged(rec, client, seq, op)
            ended = time.perf_counter()
            ok = workload.observe(client, op, raw, counts)
        except Exception:  # a failed op is a data point, not a crash
            ended = time.perf_counter()
            ok = False
            with phase.lock:
                if phase.first_error is None:
                    phase.first_error = traceback.format_exc()
        out.append((op.shape, started, ended, ok))
        seq += 1
    return out


def _round(workload, rec, phase, index, counts):
    """One round on every client at once, between two speed readings."""
    meter = phase.meter
    workload.begin_round(index)
    results: dict[int, list] = {}
    # One tally per client: Counter updates are not atomic across threads.
    tallies = [Counter() for _ in range(workload.clients)]

    def run(client):
        seq = index * len(workload.ops(client))
        results[client] = _client_round(
            workload, client, rec, phase, seq,
            tallies[client] if counts is not None else None,
        )

    meter.read(force=True)
    first_reading = len(meter.factors) - 1
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    spent0 = meter.wall, meter.cpu
    if workload.clients == 1:
        run(0)
    else:
        threads = [
            threading.Thread(target=run, args=(c,), name=f"bench-client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - wall0 - (meter.wall - spent0[0])
    cpu = _cpu_s() - cpu0 - (meter.cpu - spent0[1])
    meter.read(force=True)
    factor = statistics.fmean(meter.factors[first_reading:])
    phase.factors.append(factor)
    phase.wall += wall * factor
    phase.cpu += cpu * factor
    for done in results.values():
        phase.samples += [
            (shape, end - start, meter.factor(start, end))
            for shape, start, end, _ in done
        ]
        phase.failed += sum(not ok for *_, ok in done)
    if counts is not None:
        for tally in tallies:
            peak = max(counts[PEAK], tally.pop(PEAK, 0))
            counts.update(tally)
            counts[PEAK] = peak


def drive(
    workload, seconds: float, rec: Recorder | None = None, min_ops: int = 0
) -> Phase:
    """The closed loop: whole rounds until *seconds* are up and the phase
    holds *min_ops* ops.  The exact counts are taken over the first round
    alone, so they do not depend on how many rounds the clock allows."""
    phase = Phase()
    gc.collect()
    deadline = time.perf_counter() + seconds
    before = workload.counters()
    _round(workload, rec, phase, 0, phase.counts)
    after = workload.counters()
    for key in ("heuristics.decompose_calls", "db.layout.columnar_bags",
                "db.layout.row_bags"):
        phase.counts[key] = round(after.get(key, 0) - before.get(key, 0))
    while time.perf_counter() < deadline or phase.attempted < min_ops:
        _round(workload, rec, phase, len(phase.factors), None)
    after = workload.counters()
    hits = after.get("cache.hits", 0) - before.get("cache.hits", 0)
    misses = after.get("cache.misses", 0) - before.get("cache.misses", 0)
    phase.hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    for key in ("serve.admission.shed", "serve.admission.max_queued"):
        phase.counts[key] = after.get(key, 0)
    return phase


def end_to_end(phase: Phase, setup_s: float) -> dict:
    ordered = phase.latencies()
    values = {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p90_ms": percentile(ordered, 0.90) * 1e3,
        "throughput_ops_s": (phase.attempted - phase.failed) / phase.wall,
        "cpu_ms_per_op": phase.cpu * 1e3 / phase.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}


def per_layer(workload, untraced, traced, rec, sample_means) -> dict:
    """Every per-layer metric.  ``*_ms`` values are mean contributions to
    one traced op (Σ span time / traced ops), so leaves add up to
    ``bench.traced_latency_ms`` minus the unattributed share."""
    spans = analyse(rec.tracer, len(workload.ops(0)))
    ops = spans["ops"]
    # Span times are as measured; one factor brings them to the reference
    # speed the untraced numbers are quoted at.
    per_op_ms = statistics.median(traced.factors) * 1e3 / ops
    values = {m.name: 0.0 for m in PER_LAYER}
    for span, metric in SELF_METRIC.items():
        values[metric] = spans["self"].get(span, 0.0) * per_op_ms
    for span, metric in TOTAL_METRIC.items():
        values[metric] = spans["total"].get(span, 0.0) * per_op_ms
    # execute_plan's own time: its span and the program's plan.execute
    # span inside it, minus the bag and sweep spans they contain.
    values["engine.plan.execute_self_ms"] = (
        spans["self"].get("engine.plan.execute", 0.0)
        + spans["self"].get("plan.execute", 0.0)
    ) * per_op_ms
    traced_s = spans["total"][ROOT]
    layers_s = sum(
        seconds for name, seconds in spans["self"].items() if name != ROOT
    )
    values["bench.traced_latency_ms"] = traced_s * per_op_ms
    values["bench.unattributed_ratio"] = 1.0 - layers_s / traced_s
    values["engine.executor.other_ms"] = (
        untraced.mean_latency_ms() - layers_s * per_op_ms
    )
    values["obs.traced_overhead_ratio"] = (
        (traced.wall / traced.attempted) / (untraced.wall / untraced.attempted)
    )
    ordered = untraced.latencies()
    if len(ordered) >= 1000:
        values["bench.latency_p99_ms"] = percentile(ordered, 0.99) * 1e3
    values["bench.speed_factor"] = statistics.median(
        untraced.factors + traced.factors
    )
    values["engine.cache.hit_ratio"] = untraced.hit_ratio
    values["engine.plan.bag_rows"] = spans["bag_rows"]
    values["db.database.load_facts_per_s"] = workload.load_rate
    values.update(sample_means)
    if "serve.server.engine_ms" in sample_means:
        values["serve.server.overhead_ms"] = (
            untraced.mean_latency_ms() - sample_means["serve.server.engine_ms"]
        )
    for name, value in untraced.counts.items():
        values[name] = value
    return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict | None = None,
    trace_out: str | None = None,
    corrupt: bool = False,
) -> tuple[dict, dict]:
    """Measure one workload.  Returns ``(result, detail)``: the contract's
    result object, and what the reports and ``compare.py`` need on top
    (sample counts, per-shape medians, sizes, environment).  *corrupt*
    damages one expected digest — the smoke test's proof that a wrong
    answer is counted as a failed op."""
    sizes = sizes if sizes is not None else FULL[name]
    workload, setup_s, repeats = set_up(WORKLOADS[name], seed, sizes)
    try:
        workload.verify()
        if corrupt:
            workload.expected[workload.ops(0)[0].key] = (-1, -1)
        if trace:
            rec = Recorder()
            untraced = drive(workload, seconds * UNTRACED_SHARE)
            # Taken now: the staged phase's round trips carry the replay.
            scale = statistics.median(untraced.factors)
            sample_means = {
                k: statistics.fmean(v) * scale
                for k, v in workload.samples.items()
            }
            traced = drive(workload, seconds * (1 - UNTRACED_SHARE), rec)
            phases = (untraced, traced)
        else:
            untraced = drive(workload, seconds, min_ops=MIN_OPS)
            phases = (untraced,)
    finally:
        workload.close()
    if trace:
        metrics = per_layer(workload, untraced, traced, rec, sample_means)
        if trace_out:
            write_chrome_trace(rec.tracer, trace_out)
    else:
        metrics = end_to_end(untraced, setup_s)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    unscaled = untraced.latencies(scaled=False)
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        # numpy's presence switches the program's columnar kernels.
        "numpy": importlib.util.find_spec("numpy") is not None,
        "nproc": os.cpu_count(),
        "env": env_fingerprint(),
        "setup_repeats": repeats,
        "samples": untraced.attempted,
        "rounds": len(untraced.factors),
        "failed_ops_ratio": failed / attempted,
        "shape_medians_ms": untraced.shape_medians_ms(),
        "speed_factor": statistics.median(untraced.factors),
        "unscaled_p50_ms": percentile(unscaled, 0.50) * 1e3,
        "unscaled_p90_ms": percentile(unscaled, 0.90) * 1e3,
        "problems": workload.problems,
        "first_error": next(
            (p.first_error for p in phases if p.first_error), None
        ),
    }
    return result, detail
