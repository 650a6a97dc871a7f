"""A process-global metrics registry: counters, gauges, histograms.

The registry absorbs the counter bags scattered across the stack —
:class:`~repro.db.stats.EvalStats` operator counts, the plan cache's
hit/miss/eviction numbers, snapshot builds and reuses, and
:class:`~repro.incremental.live.LiveEngine` per-batch maintenance
stats — into one named, thread-safe, exportable
surface (``repro stats``, ``--metrics out.json``).

Three instrument kinds:

* :class:`Counter` — monotonically increasing float (``inc``);
* :class:`Gauge` — last-write-wins float (``set``);
* :class:`Histogram` — fixed-bucket latency/size distribution with
  count/sum/min/max and quantile estimation (p50/p95/p99 in exports).
  Buckets are fixed at construction, so ``observe`` is O(log buckets)
  with no allocation, safe on hot paths.  Quantiles interpolate linearly
  inside the bracketing bucket and clamp to the observed min/max, so an
  estimate always lies within the bucket that contains the true sample
  quantile (property-tested in ``tests/obs/test_metrics.py``).

Instruments are created on first use (``registry.counter("x").inc()``)
and a name permanently denotes one instrument of one kind — asking for
the same name as a different kind raises, catching wiring typos early.

The process-global registry (:func:`get_registry`) exists because the
instrumented layers (db, engine, incremental) must not thread a registry
parameter through every signature; tests that need isolation construct
private :class:`MetricsRegistry` instances or call
:meth:`MetricsRegistry.reset`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Mapping

#: Default histogram buckets: exponential, 10µs → ~100s, suited to both
#: operator latencies and request latencies.  The upper edges are the
#: ``le`` (less-or-equal) bounds; one implicit +inf bucket catches the
#: rest.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for base in (1.0, 2.5, 5.0)
)

#: Buckets for tuple/row volumes (1 → 10M, exponential).
DEFAULT_SIZE_BUCKETS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
    for base in (1.0, 2.5, 5.0)
)


class Counter:
    """A monotonically increasing metric."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins metric (pool sizes, cache occupancy)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket distribution with quantile estimation.

    ``bounds`` are ascending upper (``le``) edges; samples above the
    last edge land in the implicit +inf bucket.  Quantile estimates
    interpolate linearly within the bracketing bucket, clamped to the
    observed ``[min, max]`` — so for the +inf bucket the estimate is the
    observed maximum, never infinity.
    """

    __slots__ = (
        "name", "bounds", "_counts", "_count", "_sum", "_min", "_max",
        "_lock",
    )

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(set(float(b) for b in bounds)))
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs >= 1 bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +1: the +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0 ≤ q ≤ 1) from the buckets.

        The true sample quantile lies in some bucket ``(lo, hi]``; the
        estimate interpolates by rank inside that bucket and clamps to
        the observed min/max, so ``lo ≤ estimate ≤ hi`` always brackets
        correctly.  Returns ``nan`` with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self._count == 0:
                return float("nan")
            # Rank of the q-quantile sample, 1-based, nearest-rank.
            rank = max(1, round(q * self._count))
            cumulative = 0
            for index, bucket_count in enumerate(self._counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    lo = self.bounds[index - 1] if index > 0 else self._min
                    hi = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self._max
                    )
                    fraction = (rank - cumulative) / bucket_count
                    estimate = lo + (hi - lo) * fraction
                    return min(max(estimate, self._min), self._max)
                cumulative += bucket_count
            return self._max  # pragma: no cover - rank always <= count

    def snapshot(self) -> dict:
        """Exportable summary: count/sum/min/max, p50/p95/p99, and the
        non-empty buckets as ``[le, count]`` pairs."""
        with self._lock:
            count, total = self._count, self._sum
            observed_min = self._min if count else None
            observed_max = self._max if count else None
            buckets = [
                [
                    self.bounds[i] if i < len(self.bounds) else None,
                    bucket_count,
                ]
                for i, bucket_count in enumerate(self._counts)
                if bucket_count
            ]
        row: dict = {
            "count": count,
            "sum": total,
            "min": observed_min,
            "max": observed_max,
            "mean": (total / count) if count else None,
            "buckets": buckets,
        }
        if count:
            row["p50"] = self.quantile(0.50)
            row["p95"] = self.quantile(0.95)
            row["p99"] = self.quantile(0.99)
        return row


class ScopedRegistry:
    """A prefixing view of a :class:`MetricsRegistry`.

    ``registry.scoped("tenant.acme").counter("requests")`` is the
    instrument named ``tenant.acme.requests`` in the parent registry —
    the label lives in the name, so the flat snapshot/export machinery
    needs no schema change and :func:`group_scoped` can fold the names
    back into per-label groups (``repro stats --json``).
    """

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self.prefix = prefix.rstrip(".")

    def counter(self, name: str) -> Counter:
        return self._registry.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(f"{self.prefix}.{name}")

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        return self._registry.histogram(f"{self.prefix}.{name}", bounds)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self._registry, f"{self.prefix}.{prefix}")


def group_scoped(snapshot: Mapping, scope: str = "tenant") -> dict:
    """Fold ``<scope>.<label>.<metric>`` instruments of a snapshot into
    ``{label: {metric: value}}`` groups.

    The inverse of :class:`ScopedRegistry` naming, used by ``repro stats
    --json`` to expose per-tenant labels as structure instead of leaving
    clients to parse dotted names.  Histograms contribute their summary
    dict, counters and gauges their value.
    """
    marker = scope + "."
    grouped: dict[str, dict[str, object]] = {}
    for kind in ("counters", "gauges", "histograms"):
        for name, value in snapshot.get(kind, {}).items():
            if not name.startswith(marker):
                continue
            label, _, metric = name[len(marker):].partition(".")
            if not label or not metric:
                continue
            grouped.setdefault(label, {})[metric] = value
    return grouped


class MetricsRegistry:
    """Named instruments, created on first use, exported as one snapshot.

    Thread-safe: instrument creation is guarded by the registry lock and
    each instrument guards its own updates.  One name maps permanently
    to one instrument of one kind.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
                return instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self,
        name: str,
        bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def scoped(self, prefix: str) -> ScopedRegistry:
        """A view whose instrument names carry ``prefix.`` — the
        label-in-name scheme per-tenant metrics use
        (``tenant.<id>.requests``)."""
        return ScopedRegistry(self, prefix)

    def record_eval(self, stats, prefix: str = "eval") -> None:
        """Absorb an :class:`~repro.db.stats.EvalStats` counter bag."""
        self.counter(f"{prefix}.joins").inc(stats.joins)
        self.counter(f"{prefix}.semijoins").inc(stats.semijoins)
        self.counter(f"{prefix}.projections").inc(stats.projections)
        self.counter(f"{prefix}.tuples_produced").inc(
            stats.total_tuples_produced
        )
        self.histogram(f"{prefix}.max_intermediate", DEFAULT_SIZE_BUCKETS).observe(
            stats.max_intermediate
        )
        for note, value in stats.notes.items():
            self.counter(f"{prefix}.note.{note}").inc(max(0.0, value))

    def record_cache(self, snapshot: Mapping[str, float], prefix: str = "plan_cache") -> None:
        """Absorb a :meth:`~repro.engine.cache.PlanCache.snapshot` —
        gauges, since the cache already accumulates its own counters."""
        for key, value in snapshot.items():
            self.gauge(f"{prefix}.{key}").set(float(value))

    def snapshot(self) -> dict:
        """One JSON-ready view of every instrument, grouped by kind."""
        with self._lock:
            instruments = dict(self._instruments)
        counters = {}
        gauges = {}
        histograms = {}
        for name in sorted(instruments):
            instrument = instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.snapshot()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the instrumented layers record into."""
    return _REGISTRY
