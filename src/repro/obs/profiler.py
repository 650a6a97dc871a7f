"""Continuous wall-clock sampling profiler (``repro.obs`` wave 2).

Spans (PR 6) say how long a phase took; they cannot say *where inside
the phase* the interpreter spent its time — and constant factors (probe
loops, hash-table builds, per-row tuples) decide whether the
tractability result actually wins on hardware.  This
module adds statistical profiles on top of the tracer:

* :class:`SamplingProfiler` — a daemon thread sampling
  ``sys._current_frames()`` at a configurable rate (default
  :data:`DEFAULT_HZ`).  Each sample walks one thread's frame stack into
  a collapsed *folded stack* string (``outer;inner;innermost``) and,
  when a live tracer is installed, prefixes it with the innermost
  active span (``span:sweep.semijoin;...``) — so flamegraphs attribute
  interpreter time to the pipeline phase that spent it.
* :class:`Profile` — the fold target: a thread-safe multiset of folded
  stacks.  Folding is *lossless by construction*: every sample adds
  exactly 1 to exactly one stack's count, merging sums counts, and both
  export formats carry the counts verbatim (property-tested).
* Exports — collapsed text (``stack count`` lines, the
  flamegraph.pl/inferno input format) and `speedscope
  <https://www.speedscope.app>`_ JSON via :meth:`Profile.speedscope`.

**Zero cost when off.**  Like the tracer, the off state is structural:
no sampler thread exists unless one is started, and the process-global
slot defaults to :data:`NULL_PROFILER` whose ``enabled`` is ``False``
(the benchmark gate in ``benchmarks/bench_obs.py`` additionally bounds
the *on* overhead at the default rate to <= 5%).
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Iterable

from .tracer import current_tracer

#: Environment variable switching profiling on for CLI entry points
#: (value = output path; "1" means "profile, default path").
PROFILE_ENV_VAR = "REPRO_PROFILE"

#: Default sampling rate.  99 Hz (not 100) so the sampler drifts
#: relative to any 10ms-periodic work instead of aliasing with it.
DEFAULT_HZ = 99.0

#: Frames deeper than this are truncated (pathological recursion guard).
MAX_STACK_DEPTH = 128


#: Rendered-name cache keyed by the code object itself (not ``id()``,
#: which CPython reuses after GC).  A process has a bounded set of code
#: objects, and caching keeps the per-sample cost to dict hits instead
#: of basename/format calls per frame — the sampler runs at 99 Hz on
#: the same GIL as the work it measures.
_frame_names: dict = {}


def _frame_name(code) -> str:
    name = _frame_names.get(code)
    if name is None:
        qual = getattr(code, "co_qualname", code.co_name)
        name = f"{os.path.basename(code.co_filename)}:{qual}"
        _frame_names[code] = name
    return name


def fold_frame(frame, limit: int = MAX_STACK_DEPTH) -> str:
    """Collapse a frame's call chain into ``outer;...;innermost``.

    Each frame renders as ``filename:qualname`` (basename only — full
    paths would make every environment's flamegraph unique).  The walk
    follows ``f_back`` innermost-to-outermost and is reversed, matching
    the collapsed-flamegraph convention of root-first stacks.
    """
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < limit:
        parts.append(_frame_name(frame.f_code))
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


class Profile:
    """A thread-safe multiset of folded stacks: ``stack -> samples``.

    The invariant every transformation preserves (and the hypothesis
    suite asserts): ``total()`` equals the number of ``add`` calls
    weighted by their counts, across ``merge``, ``collapsed`` round
    trips, and ``speedscope`` export.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def add(self, stack: str, count: int = 1) -> None:
        with self._lock:
            self._counts[stack] = self._counts.get(stack, 0) + count

    def merge(self, other: "Profile | Iterable[tuple[str, int]]") -> None:
        items = other.items() if isinstance(other, Profile) else other
        with self._lock:
            for stack, count in items:
                self._counts[stack] = self._counts.get(stack, 0) + count

    def items(self) -> list[tuple[str, int]]:
        """Snapshot of ``(folded stack, sample count)`` pairs."""
        with self._lock:
            return list(self._counts.items())

    def total(self) -> int:
        """Total number of samples across all stacks."""
        with self._lock:
            return sum(self._counts.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._counts)

    # -- exports ----------------------------------------------------------
    def collapsed(self) -> str:
        """The flamegraph.pl/inferno input format: ``stack count`` lines,
        deterministic order (count descending, then stack)."""
        return "\n".join(
            f"{stack} {count}"
            for stack, count in sorted(
                self.items(), key=lambda item: (-item[1], item[0])
            )
        )

    @classmethod
    def from_collapsed(cls, text: str) -> "Profile":
        """Parse :meth:`collapsed` output back (merge-friendly)."""
        profile = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            profile.add(stack, int(count))
        return profile

    def speedscope(self, name: str = "repro profile") -> dict:
        """The speedscope sampled-profile file format (one profile whose
        sample weights are the folded counts; sum(weights) == total())."""
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        samples: list[list[int]] = []
        weights: list[int] = []
        for stack, count in sorted(self.items()):
            indices = []
            for frame_name in stack.split(";"):
                idx = frame_index.get(frame_name)
                if idx is None:
                    idx = frame_index[frame_name] = len(frames)
                    frames.append({"name": frame_name})
                indices.append(idx)
            samples.append(indices)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro.obs.profiler",
            "name": name,
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
        }


class SamplingProfiler:
    """A background wall-clock sampler over ``sys._current_frames()``.

    Samples every live thread except its own at ``hz``; with a live
    tracer installed each sample is prefixed with that thread's
    innermost active span (``span:<name>``).  The sampler thread is a
    daemon named :data:`THREAD_NAME` — tests and the overhead gate
    assert no such thread exists while profiling is off.
    """

    THREAD_NAME = "repro-profiler"

    enabled = True

    def __init__(self, hz: float = DEFAULT_HZ, tag_spans: bool = True):
        self.hz = float(hz)
        if self.hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.tag_spans = tag_spans
        self.profile = Profile()
        self.samples_taken = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name=self.THREAD_NAME, daemon=True
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            self._stop.set()
            thread.join(timeout=2.0)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        interval = 1.0 / self.hz
        while not self._stop.wait(interval):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one sample of every other thread; returns stacks added.

        Public so tests can sample deterministically without the timing
        thread.
        """
        me = threading.get_ident()
        tracer = current_tracer() if self.tag_spans else None
        added = 0
        for ident, frame in sys._current_frames().items():
            if ident == me:
                continue
            stack = fold_frame(frame)
            if not stack:
                continue
            if tracer is not None and tracer.enabled:
                span = tracer.active_span(ident)
                if span is not None:
                    stack = f"span:{span};{stack}"
            self.profile.add(stack)
            added += 1
        self.samples_taken += 1
        return added


class NullProfiler:
    """The disabled profiler: no thread, no samples, no allocation."""

    enabled = False
    running = False
    hz = 0.0


NULL_PROFILER = NullProfiler()


# -- the process-global current profiler ------------------------------------

_current: "NullProfiler | SamplingProfiler" = NULL_PROFILER


def current_profiler() -> "NullProfiler | SamplingProfiler":
    """The installed profiler (default: the no-op)."""
    return _current


def set_profiler(profiler: "SamplingProfiler | NullProfiler | None") -> None:
    """Install *profiler* as the process-global current profiler
    (``None`` restores the no-op)."""
    global _current
    _current = profiler if profiler is not None else NULL_PROFILER


class profiling:
    """Context manager installing (and running) a profiler::

        with profiling(SamplingProfiler(hz=199)) as prof:
            engine.execute(query, db)
        write_speedscope(prof.profile, "profile.speedscope.json")

    Starts the sampler thread on entry (if not already running), stops
    it and restores the previous profiler on exit.  Re-entrant like
    :func:`~repro.obs.tracer.tracing`: installing the already-current
    profiler neither restarts nor stops it.
    """

    def __init__(self, profiler: "SamplingProfiler | NullProfiler"):
        self.profiler = profiler
        self._previous: "SamplingProfiler | NullProfiler | None" = None

    def __enter__(self) -> "SamplingProfiler | NullProfiler":
        self._previous = current_profiler()
        if self._previous is not self.profiler:
            set_profiler(self.profiler)
            if isinstance(self.profiler, SamplingProfiler):
                self.profiler.start()
        return self.profiler

    def __exit__(self, *exc_info) -> None:
        if self._previous is not self.profiler:
            if isinstance(self.profiler, SamplingProfiler):
                self.profiler.stop()
            set_profiler(self._previous)


def profile_path_from_env() -> str | None:
    """The profile output path requested by ``$REPRO_PROFILE`` (same
    conventions as ``$REPRO_TRACE``: unset/empty/"0" = off, a bare
    truthy switch = default path, anything else = the path)."""
    raw = os.environ.get(PROFILE_ENV_VAR, "").strip()
    if not raw or raw == "0":
        return None
    if raw.lower() in ("1", "true", "yes", "on"):
        return "profile.speedscope.json"
    return raw


def write_speedscope(profile: Profile, path: str, name: str = "repro profile") -> int:
    """Write *profile* as a speedscope JSON file; returns total samples."""
    import json

    doc = profile.speedscope(name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return sum(doc["profiles"][0]["weights"])


def write_collapsed(profile: Profile, path: str) -> int:
    """Write *profile* in collapsed flamegraph format; returns total
    samples."""
    text = profile.collapsed()
    with open(path, "w") as fh:
        fh.write(text + ("\n" if text else ""))
    return profile.total()
