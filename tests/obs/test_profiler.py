"""Sampling profiler: fold losslessness, span tagging, zero-cost off."""

import json
import os
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_PROFILER,
    NULL_TRACER,
    Profile,
    SamplingProfiler,
    Tracer,
    current_profiler,
    current_tracer,
    fold_frame,
    profiling,
    tracing,
    write_collapsed,
    write_speedscope,
)

# Frame names as the folder renders them: no ';' (the stack separator)
# and no spaces (the collapsed-format count separator is the last one).
_frame = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.:<>", min_size=1, max_size=12
)
_stack = st.lists(_frame, min_size=1, max_size=6).map(";".join)
_profiles = st.dictionaries(_stack, st.integers(1, 50), min_size=0, max_size=20)


class TestFoldLossless:
    """The invariant: every transformation preserves total sample count."""

    @settings(max_examples=60, deadline=None)
    @given(counts=_profiles)
    def test_total_preserved_by_add_and_merge(self, counts):
        profile = Profile()
        for stack, count in counts.items():
            profile.add(stack, count)
        assert profile.total() == sum(counts.values())

        other = Profile()
        other.merge(profile)
        other.merge(list(counts.items()))
        assert other.total() == 2 * profile.total()

    @settings(max_examples=60, deadline=None)
    @given(counts=_profiles)
    def test_collapsed_round_trip(self, counts):
        profile = Profile()
        for stack, count in counts.items():
            profile.add(stack, count)
        parsed = Profile.from_collapsed(profile.collapsed())
        assert dict(parsed.items()) == dict(profile.items())
        assert parsed.total() == profile.total()

    @settings(max_examples=60, deadline=None)
    @given(counts=_profiles)
    def test_speedscope_weights_sum_to_total(self, counts):
        profile = Profile()
        for stack, count in counts.items():
            profile.add(stack, count)
        doc = profile.speedscope("t")
        [prof] = doc["profiles"]
        assert sum(prof["weights"]) == profile.total() == prof["endValue"]
        assert len(prof["samples"]) == len(prof["weights"]) == len(counts)
        frames = doc["shared"]["frames"]
        # Every sample's frame indices resolve, and re-joining them
        # reconstructs the folded stack exactly.
        rebuilt = {
            ";".join(frames[i]["name"] for i in indices): weight
            for indices, weight in zip(prof["samples"], prof["weights"])
        }
        assert rebuilt == counts


class TestFoldFrame:
    def test_renders_root_first_with_qualnames(self):
        def inner():
            return fold_frame(sys._getframe())

        def outer():
            return inner()

        stack = outer()
        parts = stack.split(";")
        me = os.path.basename(__file__)
        assert parts[-1].endswith("inner") and parts[-1].startswith(me)
        assert parts[-2].endswith("outer")
        # root-first: the innermost frame is last
        assert parts.index(parts[-2]) < parts.index(parts[-1])

    def test_depth_limit_truncates(self):
        def recurse(n):
            if n == 0:
                return fold_frame(sys._getframe(), limit=5)
            return recurse(n - 1)

        assert len(recurse(50).split(";")) == 5


class TestZeroCostOff:
    def test_default_is_null_profiler_without_sampler_thread(self):
        assert current_profiler() is NULL_PROFILER
        assert not NULL_PROFILER.enabled and not NULL_PROFILER.running
        assert not any(
            t.name == SamplingProfiler.THREAD_NAME
            for t in threading.enumerate()
        )

    def test_profiling_starts_and_stops_the_sampler(self):
        profiler = SamplingProfiler(hz=500)
        with profiling(profiler) as prof:
            assert prof is profiler and current_profiler() is profiler
            assert profiler.running
            assert any(
                t.name == SamplingProfiler.THREAD_NAME
                for t in threading.enumerate()
            )
        assert not profiler.running
        assert current_profiler() is NULL_PROFILER
        assert not any(
            t.name == SamplingProfiler.THREAD_NAME
            for t in threading.enumerate()
        )

    def test_profiling_is_reentrant(self):
        profiler = SamplingProfiler(hz=500)
        with profiling(profiler):
            with profiling(profiler):
                assert profiler.running
            assert profiler.running  # inner exit must not stop the outer
        assert not profiler.running

    def test_samples_are_read_where_they_are_taken(self):
        """The take-and-reset and import hooks that carried samples out
        of worker processes are gone and must not grow back."""
        for owner in (Profile, SamplingProfiler, NULL_PROFILER):
            for name in ("drain", "ingest"):
                assert not hasattr(owner, name), (owner, name)


class TestSampling:
    def _worker(self, ready, release, span_name=None):
        if span_name is None:
            ready.set()
            release.wait(5)
            return
        with current_tracer().span(span_name):
            ready.set()
            release.wait(5)

    def test_sample_once_tags_active_span(self):
        ready, release = threading.Event(), threading.Event()
        thread = threading.Thread(
            target=self._worker, args=(ready, release, "phase.semijoin")
        )
        profiler = SamplingProfiler(hz=1)
        with tracing(Tracer()):
            thread.start()
            assert ready.wait(5)
            profiler.sample_once()
            release.set()
            thread.join(5)
        stacks = [stack for stack, _ in profiler.profile.items()]
        assert any(s.startswith("span:phase.semijoin;") for s in stacks)

    def test_sample_once_untagged_without_tracer(self):
        ready, release = threading.Event(), threading.Event()
        thread = threading.Thread(target=self._worker, args=(ready, release))
        thread.start()
        assert ready.wait(5)
        profiler = SamplingProfiler(hz=1)
        profiler.sample_once()
        release.set()
        thread.join(5)
        assert not current_tracer().enabled
        assert all(
            not stack.startswith("span:")
            for stack, _ in profiler.profile.items()
        )


class TestExports:
    def test_write_speedscope_and_collapsed(self, tmp_path):
        profile = Profile()
        profile.add("a;b", 2)
        profile.add("a;c", 1)
        sp = tmp_path / "p.speedscope.json"
        txt = tmp_path / "p.collapsed"
        assert write_speedscope(profile, str(sp), name="t") == 3
        assert write_collapsed(profile, str(txt)) == 3
        doc = json.loads(sp.read_text())
        assert doc["$schema"].startswith("https://www.speedscope.app")
        assert sum(doc["profiles"][0]["weights"]) == 3
        assert Profile.from_collapsed(txt.read_text()).total() == 3
