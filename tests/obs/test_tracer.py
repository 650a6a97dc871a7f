"""Unit tests for :mod:`repro.obs.tracer`: spans, the null tracer, the
per-context current tracer, the open-span table, and the env switch."""

import os
import sys
import threading

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_ENV_VAR,
    NullTracer,
    Span,
    Tracer,
    active_span,
    current_tracer,
    iter_leaf_totals,
    trace_path_from_env,
    tracing,
)


class TestSpanRecording:
    def test_span_records_interval_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", node="n0") as sp:
            sp.set(rows=7)
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.attrs == {"node": "n0", "rows": 7}
        assert span.end >= span.start
        assert span.duration >= 0.0
        assert span.pid == os.getpid()
        assert span.tid == threading.current_thread().name

    def test_nested_spans_both_recorded(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.spans()]
        # inner closes first (flat append order), outer encloses it
        assert names == ["inner", "outer"]
        inner, outer = tracer.spans()
        assert outer.start <= inner.start and inner.end <= outer.end

    def test_add_accumulates(self):
        tracer = Tracer()
        with tracer.span("loop") as sp:
            sp.add("rows", 3)
            sp.add("rows", 4)
        assert tracer.spans()[0].attrs["rows"] == 7

    def test_exception_tagged_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"

    def test_find_and_total(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("a"):
                pass
        with tracer.span("b"):
            pass
        assert len(tracer.find("a")) == 3
        assert tracer.total("a") >= 0.0
        assert tracer.total("missing") == 0.0

    def test_max_spans_drops_beyond_cap(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_thread_safety_under_concurrent_spans(self):
        tracer = Tracer()

        def worker():
            for _ in range(200):
                with tracer.span("t"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 800
        assert len({s.tid for s in tracer.spans()}) == 4


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        first = NULL_TRACER.span("a", x=1)
        second = NULL_TRACER.span("b")
        assert first is second  # one preallocated no-op object

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("a") as sp:
            sp.set(rows=5)
            sp.add("rows", 1)
        assert NULL_TRACER.spans() == []

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("a"):
                raise RuntimeError


class TestCurrentTracerSlot:
    def test_default_is_null(self):
        assert isinstance(current_tracer(), (NullTracer, Tracer))

    def test_tracing_installs_and_restores(self):
        before = current_tracer()
        tracer = Tracer()
        with tracing(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_tracing_reentrant_same_tracer(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracing(tracer):
                assert current_tracer() is tracer
            # inner exit must not clobber the outer installation
            assert current_tracer() is tracer

    def test_nested_tracers_restore_in_order(self):
        outer, inner = Tracer(), Tracer()
        with tracing(outer):
            with tracing(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_tracing_restores_on_exception(self):
        before = current_tracer()
        with pytest.raises(KeyError):
            with tracing(Tracer()):
                raise KeyError
        assert current_tracer() is before

    def test_another_thread_does_not_see_the_installation(self):
        seen = []
        with tracing(Tracer()):
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer())
            )
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen == [NULL_TRACER]


class TestEnvSwitch:
    def test_unset_empty_zero_mean_off(self, monkeypatch):
        for value in (None, "", "0", "  "):
            if value is None:
                monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
            else:
                monkeypatch.setenv(TRACE_ENV_VAR, value)
            assert trace_path_from_env() is None

    def test_bare_switch_means_default_path(self, monkeypatch):
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv(TRACE_ENV_VAR, value)
            assert trace_path_from_env() == "trace.json"

    def test_other_value_is_the_path(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "/tmp/my_trace.json")
        assert trace_path_from_env() == "/tmp/my_trace.json"


class TestLeafTotals:
    def test_totals_sorted_descending(self):
        spans = [
            Span("fast", 0.0, 0.1, 1, "t"),
            Span("slow", 0.0, 1.0, 1, "t"),
            Span("fast", 0.0, 0.2, 1, "t"),
        ]
        rows = list(iter_leaf_totals(spans))
        assert rows[0] == ("slow", pytest.approx(1.0), 1)
        assert rows[1] == ("fast", pytest.approx(0.3), 2)


class TestDropGuardSurfacing:
    """PR 7: the max_spans drop guard must be visible, not silent —
    dropped spans bump the ``tracer.spans_dropped`` metrics counter
    (which ``repro stats`` turns into a truncation warning)."""

    def test_drops_increment_metrics_counter(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = registry.counter("tracer.spans_dropped").value
        tracer = Tracer(max_spans=1)
        for _ in range(4):
            with tracer.span("x"):
                pass
        assert tracer.dropped == 3
        assert registry.counter("tracer.spans_dropped").value == before + 3

    def test_ring_mode_evicts_instead_of_dropping(self):
        tracer = Tracer(max_spans=2, ring=True)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.spans()] == ["s3", "s4"]
        assert tracer.evicted == 3 and tracer.dropped == 0

    def test_view_since_filters_by_start_and_thread(self):
        import time

        tracer = Tracer(ring=True)
        with tracer.span("old"):
            pass
        cut = time.perf_counter()
        with tracer.span("new"):
            pass

        def record():
            with tracer.span("other thread"):
                pass

        thread = threading.Thread(target=record)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(tracer) == 3
        view = tracer.view_since(cut)
        assert [s.name for s in view.spans()] == ["new"]
        assert view is not tracer


class TestActiveSpans:
    def test_innermost_active_span_per_thread(self):
        tracer = Tracer()
        ident = threading.get_ident()
        assert active_span(ident) is None
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert active_span(ident) == "inner"
            assert active_span(ident) == "outer"
        assert active_span(ident) is None

    def test_spans_of_every_tracer_share_one_stack(self):
        ident = threading.get_ident()
        with Tracer().span("outer"):
            with Tracer(ring=True).span("inner"):
                assert active_span(ident) == "inner"
            assert active_span(ident) == "outer"
        assert active_span(ident) is None

    def test_null_spans_are_never_active(self):
        with NULL_TRACER.span("a"):
            assert active_span(threading.get_ident()) is None


class TestTracerPerThread:
    """Each thread records into the tracer it installed: a second
    thread's installation neither steals this thread's spans nor lends
    it its own."""

    def test_two_threads_keep_their_own_request_spans(self):
        from repro import Engine, parse_query
        from repro.db import Database

        db = Database.from_relations(
            {"e": [(i, (i * 7 + 3) % 40) for i in range(120)]}
        )
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z)")
        requests = 200
        names = ("left", "right")
        tracers = {name: Tracer() for name in names}
        barrier = threading.Barrier(len(names))
        errors: list[BaseException] = []

        def run(name):
            try:
                with Engine() as engine:
                    engine.execute(query, db)  # warm: plan once
                    barrier.wait(timeout=30)
                    with tracing(tracers[name]):
                        for _ in range(requests):
                            engine.execute(query, db)
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=run, args=(name,), name=name)
                for name in names
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for name, tracer in tracers.items():
            assert {s.tid for s in tracer.spans()} == {name}
            assert len(tracer.find("engine.execute")) == requests


class TestOneProcess:
    """A request's spans are recorded in the process that runs it: the
    import path for spans recorded elsewhere is gone and must not grow
    back."""

    def test_no_import_path_for_foreign_spans(self):
        import repro.obs
        import repro.obs.tracer as tracer_module

        for cls in (Tracer, NullTracer):
            assert not hasattr(cls, "ingest"), cls
        for module in (tracer_module, repro.obs):
            assert not hasattr(module, "span_tuple"), module

    def test_spans_carry_this_process(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.pid == os.getpid()
        assert {s.pid for s in tracer.spans()} == {os.getpid()}
