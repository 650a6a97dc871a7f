"""Unit tests for :mod:`repro.obs.export`: Chrome trace-event layout,
the schema validator, and the metrics/trace renderers."""

import json

import pytest

from repro.obs.export import (
    chrome_trace_events,
    metrics_snapshot,
    render_metrics,
    render_trace_summary,
    spans_by_attr,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    with t.span("plan.bag", node="n0", est=10) as sp:
        sp.set(rows=8)
    with t.span("plan.execute"):
        pass
    # a span another thread recorded, at a known offset
    t._record(
        Span("sweep.semijoin", t.created + 0.001, t.created + 0.002, t.pid,
             "worker-0", {"rows": 5})
    )
    return t


class TestChromeTraceEvents:
    def test_complete_events_rebased_microseconds(self, tracer):
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3
        for e in complete:
            assert e["ts"] >= 0
            assert e["dur"] >= 0
        sweep = next(e for e in complete if e["name"] == "sweep.semijoin")
        assert sweep["ts"] == pytest.approx(1000.0)  # 1ms after creation
        assert sweep["dur"] == pytest.approx(1000.0)
        assert sweep["args"] == {"rows": 5}

    def test_metadata_events_name_tracks(self, tracer):
        events = chrome_trace_events(tracer)
        thread_names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert "worker-0" in thread_names
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["name"] == "process_name"
        }
        assert process_names == {tracer.pid: "repro"}

    def test_distinct_tracks_get_distinct_tids(self, tracer):
        events = chrome_trace_events(tracer)
        complete = [e for e in events if e["ph"] == "X"]
        worker = {e["tid"] for e in complete if e["name"] == "sweep.semijoin"}
        main = {e["tid"] for e in complete if e["name"] != "sweep.semijoin"}
        assert main and worker and main.isdisjoint(worker)

    def test_non_scalar_attrs_fall_back_to_repr(self):
        t = Tracer()
        with t.span("x", shape=(1, 2)):
            pass
        (event,) = [e for e in chrome_trace_events(t) if e["ph"] == "X"]
        assert event["args"]["shape"] == "(1, 2)"

    def test_validator_accepts_own_output(self, tracer):
        assert validate_chrome_trace(chrome_trace_events(tracer)) == []

    def test_write_round_trips_through_json(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded) == count
        assert validate_chrome_trace(loaded) == []


class TestValidator:
    def test_rejects_non_array(self):
        assert validate_chrome_trace({"not": "a list"})
        assert validate_chrome_trace(None)

    def test_flags_empty_trace(self):
        assert "no events" in validate_chrome_trace([])[0]

    def test_flags_missing_fields(self):
        problems = validate_chrome_trace(
            [
                "not an object",
                {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 0},  # no name
                {"name": "a", "pid": 1, "tid": 1},  # no ph
                {"name": "a", "ph": "X", "pid": "x", "tid": 1, "ts": 0,
                 "dur": 0},  # pid not int
                {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": -5,
                 "dur": 0},  # negative ts
                {"name": "a", "ph": "M", "pid": 1, "tid": 0,
                 "args": "nope"},  # args not object
            ]
        )
        assert len(problems) == 6

    def test_valid_minimal_trace(self):
        assert validate_chrome_trace(
            [{"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
              "dur": 1.0, "args": {}}]
        ) == []


class TestMetricsExport:
    def test_snapshot_of_private_registry(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        snap = metrics_snapshot(reg)
        assert snap["counters"] == {"a": 2.0}

    def test_write_metrics_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.02)
        path = tmp_path / "metrics.json"
        returned = write_metrics_snapshot(str(path), reg)
        loaded = json.loads(path.read_text())
        assert loaded == returned
        assert loaded["gauges"]["g"] == 1.5
        assert loaded["histograms"]["h"]["count"] == 1

    def test_render_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.5)
        text = render_metrics(reg.snapshot())
        assert "c = 3" in text
        assert "g = 7" in text
        assert "count=1" in text

    def test_render_metrics_empty(self):
        assert render_metrics({}) == "(no metrics recorded)"


class TestRenderTraceSummary:
    def test_totals_and_tracks(self, tracer):
        text = render_trace_summary(chrome_trace_events(tracer))
        assert "2 thread track(s)" in text
        assert "sweep.semijoin" in text
        assert "plan.bag" in text


class TestSpansByAttr:
    def test_groups_by_attribute(self):
        spans = [
            Span("plan.bag", 0, 1, 1, "t", {"node": "n0"}),
            Span("plan.bag", 1, 2, 1, "t", {"node": "n1"}),
            Span("plan.bag", 2, 3, 1, "t", {"node": "n0"}),
            Span("other", 0, 1, 1, "t", {"node": "n0"}),
            Span("plan.bag", 0, 1, 1, "t", {}),  # no node attr: skipped
        ]
        grouped = spans_by_attr(spans, "plan.bag", "node")
        assert sorted(grouped) == ["n0", "n1"]
        assert len(grouped["n0"]) == 2
