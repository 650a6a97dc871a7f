"""Flight recorder: ring bounds and ordering under concurrency, the
slow-query log, dump gating, and the crash-dump integration paths
(budget exhaustion, an operator failing mid-request)."""

import json
import os
import re
import threading
import time

import pytest

from repro._errors import BudgetExceeded, EvaluationError
from repro.core.parser import parse_query
from repro.db.database import Database
from repro.db.yannakakis import Bag, Semijoin
from repro.engine import Engine
from repro.obs import (
    FlightRecorder,
    get_flight_recorder,
    render_flight,
    span_forest,
    tracing,
)
from repro.obs.flight import FLIGHT_ENV_VAR


def _db(n=300):
    return Database.from_relations(
        {"e": [(i, (i + 1) % n) for i in range(n)]}
    )


def _span_names(nodes):
    """Every span name in a dumped span tree."""
    for node in nodes:
        yield node["name"]
        yield from _span_names(node["children"])


def _outlast_bag(monkeypatch, bag):
    """Make *bag*'s operator outlast the request's deadline; returns the
    nodes of the bags that ran, in run order."""
    real, ran = Bag.run, []

    def run(op, rels, stats, ctx):
        real(op, rels, stats, ctx)
        ran.append(op.node)
        if op.node == bag.node:
            time.sleep(max(0.0, ctx.deadline - time.monotonic()) + 0.01)

    monkeypatch.setattr(Bag, "run", run)
    return ran


class TestRing:
    def test_events_ordered_and_bounded(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(20):
            recorder.record("tick", i=i)
        events = recorder.events()
        assert len(events) == len(recorder) == 8
        assert [e.seq for e in events] == list(range(12, 20))
        assert [e.payload["i"] for e in events] == list(range(12, 20))
        assert recorder.recorded == 20

    def test_bound_and_unique_seq_under_concurrent_writers(self):
        recorder = FlightRecorder(capacity=64)
        n_threads, per_thread = 4, 100

        def write(tid):
            for i in range(per_thread):
                recorder.record("tick", tid=tid, i=i)

        threads = [
            threading.Thread(target=write, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        events = recorder.events()
        assert len(events) == 64  # bounded, oldest evicted
        seqs = [e.seq for e in events]
        # seq is the total order across concurrent writers: unique, and
        # only recent entries survive eviction.
        assert len(set(seqs)) == len(seqs)
        total = n_threads * per_thread
        assert recorder.recorded == total
        assert min(seqs) >= total - 64 - n_threads
        assert max(seqs) < total

    def test_kind_filter_and_clear(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("a", x=1)
        recorder.record("b", x=2)
        assert [e.kind for e in recorder.events(kind="b")] == ["b"]
        recorder.clear()
        assert recorder.events() == [] and recorder.recorded == 0

    def test_snapshot_nests_recent_spans(self):
        recorder = FlightRecorder(capacity=8)
        with tracing(recorder.tracer) as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
        snapshot = recorder.snapshot(reason="test")
        assert snapshot["flight"] == 1 and snapshot["pid"] == os.getpid()
        [root] = snapshot["recent_spans"]
        assert root["name"] == "outer"
        assert [c["name"] for c in root["children"]] == ["inner"]
        assert "outer" in render_flight(snapshot)

    def test_span_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=4, span_capacity=3)
        with tracing(recorder.tracer) as tracer:
            for i in range(6):
                with tracer.span(f"s{i}"):
                    pass
        names = [s.name for s in recorder.tracer.spans()]
        assert names == ["s3", "s4", "s5"]
        assert recorder.tracer.evicted == 3


class TestDumpGating:
    def test_no_destination_means_no_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FLIGHT_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        recorder = FlightRecorder()
        recorder.record("tick")
        assert recorder.dump("reason") is None
        assert list(tmp_path.iterdir()) == []

    def test_explicit_path_wins(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("tick", n=1)
        path = recorder.dump("why", path=str(tmp_path / "d.json"))
        doc = json.loads(open(path).read())
        assert doc["reason"] == "why"
        assert [e["kind"] for e in doc["events"]] == ["tick"]

    def test_env_directory_gets_numbered_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, str(tmp_path))
        recorder = FlightRecorder()
        recorder.record("tick")
        first = recorder.dump("a")
        second = recorder.dump("b")
        assert os.path.dirname(first) == str(tmp_path)
        assert first != second and recorder.dumps == 2
        assert json.loads(open(second).read())["reason"] == "b"


class TestSlowQueryLog:
    def test_slow_query_captures_explain_and_digest(self):
        flight = FlightRecorder()
        engine = Engine(slow_query_ms=0.0, flight=flight)
        result = engine.execute(parse_query("e(X,Y), e(Y,Z)"), _db(50))
        assert len(result.answer) > 0

        [request] = flight.events(kind="request")
        assert request.payload["digest"]
        assert request.payload["elapsed_ms"] >= 0

        [slow] = flight.events(kind="slow_query")
        assert slow.payload["digest"] == request.payload["digest"]
        assert "analyze" in slow.payload["explain"]

    def test_fast_queries_not_logged_with_high_threshold(self):
        flight = FlightRecorder()
        engine = Engine(slow_query_ms=60_000.0, flight=flight)
        engine.execute(parse_query("e(X,Y)"), _db(10))
        assert flight.events(kind="slow_query") == []
        assert len(flight.events(kind="request")) == 1

    def test_flight_false_disables_recording(self):
        engine = Engine(flight=False)
        assert engine.flight is None
        before = len(get_flight_recorder().events())
        engine.execute(parse_query("e(X,Y)"), _db(10))
        assert len(get_flight_recorder().events()) == before


class TestFailureDumps:
    def test_budget_exceeded_dumps_flight(self, tmp_path):
        flight = FlightRecorder()
        dump = tmp_path / "dump.json"
        engine = Engine(flight=flight, flight_dump=str(dump))
        with pytest.raises(BudgetExceeded):
            engine.execute(
                parse_query("e(X,Y), e(Y,Z), e(Z,X)"), _db(30), budget=0.0
            )
        doc = json.loads(dump.read_text())
        assert doc["flight"] == 1
        assert "BudgetExceeded" in doc["reason"]
        [error] = [e for e in doc["events"] if e["kind"] == "error"]
        assert error["error"] == "BudgetExceeded"

    def test_a_budget_spent_on_the_bags_stops_the_next_sweep_operator(
        self, tmp_path, monkeypatch
    ):
        """The deadline passes once the last bag is built: the program
        checks it before every operator, so the first sweep operator
        raises, naming itself, and the dump still holds the request."""
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z)")
        db = _db(30)
        dump = tmp_path / "dump.json"
        engine = Engine(flight=FlightRecorder(), flight_dump=str(dump))
        last = engine.plan(query, db).program().bags[-1]
        _outlast_bag(monkeypatch, last)
        with pytest.raises(
            BudgetExceeded, match=r"during semijoin n\d by n\d \(bottom-up\)"
        ):
            engine.execute(query, db, budget=0.5)

        doc = json.loads(dump.read_text())
        assert "BudgetExceeded" in doc["reason"]
        [error] = [e for e in doc["events"] if e["kind"] == "error"]
        assert error["error"] == "BudgetExceeded" and error["digest"]

        ran = set(_span_names(error["spans"]))
        assert {"engine.execute", "plan.execute", "plan.bag"} <= ran
        assert not {"sweep.semijoin", "sweep.join"} & ran

    def test_a_budget_spent_between_two_bags_stops_the_second(
        self, monkeypatch
    ):
        """A bag is an operator of the program: a deadline that passes
        while the first bag is built raises before the second, naming
        it, and the second bag never starts."""
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z)")
        db = _db(30)
        engine = Engine(flight=FlightRecorder())
        first, second = engine.plan(query, db).program().bags
        ran = _outlast_bag(monkeypatch, first)
        with pytest.raises(
            BudgetExceeded, match=f"during {re.escape(str(second))}$"
        ):
            engine.execute(query, db, budget=0.5)
        assert ran == [first.node]

    def test_failure_mid_request_dumps_span_tree_and_digest(
        self, tmp_path, monkeypatch
    ):
        """A sweep operator fails after the bags are built; the
        auto-dump carries the failing request's span tree and plan
        digest."""
        dump = tmp_path / "dump.json"
        flight = FlightRecorder()
        engine = Engine(flight=flight, flight_dump=str(dump))
        query = parse_query("ans(X,Z) :- e(X,Y), e(Y,Z)")
        db = _db(400)
        result = engine.execute(query, db)  # healthy
        assert len(result.answer) > 0

        def fail(*args, **kwargs):
            raise EvaluationError("sweep failed")

        monkeypatch.setattr(Semijoin, "run", fail)
        with pytest.raises(EvaluationError):
            engine.execute(query, db)

        doc = json.loads(dump.read_text())
        [error] = [e for e in doc["events"] if e["kind"] == "error"]
        # The failing request's plan digest matches the healthy
        # request's (same query, same cached plan)...
        [request] = [e for e in doc["events"] if e["kind"] == "request"]
        assert error["digest"] == request["digest"]
        # ...and its span tree is in the dump, nested.
        assert error["spans"], "failing request's span tree missing"

        assert {"engine.execute", "plan.execute", "plan.bag"} <= set(
            _span_names(error["spans"])
        )

    def test_no_dump_file_without_destination(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FLIGHT_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        flight = FlightRecorder()
        engine = Engine(flight=flight)
        with pytest.raises(BudgetExceeded):
            engine.execute(parse_query("e(X,Y), e(Y,Z)"), _db(30), budget=0.0)
        # The ring recorded the error; no file appeared anywhere.
        assert [e.kind for e in flight.events()].count("error") == 1
        assert list(tmp_path.iterdir()) == []


class TestConcurrentRequests:
    """Two requests share one flight ring.  A second thread's request runs
    start to finish inside a slow one; what the slow one captures — its
    EXPLAIN ANALYZE, its failure span tree — holds its own spans only."""

    QUERY = "ans(X,Z) :- e(X,Y), e(Y,Z)"

    def _nest(self, monkeypatch, engine, fail=False):
        """The next request, once its plan is compiled, runs a 5-row
        request of the same shape on a second thread to completion — and
        then fails, with *fail* — before it executes its own plan."""
        import repro.engine.executor as executor_module

        real = executor_module.execute_plan
        small = parse_query(self.QUERY, name="small")
        nested = []

        def execute_plan(plan, db, **kwargs):
            if not nested:
                nested.append(small)
                thread = threading.Thread(
                    target=engine.execute, args=(small, _db(5)),
                    name="concurrent",
                )
                thread.start()
                thread.join(timeout=30)
                assert not thread.is_alive()
                if fail:
                    raise EvaluationError("failed after the nested request")
            return real(plan, db, **kwargs)

        monkeypatch.setattr(executor_module, "execute_plan", execute_plan)

    def test_a_slow_query_explains_its_own_spans(self, monkeypatch):
        flight = FlightRecorder()
        engine = Engine(slow_query_ms=0.0, flight=flight)
        big, db = parse_query(self.QUERY, name="big"), _db(400)
        engine.execute(big, db)  # compiles
        engine.execute(big, db)  # replays, alone
        self._nest(monkeypatch, engine)
        engine.execute(big, db)  # replays, another request inside it

        def untimed(event):
            return re.sub(r"\d+\.\d+ms", "ms", event.payload["explain"])

        alone, nested = [
            untimed(e) for e in flight.events(kind="slow_query")
            if e.payload["query"] == "big"
        ][1:]
        assert "over 2 op(s)" in alone
        assert nested == alone

    def test_a_failure_dumps_its_own_span_tree(self, monkeypatch):
        flight = FlightRecorder()
        engine = Engine(flight=flight)
        big, db = parse_query(self.QUERY, name="big"), _db(400)
        engine.execute(big, db)
        self._nest(monkeypatch, engine, fail=True)
        with pytest.raises(EvaluationError):
            engine.execute(big, db)
        [error] = flight.events(kind="error")
        roots = error.payload["spans"]
        assert [root["tid"] for root in roots] == [
            threading.current_thread().name
        ]
        assert roots[0]["attrs"]["query"] == "big"


def test_span_forest_handles_interleaved_tracks():
    from repro.obs.tracer import Span

    spans = [
        Span("a", 0.0, 10.0, pid=1, tid="t1"),
        Span("b", 1.0, 5.0, pid=1, tid="t1"),
        Span("c", 0.5, 9.0, pid=2, tid="t2"),
        Span("d", 6.0, 9.0, pid=1, tid="t1"),
    ]
    forest = span_forest(spans)
    by_name = {n["name"]: n for n in forest}
    assert set(by_name) == {"a", "c"}
    assert [c["name"] for c in by_name["a"]["children"]] == ["b", "d"]
    assert by_name["c"]["children"] == []
