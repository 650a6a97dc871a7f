"""End-to-end observability acceptance tests.

``Engine.explain(analyze=True)`` must show actual-vs-estimated rows plus
per-node wall time, and the exported Chrome trace must carry every span
of the request.  Alongside it: the no-op-tracer answer-identity
guarantee and one span vocabulary for the sweep whatever the layout.
"""

import json
import os
import random
import sys
import threading

import pytest

from repro.core.parser import parse_query
from repro.db.database import Database
from repro.engine import Engine
from repro.obs import (
    NULL_TRACER,
    FlightRecorder,
    Tracer,
    chrome_trace_events,
    current_tracer,
    get_registry,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)


def path_db(edges: int = 60, seed: int = 3) -> Database:
    rng = random.Random(seed)
    rows = {(rng.randrange(20), rng.randrange(20)) for _ in range(edges)}
    return Database.from_relations({"e": sorted(rows)})


def big_db(edges: int = 3000, seed: int = 0) -> Database:
    """A few thousand rows: ``auto`` runs the path query columnar on the
    numpy kernels."""
    rng = random.Random(seed)
    rows = {
        (rng.randrange(400), rng.randrange(400)) for _ in range(edges)
    }
    return Database.from_relations({"e": sorted(rows)})


QUERY = "ans(X,Z) :- e(X,Y), e(Y,Z)"


class TestNoOpIdentity:
    def test_untraced_and_traced_answers_identical(self):
        """Tracing must never change answers: same rows, attributes and
        flags with the null tracer and a live tracer."""
        db = path_db()
        query = parse_query(QUERY)
        with Engine() as engine:
            baseline = engine.execute(query, db)
        with Engine() as engine, tracing(Tracer()):
            traced = engine.execute(query, db)
        assert traced.answer.rows == baseline.answer.rows
        assert traced.answer.attributes == baseline.answer.attributes
        assert traced.boolean == baseline.boolean

    def test_default_tracer_is_null_and_records_nothing(self):
        assert current_tracer() is NULL_TRACER or not current_tracer().enabled
        db = path_db()
        with Engine() as engine:
            engine.execute(parse_query(QUERY), db)
        assert NULL_TRACER.spans() == []


class TestPipelineSpans:
    def test_execute_records_spans_from_every_layer(self):
        db = path_db()
        with Engine() as engine, tracing(Tracer()) as tracer:
            result = engine.execute(parse_query(QUERY), db)
        names = {s.name for s in tracer.spans()}
        assert {
            "engine.execute",
            "plan.cache_lookup",
            "plan.compile",
            "plan.bag",
            "plan.execute",
            "decompose",
            "sweep.semijoin",
            "sweep.join",
        } <= names
        (request,) = tracer.find("engine.execute")
        assert request.attrs["rows"] == len(result.answer)
        assert request.attrs["cache_hit"] is False
        for bag in tracer.find("plan.bag"):
            assert bag.attrs["rows"] >= 0 and bag.attrs["est"] >= 0

    def test_flight_recorder_used_without_ambient(self):
        recorder = FlightRecorder()
        db = path_db()
        with Engine(flight=recorder) as engine:
            engine.execute(parse_query(QUERY), db)
        assert recorder.tracer.find("engine.execute")

    def test_ambient_tracer_wins_over_flight_recorder(self):
        recorder, ambient = FlightRecorder(), Tracer()
        db = path_db()
        with Engine(flight=recorder) as engine, tracing(ambient):
            engine.execute(parse_query(QUERY), db)
        assert ambient.find("engine.execute")
        assert not recorder.tracer.find("engine.execute")


class TestSweepSpanVocabulary:
    """One sweep driver, one span vocabulary: a plan traces the same
    ``sweep.*`` spans whichever carrier its bags are — and only the
    passes its head needs."""

    PATH3 = "ans(W,Z) :- e(W,X), e(X,Y), e(Y,Z)"
    STAR = "ans(X) :- e(X,A), e(X,B), e(X,C)"

    #: case -> (query, semiring, the (span, pass) kinds its sweep runs).
    #: No bag of the 3-path holds both W and Z, so it runs every pass; a
    #: bag of the star holds X, and rooted there the star needs only the
    #: bottom-up semijoins under set semantics and only the joins that
    #: fold its counts.
    CASES = {
        "path3 ans(W,Z)": (PATH3, None, {
            ("sweep.semijoin", "bottom-up"),
            ("sweep.semijoin", "top-down"),
            ("sweep.join", "enumerate"),
        }),
        "star ans(X)": (STAR, None, {("sweep.semijoin", "bottom-up")}),
        "star ans(X), count": (STAR, "count", {("sweep.join", "enumerate")}),
    }

    @staticmethod
    def _sweep_spans(tracer):
        return [
            s for s in tracer.spans()
            if s.name in ("sweep.semijoin", "sweep.join")
        ]

    @staticmethod
    def _sweep_ops(text):
        """node -> N of the "sweep … over N op(s)" analyze lines."""
        import re

        return dict(
            re.findall(r"^  (\w+): .*sweep \S+ over (\d+) op", text, re.M)
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_and_columnar_runs_trace_the_same_sweep(self, case):
        from collections import Counter

        text, semiring, kinds = self.CASES[case]
        db = path_db()
        query = parse_query(text)
        runs = {}
        for layout in ("row", "columnar"):
            with Engine(layout=layout) as engine:
                with tracing(Tracer()) as tracer:
                    result = engine.execute(query, db, semiring=semiring)
                text = engine.explain(
                    query, db, analyze=True, semiring=semiring
                )
            runs[layout] = (result, self._sweep_spans(tracer), text)
        (row_result, row_spans, row_text) = runs["row"]
        (col_result, col_spans, col_text) = runs["columnar"]
        assert row_result.answer
        assert col_result.answer.rows == row_result.answer.rows
        assert col_result.annotations == row_result.annotations

        for span in row_spans + col_spans:
            assert set(span.attrs) == {"node", "pass_", "rows"}
            assert (span.attrs["pass_"] == "enumerate") == (
                span.name == "sweep.join"
            )
        assert {(s.name, s.attrs["pass_"]) for s in row_spans} == kinds

        def key(span):
            return span.name, span.attrs["node"], span.attrs["pass_"]

        assert Counter(map(key, col_spans)) == Counter(map(key, row_spans))
        assert self._sweep_ops(row_text)
        assert self._sweep_ops(col_text) == self._sweep_ops(row_text)


class TestExplainAnalyze:
    def test_analyze_requires_database(self):
        with Engine() as engine:
            with pytest.raises(ValueError, match="needs db"):
                engine.explain(parse_query(QUERY), analyze=True)

    def test_plain_explain_has_no_actuals(self):
        db = path_db()
        with Engine() as engine:
            text = engine.explain(parse_query(QUERY), db)
        assert "actual" not in text

    def test_analyze_annotates_estimates_with_actuals(self):
        db = path_db()
        with Engine() as engine:
            text = engine.explain(parse_query(QUERY), db, analyze=True)
        assert "analyze: executed in" in text
        assert "per-node actuals" in text
        assert "est ->" in text and "actual rows" in text
        assert "bag " in text  # per-node bag wall time

    def test_read_after_write_is_attributable_to_a_snapshot_rebuild(self):
        """Single-atom bags say whether they reused the base relation's
        snapshot: the first read encodes (``built``), a warm read is all
        ``reused``, the first read after a small write patches the
        previous buffers (``derived``) — in the spans, in EXPLAIN
        ANALYZE and in the exported Chrome trace."""
        db = path_db()
        query = parse_query(QUERY)

        def bag_snapshots(tracer):
            return [s.attrs.get("snapshot") for s in tracer.find("plan.bag")]

        with Engine(layout="columnar") as engine:
            with tracing(Tracer()) as cold:
                engine.execute(query, db)
            assert bag_snapshots(cold) == ["built", "reused"]
            with tracing(Tracer()) as warm:
                engine.execute(query, db)
            assert set(bag_snapshots(warm)) == {"reused"}
            text = engine.explain(query, db, analyze=True)
            assert "(snapshot reused)" in text and "built" not in text

            db.add_fact("e", 100, 101)
            with tracing(Tracer()) as after_write:
                engine.execute(query, db)
            # One derivation serves both bags over e; the second reuses it.
            assert bag_snapshots(after_write) == ["derived", "reused"]
            exported = [
                e["args"].get("snapshot")
                for e in chrome_trace_events(after_write)
                if e["name"] == "plan.bag"
            ]
            assert exported == ["derived", "reused"]
            db.add_fact("e", 101, 102)
            assert "(snapshot derived)" in engine.explain(
                query, db, analyze=True
            )
            # A change as large as the relation encodes afresh.
            for row in sorted(db.rows("e"))[1:]:
                db.remove_fact("e", *row)
            with tracing(Tracer()) as rewritten:
                engine.execute(query, db)
            assert bag_snapshots(rewritten) == ["built", "reused"]

    def test_another_requests_build_is_not_billed_to_this_bag(self):
        """Whether a bag's bind built its snapshot is read off the atom's
        own snapshot: while one thread keeps rebuilding another
        database's snapshots (a write before each read), every warm bag
        of a second thread, on a database nobody writes, says
        ``reused`` — a process-wide build counter compared across the
        bind would bill it the other thread's builds."""
        warm_db, busy_db = path_db(), path_db(seed=4)
        query = parse_query(QUERY)
        stop = threading.Event()
        errors: list[BaseException] = []

        tracer = Tracer(max_spans=200_000)

        def rebuild():
            try:
                # Columnar: the bind itself builds the new version's
                # buffers (the compile has already built its rows).  A
                # tracer is installed per thread, so the writer installs
                # the shared one itself.
                with Engine(layout="columnar") as engine, tracing(tracer):
                    i = 0
                    while not stop.is_set():
                        busy_db.add_fact("e", 1000 + i, 1001 + i)
                        engine.execute(query, busy_db)
                        i += 1
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Engine(layout="columnar") as engine:
                engine.execute(query, warm_db)
                with tracing(tracer):
                    writer = threading.Thread(target=rebuild, name="writer")
                    writer.start()
                    try:
                        for _ in range(300):
                            engine.execute(query, warm_db)
                    finally:
                        stop.set()
                        writer.join(timeout=30)
            assert not writer.is_alive() and not errors
        finally:
            sys.setswitchinterval(interval)
        bags = tracer.find("plan.bag")
        mine = [s.attrs["snapshot"] for s in bags if s.tid != "writer"]
        theirs = {s.attrs["snapshot"] for s in bags if s.tid == "writer"}
        assert len(mine) == 600 and set(mine) == {"reused"}
        assert "built" in theirs

    def test_analyze_plans_once_without_a_cache(self):
        """The rendered plan is the one the analyzed request ran: with
        the cache off, one decomposition search, not a second one to
        render."""
        with Engine(cache_size=0) as engine:
            text = engine.explain(parse_query(QUERY), path_db(), analyze=True)
            assert engine.decompositions == 1
        assert "analyze: executed in" in text

    def test_analyze_records_no_phantom_cache_hit(self):
        """A fresh shape misses once and replays nothing: no cache hit
        and no ``plan.reused`` from re-planning after the execution."""
        reused = get_registry().counter("plan.reused")
        before = reused.value
        with Engine() as engine:
            engine.explain(parse_query(QUERY), path_db(), analyze=True)
            assert engine.cache.hits == 0
        assert reused.value == before

    def test_analyze_feeds_outer_ambient_tracer(self):
        """Under a CLI-style ambient tracer the analyze run records into
        it, so ``--trace`` exports include the analyzed execution."""
        db = path_db()
        with Engine() as engine, tracing(Tracer()) as tracer:
            engine.explain(parse_query(QUERY), db, analyze=True)
        assert tracer.find("engine.execute")
        assert tracer.find("plan.bag")

    def test_analyze_bills_only_its_own_request(self):
        """An ambient tracer holding earlier requests' spans: each node's
        sweep is still the analysed request's operators alone, as under
        a private tracer."""
        db = path_db()
        query = parse_query(QUERY)
        ops = TestSweepSpanVocabulary._sweep_ops
        with Engine() as engine:
            private = engine.explain(query, db, analyze=True)
            with tracing(Tracer()) as tracer:
                for _ in range(5):
                    engine.execute(query, db)
                ambient = engine.explain(query, db, analyze=True)
        assert len(tracer.find("plan.execute")) == 6
        assert ops(private)
        assert ops(ambient) == ops(private)


class TestLargeRequestAcceptance:
    """A request over a few thousand rows, end to end: analyze output,
    the exported trace, and answers that tracing does not change."""

    def test_analyze_and_trace_export(self, tmp_path):
        db = big_db()
        query = parse_query(QUERY)
        with Engine() as engine, tracing(Tracer()) as tracer:
            text = engine.explain(query, db, analyze=True)

            assert "est ->" in text and "actual rows" in text
            assert "backend" not in text and "shard" not in text

            path = tmp_path / "trace.json"
            write_chrome_trace(tracer, str(path))
            events = json.loads(path.read_text())
            assert validate_chrome_trace(events) == []
            names = {e["name"] for e in events if e["ph"] == "X"}
            assert {"engine.execute", "plan.bag", "sweep.semijoin"} <= names
            assert {e["pid"] for e in events} == {os.getpid()}
            labels = {
                e["args"]["name"]
                for e in events
                if e["name"] == "process_name"
            }
            assert labels == {"repro"}

    def test_answers_identical_with_and_without_tracing(self):
        db = big_db(edges=1500, seed=7)
        query = parse_query(QUERY)
        with Engine() as engine:
            baseline = engine.execute(query, db)
            with tracing(Tracer()):
                traced = engine.execute(query, db)
        assert traced.answer.rows == baseline.answer.rows
