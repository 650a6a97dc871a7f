"""End-to-end observability acceptance tests.

``Engine.explain(analyze=True)`` must show actual-vs-estimated rows plus
per-node wall time, and the exported Chrome trace must carry every span
of the request.  Alongside it: the no-op-tracer answer-identity
guarantee and one span vocabulary for the sweep whatever the layout.
"""

import json
import os
import random

import pytest

from repro.core.parser import parse_query
from repro.db.database import Database
from repro.engine import Engine
from repro.obs import (
    NULL_TRACER,
    Tracer,
    chrome_trace_events,
    current_tracer,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)


def path_db(edges: int = 60, seed: int = 3) -> Database:
    rng = random.Random(seed)
    rows = {(rng.randrange(20), rng.randrange(20)) for _ in range(edges)}
    return Database.from_relations({"e": sorted(rows)})


def big_db(edges: int = 3000, seed: int = 0) -> Database:
    """Large enough that every plan resolves ``auto`` to columnar."""
    rng = random.Random(seed)
    rows = {
        (rng.randrange(400), rng.randrange(400)) for _ in range(edges)
    }
    return Database.from_relations({"e": sorted(rows)})


QUERY = "ans(X,Z) :- e(X,Y), e(Y,Z)"


class TestNoOpIdentity:
    def test_untraced_and_traced_answers_identical(self):
        """Tracing must never change answers: same rows, attributes and
        flags with the null tracer, a live tracer, and an Engine-owned
        tracer."""
        db = path_db()
        query = parse_query(QUERY)
        with Engine() as engine:
            baseline = engine.execute(query, db)
        with Engine() as engine, tracing(Tracer()):
            traced = engine.execute(query, db)
        with Engine(tracer=Tracer()) as engine:
            owned = engine.execute(query, db)
        for other in (traced, owned):
            assert other.answer.rows == baseline.answer.rows
            assert other.answer.attributes == baseline.answer.attributes
            assert other.boolean == baseline.boolean

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

    def test_engine_owned_tracer_used_without_ambient(self):
        tracer = Tracer()
        db = path_db()
        with Engine(tracer=tracer) as engine:
            engine.execute(parse_query(QUERY), db)
        assert tracer.find("engine.execute")

    def test_ambient_tracer_wins_over_engine_tracer(self):
        owned, ambient = Tracer(), Tracer()
        db = path_db()
        with Engine(tracer=owned) as engine, tracing(ambient):
            engine.execute(parse_query(QUERY), db)
        assert ambient.find("engine.execute")
        assert not owned.find("engine.execute")


class TestSweepSpanVocabulary:
    """One sweep driver, one span vocabulary: a plan traces the same
    ``sweep.*`` spans whichever carrier its bags are."""

    PATH3 = "ans(X,W) :- e(X,Y), e(Y,Z), e(Z,W)"

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

    def test_row_and_columnar_runs_trace_the_same_sweep(self):
        from collections import Counter

        db = path_db()
        query = parse_query(self.PATH3)
        runs = {}
        for layout in ("row", "columnar"):
            with Engine(layout=layout) as engine:
                with tracing(Tracer()) as tracer:
                    answer = engine.execute(query, db).answer
                text = engine.explain(query, db, analyze=True)
            runs[layout] = (answer, self._sweep_spans(tracer), text)
        (row_answer, row_spans, row_text) = runs["row"]
        (col_answer, col_spans, col_text) = runs["columnar"]
        assert col_answer.rows == row_answer.rows

        for span in row_spans + col_spans:
            assert set(span.attrs) == {"node", "pass_", "rows"}
            assert (span.attrs["pass_"] == "enumerate") == (
                span.name == "sweep.join"
            )
        assert {s.attrs["pass_"] for s in row_spans} == {
            "bottom-up", "top-down", "enumerate"
        }

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
        snapshot: a warm read is all ``reused``, the first read after a
        write ``built`` — in the spans, in EXPLAIN ANALYZE and in the
        exported Chrome trace."""
        db = path_db()
        query = parse_query(QUERY)

        def bag_snapshots(tracer):
            return [s.attrs.get("snapshot") for s in tracer.find("plan.bag")]

        with Engine(layout="columnar") as engine:
            engine.execute(query, db)
            with tracing(Tracer()) as warm:
                engine.execute(query, db)
            assert set(bag_snapshots(warm)) == {"reused"}
            text = engine.explain(query, db, analyze=True)
            assert "(snapshot reused)" in text and "built" not in text

            db.add_fact("e", 100, 101)
            with tracing(Tracer()) as after_write:
                engine.execute(query, db)
            # One rebuild serves both bags over e; the second reuses it.
            assert bag_snapshots(after_write) == ["built", "reused"]
            exported = [
                e["args"].get("snapshot")
                for e in chrome_trace_events(after_write)
                if e["name"] == "plan.bag"
            ]
            assert exported == ["built", "reused"]
            db.add_fact("e", 101, 102)
            assert "(snapshot built)" in engine.explain(
                query, db, analyze=True
            )

    def test_analyze_feeds_outer_ambient_tracer(self):
        """Under a CLI-style ambient tracer the analyze run records into
        it, so ``--trace`` exports include the analyzed execution."""
        db = path_db()
        with Engine() as engine, tracing(Tracer()) as tracer:
            engine.explain(parse_query(QUERY), db, analyze=True)
        assert tracer.find("engine.execute")
        assert tracer.find("plan.bag")


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
