"""End-to-end observability acceptance tests.

The centrepiece is the ISSUE's acceptance scenario: a sharded plan
executed on the process backend, where ``Engine.explain(analyze=True)``
must show actual-vs-estimated rows plus per-node wall time, and the
exported Chrome trace must contain the shard spans recorded *inside*
worker processes.  Alongside it: the no-op-tracer answer-identity
guarantee and the worker-span round trip through
``ProcessBackend.map_shards``.
"""

import json
import os
import random

import pytest

from repro.core.parser import parse_query
from repro.db.backend import ProcessBackend
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
    """Large enough that every plan node clears the sharding threshold."""
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
    ``sweep.*`` spans whether its operands are sharded or not."""

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

    def test_sequential_and_sharded_runs_trace_the_same_sweep(self):
        from collections import Counter

        db = path_db()
        query = parse_query(self.PATH3)
        runs = {}
        for kind, options in (
            ("sequential", {}),
            ("thread", {"backend_workers": 3, "shard_threshold": 0}),
        ):
            with Engine(backend=kind, **options) as engine:
                with tracing(Tracer()) as tracer:
                    answer = engine.execute(query, db).answer
                text = engine.explain(query, db, analyze=True)
            runs[kind] = (answer, self._sweep_spans(tracer), text)
        (seq_answer, seq_spans, seq_text) = runs["sequential"]
        (par_answer, par_spans, par_text) = runs["thread"]
        assert par_answer.rows == seq_answer.rows

        for span in seq_spans + par_spans:
            assert set(span.attrs) >= {"node", "pass_", "sharded", "rows"}
            assert (span.attrs["pass_"] == "enumerate") == (
                span.name == "sweep.join"
            )
        assert {s.attrs["pass_"] for s in seq_spans} == {
            "bottom-up", "top-down", "enumerate"
        }
        assert not any(s.attrs["sharded"] for s in seq_spans)
        assert any(s.attrs["sharded"] for s in par_spans)

        def key(span):
            return span.name, span.attrs["node"], span.attrs["pass_"]

        assert Counter(map(key, par_spans)) == Counter(map(key, seq_spans))
        assert self._sweep_ops(seq_text)
        assert self._sweep_ops(par_text) == self._sweep_ops(seq_text)


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


class TestProcessBackendAcceptance:
    """The ISSUE acceptance criterion, end to end."""

    def test_sharded_process_analyze_with_worker_spans(self, tmp_path):
        db = big_db()
        query = parse_query(QUERY)
        with Engine(backend="process") as engine, \
                tracing(Tracer()) as tracer:
            text = engine.explain(query, db, analyze=True)

            # --- the rendered EXPLAIN ANALYZE -------------------------
            assert "process backend" in text
            assert "nodes sharded" in text
            assert "est ->" in text and "actual rows" in text
            assert "shard tasks:" in text
            assert "worker-resident" in text

            # --- worker-side spans round-tripped into the tracer ------
            shard_spans = [
                s for s in tracer.spans() if s.name.startswith("shard:")
            ]
            assert shard_spans
            resident = [s for s in shard_spans if s.pid != os.getpid()]
            assert resident, "no spans recorded inside worker processes"
            assert {s.tid for s in resident} >= {"worker-0"}
            for span in resident:
                assert span.duration >= 0.0

            # --- and they survive Chrome-trace export -----------------
            path = tmp_path / "trace.json"
            write_chrome_trace(tracer, str(path))
            events = json.loads(path.read_text())
            assert validate_chrome_trace(events) == []
            worker_pids = {
                e["pid"]
                for e in events
                if e["ph"] == "X" and e["name"].startswith("shard:")
                and e["pid"] != os.getpid()
            }
            assert worker_pids, "exported trace lost the worker spans"
            labels = {
                e["args"]["name"]
                for e in events
                if e["name"] == "process_name"
            }
            assert any(label.startswith("repro worker") for label in labels)

    def test_answers_identical_with_and_without_tracing(self):
        db = big_db(edges=1500, seed=7)
        query = parse_query(QUERY)
        with Engine(backend="process") as engine:
            baseline = engine.execute(query, db)
            with tracing(Tracer()):
                traced = engine.execute(query, db)
        assert traced.answer.rows == baseline.answer.rows


class TestWorkerSpanRoundTrip:
    def test_map_shards_ships_spans_back(self):
        from repro.db.relation import Relation

        left = Relation.from_rows(
            ("a", "b"), [(i, i % 5) for i in range(40)], "l"
        )
        right = Relation.from_rows(
            ("b", "c"), [(i, i * 2) for i in range(5)], "r"
        )
        with ProcessBackend(workers=2) as backend, \
                tracing(Tracer()) as tracer:
            results = backend.map_shards(
                "semijoin_pair", [(left, right), (left, right)]
            )
            assert all(len(r) == len(left) for r in results)
            spans = tracer.find("shard:semijoin_pair")
            assert len(spans) == 2
            for span in spans:
                assert span.pid != os.getpid()
                assert span.tid.startswith("worker-")
                assert span.attrs["rows"] == len(left)
                assert span.end >= span.start

    def test_untraced_map_shards_ships_no_spans(self):
        from repro.db.relation import Relation

        rel = Relation.from_rows(("a",), [(1,), (2,)], "r")
        with ProcessBackend(workers=1) as backend:
            results = backend.map_shards("identity", [(rel,)])
        assert results[0].rows == rel.rows
        assert NULL_TRACER.spans() == []
