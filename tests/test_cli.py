"""Tests for the ``python -m repro`` command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main


@pytest.fixture
def facts_file(tmp_path: pathlib.Path) -> str:
    path = tmp_path / "facts.txt"
    path.write_text(
        "# a triangle\n"
        "e(1, 2).\n"
        "e(2, 3).\n"
        "e(3, 1).\n"
        "\n"
        "label(1, 'start').\n"
    )
    return str(path)


class TestWidth:
    def test_inline_query(self, capsys):
        assert main(["width", "e(X,Y), e(Y,Z), e(Z,X)"]) == 0
        out = capsys.readouterr().out
        assert "hypertree-width: 2" in out
        assert "acyclic: False" in out

    def test_with_qw(self, capsys):
        assert main(["width", "e(X,Y), e(Y,Z), e(Z,X)", "--qw"]) == 0
        assert "query-width: 2" in capsys.readouterr().out

    def test_qw_guard(self, capsys):
        query = ", ".join(f"p{i}(X{i}, X{i+1})" for i in range(12))
        assert main(["width", query, "--qw", "--qw-limit", "5"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_query_from_file(self, tmp_path, capsys):
        f = tmp_path / "q.cq"
        f.write_text("ans() :- r(X, Y), s(Y, Z).")
        assert main(["width", str(f)]) == 0
        assert "acyclic: True" in capsys.readouterr().out

    def test_upper_bound_skips_exact(self, capsys):
        assert main(["width", "e(X,Y), e(Y,Z), e(Z,X)", "--upper-bound"]) == 0
        out = capsys.readouterr().out
        assert "hw lower bound: 2" in out
        assert "hw upper bound (heuristic" in out
        assert "hypertree-width:" not in out

    def test_upper_bound_builds_one_primal_graph(self, monkeypatch, capsys):
        """Both bounds read the graph the command built, neither builds
        its own."""
        import repro.cli
        import repro.heuristics.bounds as bounds

        built = []
        real = repro.cli.primal_graph
        monkeypatch.setattr(
            repro.cli, "primal_graph", lambda q: built.append(q) or real(q)
        )
        monkeypatch.setattr(bounds, "primal_graph", None)  # must not run
        assert main(["width", "e(X,Y), e(Y,Z), e(Z,X)", "--upper-bound"]) == 0
        assert len(built) == 1
        assert "hw upper bound (heuristic" in capsys.readouterr().out


class TestDecompose:
    def test_optimal(self, capsys):
        assert main(["decompose", "e(X,Y), e(Y,Z), e(Z,X)"]) == 0
        assert "width: 2" in capsys.readouterr().out

    def test_bounded_failure(self, capsys):
        assert main(["decompose", "e(X,Y), e(Y,Z), e(Z,X)", "-k", "1"]) == 1
        assert "no hypertree decomposition" in capsys.readouterr().out

    def test_atom_representation(self, capsys):
        assert main(["decompose", "r(X,Y,Q), s(Y,Z), t(Z,X)", "--atoms"]) == 0
        out = capsys.readouterr().out
        assert "width:" in out

    def test_strategy_heuristic(self, capsys):
        assert (
            main(
                ["decompose", "e(X,Y), e(Y,Z), e(Z,X)", "--strategy", "heuristic"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "width: 2" in out
        assert "heuristic" in out

    def test_strategy_auto(self, capsys):
        assert (
            main(["decompose", "e(X,Y), e(Y,Z), e(Z,X)", "--strategy", "auto"])
            == 0
        )
        assert "width: 2" in capsys.readouterr().out

    def test_heuristic_bounded_failure_is_clean(self, capsys):
        # the triangle's lower bound (2) meets the heuristic width, so the
        # portfolio *proves* no width-1 decomposition exists
        code = main(
            ["decompose", "e(X,Y), e(Y,Z), e(Z,X)", "--strategy", "heuristic", "-k", "1"]
        )
        assert code == 1
        assert "no decomposition of width <= 1 exists" in capsys.readouterr().out

    def test_heuristic_bounded_failure_without_proof(self, capsys):
        """A non-optimal (budget-fallback) result must not claim
        nonexistence.  This query's bracket is [3, 4] and budget 0 forces
        the fallback, so the outcome is deterministic."""
        query = ", ".join(
            f"e{i}(X{i},X{(i+1) % 10},X{(i+4) % 10})" for i in range(10)
        )
        code = main(
            ["decompose", query, "--strategy", "auto", "--budget", "0", "-k", "3"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "existence not determined" in out
        assert "exists" not in out

    def test_budget_exhausted_is_clean(self, capsys):
        """An exhausted budget exits 1 with a message, never a traceback."""
        query = ", ".join(
            f"e{i}(X{i},X{(i+1) % 14},X{(i+3) % 14})" for i in range(14)
        )
        code = main(["decompose", query, "--strategy", "exact", "--budget", "0.05"])
        assert code == 1
        assert "budget exhausted" in capsys.readouterr().out

    def test_auto_budget_falls_back(self, capsys):
        query = ", ".join(
            f"e{i}(X{i},X{(i+1) % 14},X{(i+3) % 14})" for i in range(14)
        )
        code = main(["decompose", query, "--strategy", "auto", "--budget", "0.05"])
        assert code == 0
        assert "width:" in capsys.readouterr().out


class TestEvaluate:
    def test_boolean_true(self, facts_file, capsys):
        assert main(["evaluate", "e(X,Y), e(Y,Z), e(Z,X)", facts_file]) == 0
        assert "answer: True" in capsys.readouterr().out

    def test_boolean_false(self, facts_file, capsys):
        assert (
            main(["evaluate", "e(X,X)", facts_file, "--method", "naive"]) == 0
        )
        assert "answer: False" in capsys.readouterr().out

    def test_non_boolean(self, facts_file, capsys):
        assert main(["evaluate", "ans(X) :- e(X, Y), e(Y, Z).", facts_file]) == 0
        out = capsys.readouterr().out
        assert "answers (3 rows" in out

    def test_stats_flag(self, facts_file, capsys):
        assert (
            main(
                ["evaluate", "e(X,Y), e(Y,Z)", facts_file, "--stats"]
            )
            == 0
        )
        assert "stats:" in capsys.readouterr().out

    def test_quoted_constants_loaded(self, facts_file, capsys):
        assert main(["evaluate", "label(X, 'start')", facts_file]) == 0
        assert "answer: True" in capsys.readouterr().out


class TestRun:
    def test_single_query(self, facts_file, capsys):
        assert main(["run", facts_file, "e(X,Y), e(Y,Z), e(Z,X)"]) == 0
        out = capsys.readouterr().out
        assert "Q0: True" in out
        assert "batch: 1 queries" in out

    def test_shared_plan_across_renamed_queries(self, facts_file, capsys):
        # workers=1 keeps the miss-then-hit sequence deterministic; with a
        # pool the two same-shape queries could race and both miss.
        code = main(
            [
                "run",
                facts_file,
                "e(X,Y), e(Y,Z), e(Z,X)",
                "e(A,B), e(B,C), e(C,A)",
                "--workers",
                "1",
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cache hits" in out or "cache hits" in out
        assert "'hits': 1" in out

    def test_repeat_warms_cache(self, facts_file, capsys):
        code = main(
            ["run", facts_file, "e(X,Y), e(Y,Z), e(Z,X)", "--repeat", "2"]
        )
        assert code == 0
        assert "[cached plan]" in capsys.readouterr().out

    def test_non_boolean_answers(self, facts_file, capsys):
        assert main(["run", facts_file, "ans(X) :- e(X, Y)."]) == 0
        assert "3 answers" in capsys.readouterr().out

    def test_budget_failure_exits_one(self, facts_file, capsys):
        code = main(
            ["run", facts_file, "e(X,Y), e(Y,Z), e(Z,X)", "--budget", "0"]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "explain", "watch", "serve"])
    def test_the_backend_flag_is_gone(self, facts_file, command, capsys):
        """No command takes ``--backend`` any more: naming one is an
        argument error (exit 2), never a silent sequential run."""
        args = {
            "run": ["run", facts_file, "ans(X) :- e(X, Y)."],
            "explain": ["explain", "ans(X) :- e(X, Y).", facts_file],
            "watch": ["watch", "ans(X) :- e(X, Y).", facts_file],
            "serve": ["serve", facts_file],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, "--backend", "process"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_semiring_flag_reports_count_total(self, facts_file, capsys):
        # Triangle: each X has exactly one two-hop path, so 3 derivations.
        code = main(
            ["run", facts_file, "ans(X) :- e(X, Y), e(Y, Z).",
             "--semiring", "count"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count total 3" in out

    def test_semiring_flag_boolean_query(self, facts_file, capsys):
        code = main(
            ["run", facts_file, "e(X,Y), e(Y,Z), e(Z,X)",
             "--semiring", "count"]
        )
        assert code == 0
        assert "count total" in capsys.readouterr().out

    def test_unknown_relation_exits_one_readably(self, facts_file, capsys):
        code = main(["run", facts_file, "ans(X) :- nosuch(X, Y)."])
        assert code == 1
        out = capsys.readouterr().out
        assert "unknown relation" in out
        assert "nosuch" in out
        assert "Traceback" not in out


class TestExplain:
    def test_explain_with_facts(self, facts_file, capsys):
        assert main(["explain", "e(X,Y), e(Y,Z), e(Z,X)", facts_file]) == 0
        out = capsys.readouterr().out
        assert "width 2" in out
        assert "join tree" in out
        assert "root" in out

    def test_explain_semiring(self, facts_file, capsys):
        query = "ans(X,Z) :- e(X,Y), e(Y,Z)."
        args = ["explain", query, facts_file, "--layout", "columnar"]
        assert main([*args, "--semiring", "mincost"]) == 0
        assert "columnar" not in capsys.readouterr().out
        assert main([*args, "--semiring", "count", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyze: executed in" in out and "actual rows" in out
        with pytest.raises(SystemExit):
            main([*args, "--semiring", "volts"])
        capsys.readouterr()

    def test_explain_without_facts(self, capsys):
        assert main(["explain", "e(X,Y), e(Y,Z)"]) == 0
        assert "boolean" in capsys.readouterr().out


class TestContains:
    def test_contained(self, capsys):
        code = main(
            ["contains", "e(A,B), e(B,C)", "e(X,Y), e(Y,Z), e(Z,X)"]
        )
        assert code == 0
        assert "True" in capsys.readouterr().out

    def test_not_contained(self, capsys):
        code = main(
            ["contains", "e(X,Y), e(Y,Z), e(Z,X)", "e(A,B), e(B,C)"]
        )
        assert code == 1


class TestErrors:
    def test_parse_error_reported(self, capsys):
        assert main(["width", "this is not a query !!"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_relation_is_typed_and_exits_one(self, facts_file, capsys):
        """An unknown relation name is a user-input problem: typed error,
        readable one-line message, exit 1 — never a traceback."""
        code = main(["evaluate", "nosuch(X, Y)", facts_file])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "unknown relation" in err
        assert "nosuch" in err
        assert "Traceback" not in err

    def test_experiments_list(self, capsys):
        assert main(["experiments"]) == 0
        assert "E06" in capsys.readouterr().out


class TestWatch:
    @pytest.fixture
    def delta_file(self, tmp_path: pathlib.Path) -> str:
        path = tmp_path / "deltas.txt"
        path.write_text(
            "# close the triangle\n"
            "+e(3, 1).\n"
            "-e(2, 3).\n"
            "e(2, 3).\n"
        )
        return str(path)

    def test_watch_streams_answer_deltas(self, facts_file, delta_file, capsys):
        code = main(
            [
                "watch",
                "ans(X) :- e(X,Y), e(Y,Z), e(Z,X).",
                facts_file,
                "--deltas",
                delta_file,
                "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "registered" in out and "width 2" in out
        assert "+ (1)" in out and "- (1)" in out
        assert "final: 3 answers after 3 updates" in out
        assert "touched_rows" in out

    def test_watch_without_facts_starts_empty(self, tmp_path, capsys):
        deltas = tmp_path / "d.txt"
        deltas.write_text("+e(1, 2).\n")
        code = main(
            [
                "watch",
                "ans(X, Y) :- e(X, Y).",
                "--deltas",
                str(deltas),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 initial answers" in out
        assert "+ (1, 2)" in out
        assert "final: 1 answers after 1 updates" in out

    def test_watch_parallelism_flag(self, facts_file, delta_file, capsys):
        code = main(
            [
                "watch",
                "ans(X) :- e(X,Y), e(Y,Z), e(Z,X).",
                facts_file,
                "--deltas",
                delta_file,
                "--parallelism",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final: 3 answers after 3 updates" in out

    def test_watch_rejects_non_ground_updates(self, tmp_path, capsys):
        deltas = tmp_path / "d.txt"
        deltas.write_text("+e(X, 2).\n")
        code = main(
            ["watch", "ans(X, Y) :- e(X, Y).", "--deltas", str(deltas)]
        )
        assert code == 2
        assert "not ground" in capsys.readouterr().err


class TestObservabilityCli:
    """The stats/profile surface: artifact emission from a run, the
    ``repro stats`` renderers (text, --json, --flight), and the
    truncation warning fed by the tracer's drop guard."""

    QUERY = "ans(X, Z) :- e(X, Y), e(Y, Z)."

    def test_run_writes_trace_metrics_and_profile(
        self, facts_file, tmp_path, capsys
    ):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        profile = tmp_path / "p.speedscope.json"
        code = main(
            [
                "run", facts_file, self.QUERY,
                "--trace", str(trace),
                "--metrics", str(metrics),
                "--profile", str(profile),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err and "metrics:" in err and "profile:" in err
        events = json.loads(trace.read_text())
        assert isinstance(events, list) and events
        snapshot = json.loads(metrics.read_text())
        assert "counters" in snapshot
        doc = json.loads(profile.read_text())
        assert doc["$schema"].startswith("https://www.speedscope.app")

    def test_profile_collapsed_extension(self, facts_file, tmp_path, capsys):
        from repro.obs import Profile

        profile = tmp_path / "p.collapsed"
        assert main(
            ["run", facts_file, self.QUERY, "--profile", str(profile)]
        ) == 0
        assert "profile:" in capsys.readouterr().err
        # Valid collapsed text (possibly empty for a sub-10ms run).
        Profile.from_collapsed(profile.read_text())

    def test_stats_validates_and_summarises_trace(
        self, facts_file, tmp_path, capsys
    ):
        trace = tmp_path / "t.json"
        main(["run", facts_file, self.QUERY, "--trace", str(trace)])
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        assert "valid chrome trace" in capsys.readouterr().out
        assert main(["stats", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "trace" and doc["valid"]
        assert doc["spans"] >= 1 and doc["by_name"]

    def test_stats_metrics_file_and_json(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        snap.write_text(json.dumps({
            "counters": {"engine.requests": 4},
            "gauges": {},
            "histograms": {},
        }))
        assert main(["stats", str(snap)]) == 0
        captured = capsys.readouterr()
        assert "engine.requests" in captured.out
        assert "warning" not in captured.err
        assert main(["stats", str(snap), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["engine.requests"] == 4

    def test_stats_warns_on_dropped_spans(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        snap.write_text(json.dumps({
            "counters": {"tracer.spans_dropped": 3},
            "gauges": {},
            "histograms": {},
        }))
        assert main(["stats", str(snap)]) == 0
        err = capsys.readouterr().err
        assert "3 span(s) dropped" in err and "max_spans" in err

    def test_stats_flight_live_ring(self, capsys):
        from repro.obs import get_flight_recorder, set_flight_recorder

        set_flight_recorder(None)
        try:
            get_flight_recorder().record("cli_tick", n=1)
            assert main(["stats", "--flight"]) == 0
            assert "cli_tick" in capsys.readouterr().out
            assert main(["stats", "--flight", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["flight"] == 1
            assert [e["kind"] for e in doc["events"]] == ["cli_tick"]
        finally:
            set_flight_recorder(None)

    def test_stats_renders_flight_dump_file(self, tmp_path, capsys):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder()
        recorder.record("tick", n=1)
        path = recorder.dump("unit test", path=str(tmp_path / "d.json"))
        assert main(["stats", path]) == 0
        out = capsys.readouterr().out
        assert "unit test" in out and "tick" in out

    def test_stats_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "x.json"
        bad.write_text('"just a string"')
        assert main(["stats", str(bad)]) == 2
        assert "neither" in capsys.readouterr().err
        assert main(["stats", str(tmp_path / "missing.json")]) == 2


class TestServeCli:
    """The serving surface: ``repro loadgen`` against a live server and
    per-tenant grouping in ``repro stats --json``."""

    QUERY = "ans(X, Z) :- e(X, Y), e(Y, Z)"

    def test_loadgen_closed_loop_with_gates(
        self, facts_file, tmp_path, capsys
    ):
        from repro.serve import serve_in_thread

        histogram = tmp_path / "hist.json"
        with serve_in_thread() as st:
            code = main([
                "loadgen", self.QUERY,
                "--host", st.host, "--port", str(st.port),
                "--tenant", "cli", "--facts", facts_file,
                "--mode", "closed", "--workers", "2", "--requests", "4",
                "--out", str(histogram), "--json",
                "--assert-no-shed", "--assert-no-errors",
            ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] == 8 and doc["shed"] == 0
        hist = json.loads(histogram.read_text())
        assert hist["samples"] == 8 and sum(hist["counts"]) == 8

    def test_loadgen_p99_gate_fails_when_blown(self, facts_file, capsys):
        from repro.serve import serve_in_thread

        with serve_in_thread() as st:
            code = main([
                "loadgen", self.QUERY,
                "--host", st.host, "--port", str(st.port),
                "--tenant", "cli2", "--facts", facts_file,
                "--mode", "closed", "--workers", "1", "--requests", "2",
                "--assert-p99-ms", "0.000001",
            ])
        assert code == 1
        assert "p99" in capsys.readouterr().err

    def test_stats_json_groups_tenant_metrics(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        snap.write_text(json.dumps({
            "counters": {
                "tenant.acme.requests": 4,
                "tenant.beta.requests": 1,
                "eval.joins": 9,
            },
            "gauges": {"tenant.acme.consumed_seconds": 0.25},
            "histograms": {},
        }))
        assert main(["stats", str(snap), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tenants"]["acme"]["requests"] == 4
        assert doc["tenants"]["acme"]["consumed_seconds"] == 0.25
        assert doc["tenants"]["beta"] == {"requests": 1}
        # Unscoped instruments stay where they were.
        assert doc["counters"]["eval.joins"] == 9

    def test_stats_json_groups_semiring_counters(self, tmp_path, capsys):
        snap = tmp_path / "m.json"
        snap.write_text(json.dumps({
            "counters": {
                "semiring.count.engine.requests": 2,
                "semiring.mincost.engine.requests": 1,
                "eval.joins": 9,
            },
            "gauges": {},
            "histograms": {},
        }))
        assert main(["stats", str(snap), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["semirings"]["count"]["engine.requests"] == 2
        assert doc["semirings"]["mincost"]["engine.requests"] == 1
        assert doc["counters"]["eval.joins"] == 9
