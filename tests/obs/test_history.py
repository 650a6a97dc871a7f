"""Perf-regression observatory: the unified record schema, the
direction-aware diff, and the CLI gate (`repro bench record` / `repro
bench diff` exit codes)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import (
    diff_runs,
    env_fingerprint,
    load_run,
    make_run,
    merge_runs,
    record,
    validate_run,
)


def _run(records, env=None):
    doc = make_run(records)
    if env is not None:
        doc["env"] = env
    return doc


class TestSchema:
    def test_record_fields(self):
        rec = record("t", 1.5, "seconds", better="lower", tolerance=0.1,
                     suite="s")
        assert rec == {
            "metric": "t", "value": 1.5, "unit": "seconds",
            "better": "lower", "tolerance": 0.1, "suite": "s",
        }

    def test_record_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            record("t", 1.0, "seconds", better="sideways")

    def test_make_run_carries_schema_and_env(self):
        doc = make_run([record("t", 1.0, "seconds")], meta={"suite": "x"})
        assert doc["schema"] == 1
        assert doc["env"] == env_fingerprint()
        assert doc["suite"] == "x"
        assert validate_run(doc) == []

    def test_validate_flags_problems(self):
        assert validate_run([]) == ["document is not an object"]
        problems = validate_run({"schema": 99, "records": [{"metric": "m"}]})
        assert any("schema" in p for p in problems)
        assert any("value" in p for p in problems)

    def test_load_run_round_trip_and_rejection(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_run([record("t", 1.0, "qps")])))
        assert load_run(str(good))["records"][0]["metric"] == "t"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"benchmark": "legacy blob"}))
        with pytest.raises(ValueError):
            load_run(str(bad))

    def test_merge_runs_tags_suites(self):
        merged = merge_runs([
            ("alpha", {"records": [record("m", 1, "count")]}),
            ("beta", {"records": [record("m", 2, "count", suite="custom")]}),
        ])
        suites = [r["suite"] for r in merged["records"]]
        assert suites == ["alpha", "custom"]


class TestDiff:
    def test_identical_runs_are_ok(self):
        base = _run([record("a", 10, "count", tolerance=0.0),
                     record("b", 1.5, "seconds")])
        report = diff_runs(base, base)
        assert report.ok and report.same_env
        assert {c.status for c in report.comparisons} == {"ok"}

    def test_regression_beyond_tolerance(self):
        base = _run([record("lat", 100, "count", better="lower")])
        cur = _run([record("lat", 130, "count", better="lower")])
        report = diff_runs(base, cur)  # +30% vs default ±25%
        [c] = report.regressions
        assert c.metric == "lat" and c.change == pytest.approx(0.3)
        assert not report.ok

    def test_improvement_and_direction_awareness(self):
        base = _run([record("thr", 100, "count", better="higher")])
        report = diff_runs(base, _run([record("thr", 130, "count",
                                              better="higher")]))
        assert report.ok and len(report.improvements) == 1
        # Same +30% movement is a regression when lower is better.
        report = diff_runs(
            _run([record("thr", 100, "count", better="lower")]),
            _run([record("thr", 130, "count", better="lower")]),
        )
        assert not report.ok

    def test_env_bound_units_skipped_across_envs(self):
        base = _run([record("wall", 1.0, "seconds"),
                     record("n", 5, "count", tolerance=0.0)],
                    env={"cpu_count": 64})
        cur = _run([record("wall", 10.0, "seconds"),
                    record("n", 5, "count", tolerance=0.0)])
        report = diff_runs(base, cur)
        assert not report.same_env
        statuses = {c.metric: c.status for c in report.comparisons}
        assert statuses == {"wall": "skipped_env", "n": "ok"}
        assert report.ok
        # compare_all forces the wall-clock comparison (and fails it).
        forced = diff_runs(base, cur, compare_all=True)
        assert [c.metric for c in forced.regressions] == ["wall"]

    def test_new_and_missing_metrics_do_not_gate(self):
        base = _run([record("gone", 1, "count")])
        cur = _run([record("fresh", 1, "count")])
        report = diff_runs(base, cur)
        statuses = {c.metric: c.status for c in report.comparisons}
        assert statuses == {"gone": "missing", "fresh": "new"}
        assert report.ok

    def test_zero_baseline_compares_exactly(self):
        base = _run([record("errs", 0, "count", better="lower")])
        assert diff_runs(base, base).ok
        report = diff_runs(base, _run([record("errs", 1, "count",
                                              better="lower")]))
        assert [c.change for c in report.regressions] == [float("inf")]

    def test_render_and_json(self):
        base = _run([record("a", 100, "count", better="lower")])
        report = diff_runs(base, _run([record("a", 200, "count",
                                              better="lower")]))
        text = report.render()
        assert "REGRESSION" in text and "a" in text
        doc = report.to_json()
        assert doc["ok"] is False and doc["regressions"] == 1


class TestCliGate:
    """The CI contract: `repro bench diff` exits 0 on an identical
    baseline and non-zero on an injected 30% regression."""

    def _emit_suite(self, path, value):
        path.write_text(json.dumps({
            "benchmark": "demo",
            "suite": "demo",
            "records": [
                record("answers", value, "rows", better="higher",
                       tolerance=0.0),
                record("wall", 1.0, "seconds"),
            ],
        }))

    def test_record_then_identical_diff_exits_zero(self, tmp_path, capsys):
        suite = tmp_path / "BENCH_demo.json"
        self._emit_suite(suite, 1000)
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        assert cli_main(["bench", "record", str(suite),
                         "--out", str(baseline)]) == 0
        assert cli_main(["bench", "record", str(suite),
                         "--out", str(current)]) == 0
        assert cli_main(["bench", "diff", str(baseline),
                         str(current)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_injected_30pct_regression_exits_nonzero(self, tmp_path, capsys):
        suite = tmp_path / "BENCH_demo.json"
        self._emit_suite(suite, 1000)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["bench", "record", str(suite),
                         "--out", str(baseline)]) == 0
        self._emit_suite(suite, 700)  # 30% fewer answers
        regressed = tmp_path / "regressed.json"
        assert cli_main(["bench", "record", str(suite),
                         "--out", str(regressed)]) == 0
        assert cli_main(["bench", "diff", str(baseline),
                         str(regressed)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_json_output(self, tmp_path, capsys):
        suite = tmp_path / "BENCH_demo.json"
        self._emit_suite(suite, 10)
        baseline = tmp_path / "b.json"
        cli_main(["bench", "record", str(suite), "--out", str(baseline)])
        capsys.readouterr()
        assert cli_main(["bench", "diff", str(baseline), str(baseline),
                         "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["regressions"] == 0

    def test_record_rejects_legacy_blob(self, tmp_path, capsys):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({"benchmark": "old", "seconds": {}}))
        assert cli_main(["bench", "record", str(legacy),
                         "--out", str(tmp_path / "x.json")]) == 2
        assert "records" in capsys.readouterr().err

    def test_committed_baseline_is_loadable(self):
        from pathlib import Path

        baseline = (
            Path(__file__).resolve().parents[2] / "benchmarks" / "baseline.json"
        )
        doc = load_run(str(baseline))
        suites = {r["suite"] for r in doc["records"]}
        assert {"engine", "incremental", "obs", "serve", "semiring",
                "columnar"} == suites
