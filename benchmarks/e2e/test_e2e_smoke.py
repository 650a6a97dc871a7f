"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

Checks the benchmark's own contract, not the program's speed: every
workload emits every metric under a well-formed name, exact counts repeat
under one seed, a different seed changes the inputs, a wrong answer is
counted as a failed op, and ``BENCHMARK.json`` names what the code emits.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from e2ebench.compare import comparable, compare_sets  # noqa: E402
from e2ebench.harness import run_workload  # noqa: E402
from e2ebench.metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from e2ebench.workloads import SMOKE, WHY, WORKLOADS  # noqa: E402

SECONDS = 0.1
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Per-layer metrics that must be non-zero where the workload was chosen
# to exercise them (and the ones that must stay zero where it bypasses).
POSITIVE = {
    "acyclic_large": ["engine.plan.bag_ms", "engine.plan.compile_ms",
                      "db.sweep.semijoin_ms", "db.stats.semijoins"],
    "cyclic_bags": ["engine.plan.bag_ms", "engine.plan.bag_rows"],
    "plan_cold": ["core.parser.parse_ms", "heuristics.decompose_ms",
                  "heuristics.decompose_calls", "engine.cache.store_ms"],
    "semiring_count": ["engine.plan.bag_ms", "db.layout.row_bags"],
    "serve_small": ["serve.server.engine_ms", "serve.server.overhead_ms",
                    "serve.protocol.decode_ms", "serve.protocol.encode_ms",
                    "serve.protocol.response_bytes", "core.parser.parse_ms"],
    "live_updates": ["incremental.live.apply_ms", "incremental.live.read_ms",
                     "incremental.live.register_ms",
                     "incremental.view.touched_rows"],
}


def smoke(name, trace, seed=0, **kwargs):
    return run_workload(name, seed, SECONDS, trace, sizes=SMOKE[name], **kwargs)


@pytest.fixture(scope="module")
def traced():
    """Two same-seed traced runs of every workload."""
    return {name: [smoke(name, True)[0] for _ in range(2)] for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics(name):
    result, detail = smoke(name, False)
    assert result["correct"] and result["failed"] == 0, detail
    assert result["attempted"] >= 100 and detail["samples"] >= 100
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        got = result["metrics"][metric.name]
        assert got["unit"] == metric.unit and got["value"] > 0, metric.name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_metrics(name, traced):
    first, second = traced[name]
    assert first["correct"] and first["failed"] == 0
    assert list(first["metrics"]) == [m.name for m in PER_LAYER]
    for metric in PER_LAYER:
        assert first["metrics"][metric.name]["unit"] == metric.unit
    for metric in POSITIVE[name]:
        assert first["metrics"][metric]["value"] > 0, metric
    for metric in sorted(EXACT):
        assert (
            first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
        ), metric
    calls = first["metrics"]["heuristics.decompose_calls"]["value"]
    hit_ratio = first["metrics"]["engine.cache.hit_ratio"]["value"]
    if name == "plan_cold":
        assert calls == SMOKE[name]["shapes"] and hit_ratio == 0.0
    else:
        assert calls == 0 and hit_ratio == 1.0
    assert first["metrics"]["serve.admission.shed"]["value"] == 0


def test_names_are_well_formed():
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    def inputs(seed):
        return repr(WORKLOADS[name](seed, SMOKE[name]).inputs)

    assert inputs(0) == inputs(0)
    assert inputs(0) != inputs(1)


def test_corrupted_expected_hash_is_a_failed_op():
    result, detail = smoke("acyclic_large", False, corrupt=True)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    assert detail["failed_ops_ratio"] > 0


def test_compare_verdicts(traced):
    def one(p50):
        metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in END_TO_END}
        metrics["latency_p50_ms"] = {"value": p50, "unit": "ms"}
        return {"w": {"end_to_end": metrics}}

    assert compare_sets([one(1.0)], [one(1.05)])[1]
    lines, acceptable = compare_sets([one(1.0)], [one(1.3)])
    assert not acceptable and any("worse" in line for line in lines)
    lines, acceptable = compare_sets([one(1.0), one(1.5)], [one(1.0), one(1.0)])
    assert not acceptable and any("unresolved" in line for line in lines)
    doc = {"seed": 0, "seconds": 1, "sizes": {}, "numpy": True}
    assert not comparable(doc, dict(doc))
    assert comparable(doc, {**doc, "numpy": False})
    assert comparable(doc, {**doc, "seed": 1})
    # Same-seed traced runs: exact counts equal, so nothing to report.
    sets = [{n: {"per_layer": r[i]["metrics"]} for n, r in traced.items()}
            for i in range(2)]
    assert compare_sets(sets[:1], sets[1:])[1]


def test_benchmark_json_names_what_the_code_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert list(WORKLOADS) == list(WHY)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(WHY.items())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [tuple(m[:3]) for m in PER_LAYER]


def test_command_line_contract():
    """The form the driver runs: last stdout line is the result object."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "acyclic_large", "--seed", "3", "--seconds", "0.1", "--trace", "0",
         "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 100
