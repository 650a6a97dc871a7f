"""Columnar benchmark: vectorised kernels vs the row engine.

Measures the three batch kernels of :mod:`repro.db.columnar` against
their row-engine counterparts on a 100k-row workload:

* **semijoin sweep** — ``L(a,b) ⋉ R(b,c)`` at selectivities 0.5 / 0.1 /
  0.02 (the sparse end is where the acceptance gate sits: the row
  kernel pays per-row interpreter overhead for every *dropped* row,
  the columnar kernel one vectorised membership mask), plus
  ``L(a,b,c) ⋉ R(a,b,d)`` on two shared attributes.  Every timed
  repeat probes a *fresh view* of the partner (``relabel`` — shared
  storage, cold memo), on the row and the columnar side alike: that is
  what a plan's leaf is, a request never probes one instance twice;
* **join** — a fan-out hash join (~10 matches per key), row probe loop
  vs the direct-address CSR kernel;
* **project** — single-column distinct;
* **layout crossover** — where ``layout="auto"`` should flip: whole
  warm requests (``path3`` / ``star3`` / ``triangle`` / ``path4`` at
  mean degree 1 and 2) and the three operators alone, row vs columnar,
  from 10 to 10 000 rows per relation.  The size from which columnar
  wins at every larger one is the ``layout.crossover.rows`` record,
  suffixed with the kernels it was measured on (``numpy`` /
  ``python``: the pure-Python buffers cross an order of magnitude
  later), next to the per-size medians it was read from;
  :data:`repro.db.columnar.COLUMNAR_MIN_ROWS` is set from it, and the
  pytest gate below holds the constant to it on whichever kernels the
  job runs.

Correctness is a hard gate: every columnar result is compared to the
row oracle's rows before any time is reported.  The 2x kernel gate
holds on the vectorised (numpy) kernels only; without numpy the
pure-Python buffers are within noise of the row kernel on a cold
partner, and the layout crossover gate is what holds the constant there.

Usage::

    PYTHONPATH=src python benchmarks/bench_columnar.py \
        --rows 100000 --repeats 5 --out BENCH_columnar.json

Also collectable by pytest (same asserts, the acceptance thresholds).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import time

import pytest

from repro.core.parser import parse_query
from repro.db import Relation, to_columnar
from repro.db.columnar import COLUMNAR_MIN_ROWS
from repro.engine import Engine
from repro.generators.workloads import random_database
from repro.obs.history import record

#: Suite tag for the unified bench-record schema (repro bench record/diff).
SUITE = "columnar"

#: The acceptance gate: columnar semijoin at least this much faster on
#: the sparse sweep (vectorised kernels only).
KERNEL_SPEEDUP_GATE = 2.0

SELECTIVITIES = (0.5, 0.1, 0.02)

#: The layout crossover sweep: rows per base relation, the request
#: shapes, and the mean degrees (rows per domain value) they run at —
#: denser data grows the joins, which moves the crossover down.
CROSSOVER_SIZES = (10, 30, 60, 120, 250, 500, 1000, 2000, 5000, 10_000)
CROSSOVER_SHAPES = {
    "path3": "ans(A,D) :- r(A,B), s(B,C), t(C,D).",
    "star3": "ans(A) :- r(A,B), s(A,C), t(A,D).",
    "triangle": "ans(A,B,C) :- r(A,B), s(B,C), t(C,A).",
    "path4": "ans(A,E) :- r(A,B), s(B,C), t(C,D), u(D,E).",
}
CROSSOVER_DEGREES = (1, 2)


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall time in milliseconds (gc fenced: a prior run's
    garbage must not bill the kernel under test)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _semijoin_pair(n_rows: int, selectivity: float, seed: int):
    """L(a,b) with unique b-keys; R(b,c) hitting ``selectivity`` of them."""
    rng = random.Random(seed)
    left = Relation.from_rows(
        ("a", "b"), [(rng.randrange(n_rows), i) for i in range(n_rows)], "L"
    )
    n_keys = max(1, int(n_rows * selectivity))
    keys = rng.sample(range(n_rows), n_keys)
    right = Relation.from_rows(("b", "c"), [(k, k % 97) for k in keys], "R")
    return left, right


def _semijoin_pair_2attr(n_rows: int, seed: int):
    """L(a,b,c) ⋉ R(a,b,d): R holds a tenth of L's (a,b) pairs."""
    rng = random.Random(seed)
    side = max(2, int(n_rows ** 0.5))
    left = Relation.from_rows(
        ("a", "b", "c"),
        [(rng.randrange(side), rng.randrange(side), i) for i in range(n_rows)],
        "L",
    )
    pairs = sorted({row[:2] for row in left.rows})
    keys = rng.sample(pairs, max(1, len(pairs) // 10))
    right = Relation.from_rows(
        ("a", "b", "d"), [(a, b, (a + b) % 97) for a, b in keys], "R"
    )
    return left, right


def _sweep_semijoin(label: str, pair, repeats: int, records: list) -> dict:
    """Row vs columnar ``left ⋉ right`` (checked against each other
    first), each repeat against a fresh view of the partner; appends the
    sweep's two records and returns its summary."""
    left, right = pair
    cl, cr = to_columnar(left), to_columnar(right)
    expect = left.semijoin(right)
    assert cl.semijoin(cr).rows == expect.rows

    def cold(receiver, partner):
        return lambda: receiver.semijoin(
            partner.relabel(partner.attributes, partner.name)
        )

    row_ms = _best_of(cold(left, right), repeats)
    col_ms = _best_of(cold(cl, cr), repeats)
    speedup = row_ms / col_ms if col_ms else float("inf")
    records.append(
        record(f"semijoin.{label}.speedup", speedup, "x",
               better="higher", tolerance=0.5)
    )
    # Seed-deterministic, so compared exactly even across machines
    # (unlike the env-bound "x" record above).
    records.append(
        record(f"semijoin.{label}.survivors", len(expect),
               "count", better="higher", tolerance=0.0)
    )
    return {
        "row_ms": round(row_ms, 3),
        "columnar_ms": round(col_ms, 3),
        "speedup": round(speedup, 2),
        "survivors": len(expect),
    }


def _join_pair(n_rows: int, seed: int):
    """Fan-out join: ~10 left rows per key, one right row per key."""
    rng = random.Random(seed)
    domain = max(1, n_rows // 10)
    left = Relation.from_rows(
        ("a", "b"), [(i, rng.randrange(domain)) for i in range(n_rows)], "L"
    )
    right = Relation.from_rows(
        ("b", "c"), [(k, k % 89) for k in range(domain)], "R"
    )
    return left, right


def run_benchmark(n_rows: int = 100_000, repeats: int = 5, seed: int = 0) -> dict:
    """One full kernel comparison; returns the JSON-ready result dict."""
    records: list[dict] = []
    sweeps = {
        f"sel{selectivity}": _semijoin_pair(n_rows, selectivity, seed)
        for selectivity in SELECTIVITIES
    }
    sweeps["2attr"] = _semijoin_pair_2attr(n_rows, seed)
    semijoin = {
        label: _sweep_semijoin(label, pair, repeats, records)
        for label, pair in sweeps.items()
    }

    left, right = _join_pair(n_rows, seed)
    cl, cr = to_columnar(left), to_columnar(right)
    expect = left.join(right)
    assert cl.join(cr).rows == expect.rows
    join_row_ms = _best_of(lambda: left.join(right), repeats)
    join_col_ms = _best_of(lambda: cl.join(cr), repeats)
    join_speedup = join_row_ms / join_col_ms if join_col_ms else float("inf")
    records.append(
        record("join.fanout.speedup", join_speedup, "x",
               better="higher", tolerance=0.5)
    )
    records.append(
        record("join.fanout.output_rows", len(expect), "count",
               better="higher", tolerance=0.0)
    )

    assert cl.project(["b"]).rows == left.project(["b"]).rows
    project_row_ms = _best_of(lambda: left.project(["b"]), repeats)
    project_col_ms = _best_of(lambda: cl.project(["b"]), repeats)
    project_speedup = (
        project_row_ms / project_col_ms if project_col_ms else float("inf")
    )
    records.append(
        record("project.distinct.speedup", project_speedup, "x",
               better="higher", tolerance=0.5)
    )

    return {
        "suite": SUITE,
        "records": records,
        "benchmark": "columnar_kernels",
        "rows": n_rows,
        "repeats": repeats,
        "numpy": _numpy_version(),
        "semijoin": semijoin,
        "join": {
            "row_ms": round(join_row_ms, 3),
            "columnar_ms": round(join_col_ms, 3),
            "speedup": round(join_speedup, 2),
            "output_rows": len(expect),
        },
        "project": {
            "row_ms": round(project_row_ms, 3),
            "columnar_ms": round(project_col_ms, 3),
            "speedup": round(project_speedup, 2),
        },
    }


def _median_ms(fn, budget_s: float) -> float:
    """Median wall time of *fn* in milliseconds over as many calls as
    fit *budget_s* (at least five), after two warm-up calls: a request
    is measured warm, as the engine serves it."""
    fn()
    fn()
    gc.collect()
    times: list[float] = []
    stop = time.perf_counter() + budget_s
    while len(times) < 5 or (time.perf_counter() < stop and len(times) < 500):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(map(math.log, values)) / len(values))


def _crossover(sizes, speedups) -> float | None:
    """The size from which columnar wins (speedup ≥ 1) at every larger
    size of the sweep, interpolated on log axes between the last loss
    and the win after it; ``None`` when the largest size still loses."""
    losses = [i for i, s in enumerate(speedups) if s < 1.0]
    if not losses:
        return float(sizes[0])
    i = losses[-1]
    if i == len(sizes) - 1:
        return None
    t = math.log(1.0 / speedups[i]) / math.log(speedups[i + 1] / speedups[i])
    return sizes[i] * (sizes[i + 1] / sizes[i]) ** t


def _request_cells(n_rows: int, seed: int, budget_s: float) -> dict:
    """Row and columnar medians of every (shape, degree) request over
    *n_rows*-row relations, answers checked against each other first."""
    cells = {}
    for degree in CROSSOVER_DEGREES:
        for shape, text in CROSSOVER_SHAPES.items():
            query = parse_query(text)
            db = random_database(
                query, max(4, n_rows // degree), n_rows, seed=seed
            )
            with Engine(layout="row") as row, Engine(layout="columnar") as col:
                expect = row.execute(query, db).answer.rows
                assert col.execute(query, db).answer.rows == expect
                cells[f"{shape}.d{degree}"] = (
                    _median_ms(lambda: row.execute(query, db), budget_s),
                    _median_ms(lambda: col.execute(query, db), budget_s),
                )
    return cells


def _operator_cells(n_rows: int, seed: int, budget_s: float) -> dict:
    """Row and columnar medians of one semijoin (a fresh view of the
    partner per call, as in the kernel sweep), join and projection."""
    left, right = _semijoin_pair(n_rows, 0.5, seed)
    cl, cr = to_columnar(left), to_columnar(right)
    jl, jr = _join_pair(n_rows, seed)
    cjl, cjr = to_columnar(jl), to_columnar(jr)

    def semijoin(receiver, partner):
        return lambda: receiver.semijoin(
            partner.relabel(partner.attributes, partner.name)
        )

    return {
        "semijoin": (
            _median_ms(semijoin(left, right), budget_s),
            _median_ms(semijoin(cl, cr), budget_s),
        ),
        "join": (
            _median_ms(lambda: jl.join(jr), budget_s),
            _median_ms(lambda: cjl.join(cjr), budget_s),
        ),
        "project": (
            _median_ms(lambda: jl.project(["b"]), budget_s),
            _median_ms(lambda: cjl.project(["b"]), budget_s),
        ),
    }


def run_crossover(
    sizes=CROSSOVER_SIZES, seed: int = 0, budget_s: float = 0.1
) -> dict:
    """The layout crossover sweep: per size, the geometric mean over the
    request cells of the row and the columnar median (their ratio is the
    speedup the crossover is read from), and each operator alone."""
    kernels = "numpy" if _numpy_version() else "python"
    records: list[dict] = []
    request: dict = {}
    operators: dict = {}
    for n_rows in sizes:
        cells = _request_cells(n_rows, seed, budget_s)
        row_ms = _geomean(row for row, _ in cells.values())
        col_ms = _geomean(col for _, col in cells.values())
        request[n_rows] = {
            "row_ms": round(row_ms, 4),
            "columnar_ms": round(col_ms, 4),
            "speedup": round(row_ms / col_ms, 3),
            "cells": {
                cell: round(row / col, 3) for cell, (row, col) in cells.items()
            },
        }
        for layout, value in (("row", row_ms), ("columnar", col_ms)):
            records.append(
                record(f"layout.request.{n_rows}.{layout}_ms.{kernels}",
                       value, "ms", tolerance=0.5)
            )
        operators[n_rows] = {
            name: {
                "row_ms": round(row, 4),
                "columnar_ms": round(col, 4),
                "speedup": round(row / col, 3),
            }
            for name, (row, col) in _operator_cells(
                n_rows, seed, budget_s
            ).items()
        }
    crossover = _crossover(
        sizes, [request[n]["speedup"] for n in sizes]
    )
    if crossover is not None:
        # Four times the recorded value is where the gate below wants a
        # columnar win, so that is the drift worth failing a diff on.
        records.append(
            record(f"layout.crossover.rows.{kernels}", crossover, "rows",
                   tolerance=3.0)
        )
    return {
        "records": records,
        "kernels": kernels,
        "constant": COLUMNAR_MIN_ROWS,
        "crossover_rows": None if crossover is None else round(crossover),
        "operator_crossover_rows": {
            name: _crossover(
                sizes, [operators[n][name]["speedup"] for n in sizes]
            )
            for name in ("semijoin", "join", "project")
        },
        "request": request,
        "operators": operators,
    }


def _numpy_version() -> str | None:
    try:
        import numpy

        return numpy.__version__
    except ImportError:  # pragma: no cover - numpy is in the standard image
        return None


@pytest.mark.skipif(
    _numpy_version() is None,
    reason="the 2x kernel gate is a claim about the vectorised kernels; "
    "without numpy the pure-Python buffers sit within noise of the row "
    "kernel on a cold partner (test_bench_layout_crossover_gate holds "
    "the pure-Python build instead)",
)
def test_bench_columnar_kernel_gates(bench_seed):
    """Pytest smoke: the acceptance gate at full scale — the sparse
    semijoin sweep at least 2x on the vectorised kernels (typically
    4-9x, so the threshold is noise-proof)."""
    result = run_benchmark(n_rows=100_000, repeats=3, seed=bench_seed)
    assert result["suite"] == SUITE and result["records"]
    sparse = result["semijoin"][f"sel{min(SELECTIVITIES)}"]
    assert sparse["speedup"] >= KERNEL_SPEEDUP_GATE, sparse
    assert result["semijoin"]["2attr"]["survivors"] > 0


def test_bench_layout_crossover_gate(bench_seed):
    """``COLUMNAR_MIN_ROWS`` against the kernels this job runs (numpy or
    the pure-Python buffers — the constant is set per kernel set): whole
    requests are no slower columnar at four times the constant and no
    slower row at a quarter of it.  The measured crossover sits between
    the two with a factor of two or more to either side."""
    sizes = (COLUMNAR_MIN_ROWS // 4, COLUMNAR_MIN_ROWS * 4)
    below, above = (
        _geomean(
            row / col
            for row, col in _request_cells(n_rows, bench_seed, 0.05).values()
        )
        for n_rows in sizes
    )
    assert below <= 1.0, (sizes[0], below)
    assert above >= 1.0, (sizes[1], above)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_columnar.json")
    args = parser.parse_args(argv)

    result = run_benchmark(
        n_rows=args.rows, repeats=args.repeats, seed=args.seed
    )
    crossover = run_crossover(seed=args.seed)
    result["records"] += crossover.pop("records")
    result["layout_crossover"] = crossover
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
    print(json.dumps(result, indent=2, sort_keys=True))
    sparse = result["semijoin"][f"sel{min(SELECTIVITIES)}"]
    print(
        f"\nsparse semijoin {sparse['speedup']}x, join "
        f"{result['join']['speedup']}x, project "
        f"{result['project']['speedup']}x"
        + f"; layout crossover ≈ {crossover['crossover_rows']} rows "
        f"({crossover['kernels']} kernels, COLUMNAR_MIN_ROWS = "
        f"{crossover['constant']})"
        + f"; wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
