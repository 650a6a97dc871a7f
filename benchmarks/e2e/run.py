"""The repo's end-to-end benchmark: one command, six workloads.

Two ways to run it::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this process and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (the form ``BENCHMARK.json`` names).

    python3 benchmarks/e2e/run.py --seed 0 [--trace 1] [--repeat N]

runs all six, each in a fresh child process (so peak RSS and caches are
per workload), prints every metric by name with its unit and sample
count, and writes a results file ``compare.py`` understands.
``--repeat N`` takes N such sets and compares the first half with the
second.  ``--trace-out DIR`` keeps each traced run's Chrome-trace JSON
(``repro stats DIR/<workload>.trace.json`` reads it).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# The program under test, from source: <repo>/src beside <repo>/benchmarks.
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

DETAIL_PREFIX = "detail: "


def pin_hash_seed() -> None:
    """Re-execute once with ``PYTHONHASHSEED=0``.

    The program iterates over sets of variables and atoms while it
    decomposes and plans, so string-hash randomisation picks the plan:
    under one ``--seed``, `cyclic_bags`' 5-cycle ran in 23 ms in one
    process and 41 ms in the next, and exact counts differed.  Pinning
    the hash seed makes a seed mean one plan.  ``exec`` replaces this
    process, it does not add one.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    pin_hash_seed()  # before the program is imported

from e2ebench.compare import compare_sets  # noqa: E402
from e2ebench.harness import run_workload  # noqa: E402
from e2ebench.workloads import FULL, SMOKE  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(FULL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="PATH",
                        help="Chrome-trace file (with --workload) or "
                        "directory (without)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the tier-1 smoke test")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "results.json"))
    return parser.parse_args(argv)


def run_one(args) -> int:
    sizes = (SMOKE if args.smoke else FULL)[args.workload]
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        sizes=sizes, trace_out=args.trace_out,
    )
    for problem in detail["problems"]:
        print(f"oracle: {problem}", file=sys.stderr)
    if detail["first_error"]:
        print(detail["first_error"], file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0


def child(args, workload: str, trace: int) -> dict:
    """One workload in a fresh process; returns its result and detail."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
        command += [
            "--trace-out",
            os.path.join(args.trace_out, f"{workload}.trace.json"),
        ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    sys.stderr.write(done.stderr)
    return {"result": result, "detail": detail}


def one_set(args) -> dict:
    """All six workloads once; prints as it goes."""
    measured = {}
    for workload in FULL:
        runs = {"end_to_end": child(args, workload, 0)}
        if args.trace:
            runs["per_layer"] = child(args, workload, 1)
        entry = measured[workload] = {}
        for kind, run in runs.items():
            result, detail = run["result"], run["detail"]
            entry[kind] = result["metrics"]
            entry[f"{kind}_detail"] = {
                **detail,
                **{k: result[k] for k in ("correct", "attempted", "failed")},
            }
            print(
                f"{workload} [{kind}] samples={detail['samples']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"failed_ops_ratio={detail['failed_ops_ratio']:g} "
                f"correct={result['correct']}"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:38} {metric['value']:14.4f} {metric['unit']}")
            medians = ", ".join(
                f"{shape} {ms:.2f}" for shape, ms in detail["shape_medians_ms"].items()
            )
            print(f"  per-shape median latency (ms): {medians}")
    return measured


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload:
        return run_one(args)
    sets = []
    for index in range(args.repeat):
        if args.repeat > 1:
            print(f"== set {index + 1} of {args.repeat}")
        sets.append(one_set(args))
    details = [entry["end_to_end_detail"] for entry in sets[0].values()]
    document = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": {d["workload"]: d["sizes"] for d in details},
        "numpy": details[0]["numpy"],
        "nproc": details[0]["nproc"],
        "env": details[0]["env"],
        "sets": sets,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"results written to {args.out}")
    failed = any(
        not detail["correct"]
        for measured in sets
        for entry in measured.values()
        for kind, detail in entry.items()
        if kind.endswith("_detail")
    )
    acceptable = True
    if args.repeat > 1:
        half = args.repeat // 2
        lines, acceptable = compare_sets(sets[:half], sets[half:])
        print("\n".join(lines))
    return 1 if failed or not acceptable else 0


if __name__ == "__main__":
    sys.exit(main())
