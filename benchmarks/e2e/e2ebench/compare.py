"""Compare two result files of ``run.py`` (or two halves of one).

Per workload × end-to-end metric: both medians, the ratio with its base,
the bound, and a verdict — ``ok``, ``worse`` (B's median is worse than
A's by more than the bound) or ``unresolved`` (the run-to-run spread on
either side is wider than the bound, so the metric cannot tell).  Exact
per-layer counts must be equal.  Files taken with different seeds, sizes
or numpy presence measure different things and are refused.
"""

from __future__ import annotations

import json
import statistics
import sys

from .metrics import END_TO_END, EXACT


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the interquartile
    range with four or more runs, the range with two or three."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle
    return (max(values) - min(values)) / middle


def comparable(a: dict, b: dict) -> list[str]:
    """Why the two documents must not be compared (empty = they may)."""
    return [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in ("seed", "seconds", "sizes", "numpy")
        if a.get(key) != b.get(key)
    ]


def _values(sets: list[dict], workload: str, kind: str, metric: str):
    return [
        s[workload][kind][metric]["value"]
        for s in sets
        if kind in s.get(workload, {})
    ]


def compare_sets(a_sets: list[dict], b_sets: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether B is acceptable against A."""
    lines = [
        f"{'workload':15} {'metric':17} {'A median':>11} {'B median':>11} "
        f"{'B/A':>7} {'bound':>6} {'spread A':>8} {'spread B':>8}  verdict"
    ]
    acceptable = True
    for workload in a_sets[0]:
        for metric in END_TO_END:
            a = _values(a_sets, workload, "end_to_end", metric.name)
            b = _values(b_sets, workload, "end_to_end", metric.name)
            if not a or not b:
                continue
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            ratio = b_mid / a_mid
            worse_by = ratio - 1 if metric.better == "lower" else 1 - ratio
            spreads = [spread(a), spread(b)]
            if any(s is not None and s > metric.bound for s in spreads):
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "worse"
            else:
                verdict = "ok"
            acceptable &= verdict == "ok"
            shown = ["-" if s is None else f"{s:.3f}" for s in spreads]
            lines.append(
                f"{workload:15} {metric.name:17} {a_mid:11.4f} {b_mid:11.4f} "
                f"{ratio:7.3f} {metric.bound:6.2f} {shown[0]:>8} {shown[1]:>8}"
                f"  {verdict} (base A={a_mid:.4g} {metric.unit})"
            )
        for name in sorted(EXACT):
            seen = set(_values(a_sets + b_sets, workload, "per_layer", name))
            if len(seen) > 1:
                acceptable = False
                lines.append(
                    f"{workload:15} {name}: exact count differs: {sorted(seen)}"
                )
    return lines, acceptable


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    refusal = comparable(*docs)
    if refusal:
        print("refusing to compare: " + "; ".join(refusal), file=sys.stderr)
        return 2
    lines, acceptable = compare_sets(docs[0]["sets"], docs[1]["sets"])
    print("\n".join(lines))
    return 0 if acceptable else 1
