#!/usr/bin/env python3
"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload) that applies, with the base
value (A), the new value (B), their ratio B/A, the bound and a verdict:

* ``better``  — B's median beats A's by more than the bound;
* ``within``  — neither side beats the other by more than the bound;
* ``worse``   — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance
  between the quartiles over the median, from ``--repeat`` runs) is
  wider than the bound, so the medians decide nothing — unless every
  run of B beats every run of A, which is ``better``.

Simulated-time rows, counts and the output and simulation digests are
compared exactly: any difference is ``worse``.  Exits 1 on any ``worse``
and 2 on any ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import catalog

GATED = catalog.END_TO_END + catalog.ROWS


def load(path: str) -> Dict[str, List[dict]]:
    """Full-size runs of a results file, per workload."""
    payload = json.loads(Path(path).read_text())
    runs: Dict[str, List[dict]] = {}
    for record in payload["runs"]:
        if record["smoke"]:
            raise SystemExit(f"{path}: smoke runs carry no usable numbers")
        runs.setdefault(record["workload"], []).append(record)
    return runs


def values_of(records: List[dict], name: str) -> List[float]:
    """Every run's value of ``name``; untraced runs win when both kinds
    measured it (end-to-end figures are taken with tracing off)."""
    by_trace: Dict[int, List[float]] = {0: [], 1: []}
    for record in records:
        found = {**record["measured"], **record["end_to_end"]}
        if name in found:
            by_trace[record["trace"]].append(found[name])
    return by_trace[0] or by_trace[1]


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (high - low) / median if median else 0.0


def verdict(metric: catalog.Metric, base: List[float],
            new: List[float]) -> str:
    if metric.bound == catalog.EXACT:
        return "within" if set(base) == set(new) and len(set(new)) == 1 \
            else "worse"
    sign = 1.0 if metric.better == "higher" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    gain = sign * (new_median - base_median) / base_median
    if max(spread(base), spread(new)) > metric.bound:
        clean_win = min(sign * v for v in new) > max(sign * v for v in base)
        return "better" if clean_win else "unresolved"
    if gain < -metric.bound:
        return "worse"
    return "better" if gain > metric.bound else "within"


def compare(base_runs: Dict[str, List[dict]],
            new_runs: Dict[str, List[dict]]) -> List[Tuple]:
    rows: List[Tuple] = []
    for workload in catalog.ALL:
        base_records = base_runs.get(workload, [])
        new_records = new_runs.get(workload, [])
        if not base_records or not new_records:
            continue
        for metric in GATED:
            if not catalog.applies(metric, workload):
                continue
            base = values_of(base_records, metric.name)
            new = values_of(new_records, metric.name)
            if not base or not new:
                continue
            base_median = statistics.median(base)
            new_median = statistics.median(new)
            rows.append((
                workload, metric.name, metric.unit, metric.domain,
                base_median, new_median,
                new_median / base_median if base_median else float("nan"),
                metric.bound, verdict(metric, base, new),
            ))
        for kind in ("output", "sim"):
            base_digests = {r["digests"][kind] for r in base_records}
            new_digests = {r["digests"][kind] for r in new_records}
            if base_digests == {""} and new_digests == {""}:
                continue
            same = base_digests == new_digests and len(new_digests) == 1
            rows.append((workload, f"{kind}_digest", "sha256", "sim",
                         None, None, None, 0.0,
                         "within" if same else "worse"))
        failed = sum(r["ops_failed"] for r in new_records)
        rows.append((workload, "ops_failed", "count", "count",
                     float(sum(r["ops_failed"] for r in base_records)),
                     float(failed), None, 0.0,
                     "worse" if failed else "within"))
    return rows


def render(rows: List[Tuple]) -> str:
    def number(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.6g}"

    lines = [f"{'workload':<10s} {'metric':<26s} {'unit':<10s}"
             f" {'base':>12s} {'new':>12s} {'new/base':>9s} {'bound':>6s}"
             f"  verdict"]
    for (workload, name, unit, _, base, new, ratio, bound, result) in rows:
        lines.append(
            f"{workload:<10s} {name:<26s} {unit:<10s} {number(base):>12s}"
            f" {number(new):>12s} {number(ratio):>9s}"
            f" {'exact' if not bound else format(bound, '.2f'):>6s}"
            f"  {result}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 64
    base_runs, new_runs = load(argv[0]), load(argv[1])
    seeds = {record["seed"] for runs in (base_runs, new_runs)
             for records in runs.values() for record in records}
    if len(seeds) > 1:
        print(f"note: seeds differ ({sorted(seeds)}); exact rows and"
              " digests only compare between runs of one seed")
    rows = compare(base_runs, new_runs)
    print(render(rows))
    verdicts = [row[-1] for row in rows]
    print(f"{len(rows)} rows: " + ", ".join(
        f"{verdicts.count(kind)} {kind}"
        for kind in ("better", "within", "worse", "unresolved")))
    if "worse" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
