#!/usr/bin/env python3
"""``make bench-record N=<pr>``: one committed perf record per PR.

Runs the repo benchmark on the working tree (``perfbench/run.py --repeat 3
--trace 1``: three untraced runs and one traced run of each of the five
workloads), compares it with the previous record through
``perfbench/compare.py``, times the tier-1 suite, and writes a trimmed
``BENCH_<n>.json`` at the repo root:

* ``end_to_end`` — the 15 gated rows (``setup_s`` / ``ops_per_s`` /
  ``peak_rss_mb`` on five workloads): median and the runs behind it,
* ``rows`` / ``layers`` — the named rows and per-layer figures of the
  traced runs,
* ``digests`` — ``output_digest`` and ``sim_digest`` per workload,
* ``tier1`` — passed count and wall seconds of ``make test-durations``,
* ``compare`` — the verdict rows against the previous record,
* ``runs`` — the run records cut down to what ``compare.py`` reads, so
  the next record can use this file as its base.

The previous record is the highest-numbered ``BENCH_<m>.json`` below
``N`` that carries ``runs``.  The first record has none to find
(``BENCH_6.json`` predates the benchmark) and ``perfbench/baseline/`` is
several PRs old, so it alone names its base: ``PREV=<results file>``, the
``results_seed11.json`` of the same ``perfbench/run.py`` command in a
``git archive`` of the parent commit.  The record keeps the command with
its ``PREV`` and the commit the working tree sat on (``head``).  The seed
is the benchmark's own (11, the one ``perfbench/baseline`` holds).
Nothing under ``perfbench/`` and not ``BENCHMARK.json`` is written: a
perf PR must not touch the benchmark it claims against.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SEED = 11
#: what ``compare.py`` reads of a run record
KEPT = ("workload", "seed", "seconds", "trace", "smoke", "correct",
        "ops", "ops_failed", "end_to_end", "measured", "digests",
        "host_slowdown")


def previous_record(number: int) -> Path:
    numbered = sorted(
        (int(match.group(1)), path)
        for path in ROOT.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    )
    for found, path in reversed(numbered):
        if found < number and "runs" in json.loads(path.read_text()):
            return path
    return PERFBENCH / "baseline" / f"results_seed{SEED}.json"


def tier1() -> dict:
    """Passed count and wall seconds of ``make test-durations``."""
    done = subprocess.run(["make", "-s", "test-durations"], cwd=ROOT,
                          capture_output=True, text=True)
    summary = re.search(r"(\d+) passed.* in ([\d.]+)s", done.stdout)
    # The target pipes pytest through tail, so its exit status is lost:
    # read failure off the summary line.
    if (done.returncode or summary is None
            or re.search(r"\d+ (failed|error)", done.stdout)):
        raise SystemExit(f"tier-1 did not pass:\n{done.stdout[-2000:]}")
    return {"passed": int(summary.group(1)),
            "seconds": float(summary.group(2))}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def trimmed(results: dict, number: int, command: str, base: Path,
            compare_text: str, compare_status: int, suite: dict) -> dict:
    runs = [{key: record[key] for key in KEPT} for record in results["runs"]]
    by_workload: Dict[str, List[dict]] = {}
    for record in runs:
        by_workload.setdefault(record["workload"], []).append(record)
    end_to_end, rows, layers, digests = {}, {}, {}, {}
    for workload, records in by_workload.items():
        untraced = [r for r in records if not r["trace"]]
        traced = [r for r in records if r["trace"]]
        end_to_end[workload] = {
            name: {
                "median": statistics.median(
                    r["end_to_end"][name] for r in untraced),
                "runs": [r["end_to_end"][name] for r in untraced],
            }
            for name in ("setup_s", "ops_per_s", "peak_rss_mb")
        }
        for record in traced[:1]:
            layers[workload] = {
                name: value for name, value in record["measured"].items()
                if "." in name or name == "gallium_over_engine"
            }
            rows[workload] = {
                name: value for name, value in record["measured"].items()
                if name not in layers[workload]
            }
        digests[workload] = {
            kind: sorted({r["digests"][kind] for r in records})
            for kind in ("output", "sim")
        }
    verdicts = re.findall(r"(\d+) (better|within|worse|unresolved)",
                          compare_text.splitlines()[-1])
    return {
        "bench": number,
        "command": command,
        # the tree measured: this commit plus whatever is not committed yet
        "head": git("rev-parse", "HEAD"),
        "uncommitted": bool(git("status", "--porcelain")),
        "schema": results["schema"],
        "seed": results["seed"],
        "seconds": results["seconds"],
        "smoke": results["smoke"],
        "host": results["host"],
        "failed": sum(r["ops_failed"] for r in runs),
        "end_to_end": end_to_end,
        "rows": rows,
        "layers": layers,
        "digests": digests,
        "tier1": suite,
        "compare": {
            "base": str(base.relative_to(ROOT)) if base.is_relative_to(ROOT)
            else base.name,
            "exit": compare_status,
            "verdicts": {kind: int(count) for count, kind in verdicts},
            "rows": compare_text.splitlines()[:-1],
        },
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="the PR number N")
    parser.add_argument("--prev", help="results file of the parent commit"
                        " (the first record only)")
    args = parser.parse_args(argv)

    results_path = PERFBENCH / "out" / f"results_seed{SEED}.json"
    status = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--seed", str(SEED),
         "--repeat", "3", "--trace", "1"], cwd=ROOT,
    ).returncode
    if status:
        print(f"perfbench/run.py exited {status}", file=sys.stderr)
        return status
    command = f"make bench-record N={args.number}"
    if args.prev:
        base = Path(args.prev).resolve()
        command += f" PREV={args.prev}"
    else:
        base = previous_record(args.number)
    compared = subprocess.run(
        [sys.executable, str(PERFBENCH / "compare.py"), str(base),
         str(results_path)], cwd=ROOT, capture_output=True, text=True,
    )
    print(compared.stdout, end="")
    if compared.returncode not in (0, 1, 2):
        print(compared.stderr, file=sys.stderr)
        return compared.returncode
    record = trimmed(json.loads(results_path.read_text()), args.number,
                     command, base, compared.stdout.strip(),
                     compared.returncode, tier1())
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}: {record['failed']} failed operations,"
          f" compare exit {compared.returncode}")
    return 1 if record["failed"] or compared.returncode == 1 else 0


if __name__ == "__main__":
    sys.exit(main())
