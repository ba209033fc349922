#!/usr/bin/env python3
"""``make ab BASE=<rev>``: the working tree against ``<rev>``, in
simultaneous pairs.

A 2-core shared host drifts by more than the few percent a change is
asked about, so two runs taken one after the other compare the host as
much as the code.  Here each round runs the benchmark on both trees *at
the same time*, one child pinned to each core (``os.sched_setaffinity``
on the child, before it starts), and swaps the cores every round::

    python benchmarks/ab.py <rev> [--workload campaign] [--pairs 10] [--smoke]

``<rev>`` is exported with ``git archive`` into a temporary directory; the
other tree is this checkout's working tree.  Each child is
``perfbench/run.py --workload W --seed 11 --trace 0`` of its own tree (the
seed ``bench_record.py`` records with; the run's own seconds), whose last
stdout line is the end-to-end metrics.  Both
children get one empty ``PYTHONPYCACHEPREFIX``, so neither reads
bytecode an earlier run left (a tree with ``__pycache__`` reads about
1 MB lower ``peak_rss_mb``).  Per end-to-end row of ``BENCHMARK.json``
it prints the median of the pairs' ratios (working tree / base), the
pairs the working tree won (better in the row's direction), and the
two-sided sign test over the pairs that did not tie.  ``--smoke`` is one
pair of ``perfbench/run.py --smoke`` runs: a check that the tool works,
not a measurement.  Exit status 1 when a child fails or says its run was
not correct.  Nothing under ``perfbench/`` is written but its ignored
``out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path
from typing import Dict, List, Tuple

from bench_record import ROOT, SEED


def export(rev: str, scratch: Path) -> Path:
    """``rev`` as a tree of its own under ``scratch``."""
    tree = scratch / "base"
    tree.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive,
                   check=True)
    return tree


def command(tree: Path, args) -> List[str]:
    run = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(SEED), "--trace", "0"]
    return run + (["--smoke"] if args.smoke else [])


def pinned(core: int):
    return lambda: os.sched_setaffinity(0, {core})


def one_round(trees: Dict[str, Path], cores: Tuple[int, int], args,
              env: Dict[str, str]) -> Dict[str, dict]:
    """Both trees' benchmark at once, ``trees``' first on ``cores[0]``."""
    children = {
        name: subprocess.Popen(
            command(tree, args), cwd=tree, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=pinned(core),
        )
        for (name, tree), core in zip(trees.items(), cores)
    }
    results = {}
    for name, child in children.items():
        out, err = child.communicate()
        lines = out.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"{name}: exit {child.returncode}\n"
                             f"{out[-2000:]}\n{err[-2000:]}") from None
    return results


def sign_test(wins: int, losses: int) -> float:
    """Two-sided p of ``wins`` against ``losses`` under a fair coin."""
    n = wins + losses
    if not n:
        return 1.0
    tail = sum(comb(n, k) for k in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def report(rows: List[dict], pairs: List[Dict[str, dict]]) -> bool:
    """Print a line per end-to-end row; whether every run was correct."""
    correct = all(run["correct"] for pair in pairs for run in pair.values())
    print(f"{'row':14} {'base median':>12} {'head median':>12}"
          f" {'ratio':>7} {'won':>7} {'sign p':>7}")
    for row in rows:
        name, higher = row["name"], row["better"] == "higher"
        base = [pair["base"]["metrics"][name]["value"] for pair in pairs]
        head = [pair["head"]["metrics"][name]["value"] for pair in pairs]
        ratio = statistics.median(h / b for h, b in zip(head, base))
        wins = sum((h > b) if higher else (h < b) for h, b in zip(head, base))
        ties = sum(h == b for h, b in zip(head, base))
        losses = len(pairs) - wins - ties
        print(f"{name:14} {statistics.median(base):12.4g}"
              f" {statistics.median(head):12.4g} {ratio:7.4f}"
              f" {wins:3}/{len(pairs):<3} {sign_test(wins, losses):7.3f}")
    failed = sum(run["failed"] for pair in pairs for run in pair.values())
    print(f"pairs {len(pairs)}, failed operations {failed},"
          f" every run correct: {correct}")
    return correct


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("--workload", default="campaign")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="one pair of --smoke runs")
    args = parser.parse_args(argv)
    if args.smoke:
        args.pairs = 1
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    cores = sorted(os.sched_getaffinity(0))[:2]
    if len(cores) < 2:
        print("warning: one core available; the pairs share it")
        cores *= 2
    with tempfile.TemporaryDirectory() as temporary:
        scratch = Path(temporary)
        trees = {"base": export(args.base, scratch), "head": ROOT}
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(scratch / "pycache"))
        print(f"base {args.base} -> {trees['base']}; head {ROOT};"
              f" {args.workload} seed {SEED}, cores {cores}")
        pairs = []
        for index in range(args.pairs):
            order = cores if index % 2 == 0 else cores[::-1]
            pair = one_round(trees, (order[0], order[1]), args, env)
            pairs.append(pair)
            print(f"  pair {index + 1}: " + "  ".join(
                f"{name} {run['metrics']['ops_per_s']['value']:.4g}/s"
                for name, run in pair.items()), flush=True)
        return 0 if report(rows, pairs) else 1


if __name__ == "__main__":
    sys.exit(main())
