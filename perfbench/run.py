#!/usr/bin/env python3
"""The repo benchmark: five workloads, end to end and layer by layer.

One workload, as the benchmark driver calls it::

    python3 perfbench/run.py --workload mice --seed 3 --seconds 15 --trace 0

sets up three times, checks the outputs against independent references,
measures for ``--seconds`` seconds and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

All five, each in a fresh single-threaded subprocess::

    python3 perfbench/run.py --seed 3 [--trace 1] [--repeat 5] [--smoke]

prints every metric by name with its unit and writes one results file
(``perfbench/out/results_seed3.json``) for ``compare.py``.

The load is a closed loop with one client: the next packet, program or
scenario is submitted when the previous one returns.
"""

from __future__ import annotations

import sys

# Keep the checkout clean and the import cost the same on every run.
sys.dont_write_bytecode = True

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SCHEMA_PATH = BENCH_DIR / "results.schema.json"

DEFAULT_SECONDS = 15
SMOKE_SECONDS = 1.0
SETUP_REPEATS = 3
#: a traced run whose self times miss the root spans' total by more is
#: reported as incorrect: the recorder, not the code under test, is off
SPAN_CLOSURE_LIMIT = 0.05

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import catalog  # noqa: E402  (needs no repro import)


class Workload(NamedTuple):
    """How ``run_one`` drives one workload."""

    module: str
    setup: Callable  # (seed, smoke) -> context
    check: Optional[Callable]  # (context) -> dict, untimed
    measure: Callable  # (context, seconds) -> summary
    traced: Callable  # (context, seconds) -> summary with layers


def _workload(name: str) -> Workload:
    if name in catalog.PACKET:
        import packet_path

        return Workload(
            "packet_path",
            lambda seed, smoke: packet_path.Context(name, seed, smoke),
            packet_path.check, packet_path.measure,
            packet_path.measure_traced,
        )
    import tool_path

    if name == "compile":
        return Workload("tool_path", tool_path.CompileContext, None,
                        tool_path.measure_compile,
                        tool_path.measure_compile_traced)
    return Workload("tool_path", tool_path.CampaignContext, None,
                    tool_path.measure_campaign,
                    tool_path.measure_campaign_traced)


def import_seconds(module: str) -> float:
    """Calibrated seconds a fresh interpreter needs to import the
    workload's code.  The child finds no cached bytecode and writes none,
    so the figure does not depend on what ran in this checkout before."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(SRC)!r}]\n"
        "from hostspeed import HostSpeed\n"
        "host = HostSpeed()\n"
        "started = time.perf_counter()\n"
        f"import {module}\n"
        "elapsed = time.perf_counter() - started\n"
        "host.cover(elapsed)\n"
        "print(host.seconds(elapsed))\n"
    )
    empty = OUT / "no-bytecode-here"
    empty.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(empty))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    """One workload in this process; returns its run record."""
    import spans
    from hostspeed import HostSpeed

    repeats = 1 if smoke else SETUP_REPEATS
    workload = _workload(name)
    import_samples = [import_seconds(workload.module)
                      for _ in range(repeats)]
    host = HostSpeed()
    setup_samples = []
    context = None
    for _ in range(repeats):
        context = None  # drop the previous one before building the next
        started = time.perf_counter()
        context = workload.setup(seed, smoke)
        setup_samples.append(time.perf_counter() - started)
        host.cover(setup_samples[-1])
    setup_samples = [host.seconds(sample) for sample in setup_samples]
    setup_s = statistics.median(import_samples) + statistics.median(
        setup_samples)
    # What set-up built lives for the whole run: park it where the
    # collector does not rescan it before every chunk.
    gc.collect()
    gc.freeze()

    checked = {"attempted": 0, "failed": 0}
    if workload.check is not None:
        checked = workload.check(context)
    summary = (workload.traced if trace else workload.measure)(
        context, seconds)

    attempted = checked["attempted"] + summary["attempted"]
    failed = checked["failed"] + summary["failed"]
    notes: List[str] = list(checked.get("mismatches", []))
    notes += summary.get("failures", [])
    correct = failed == 0
    closure = summary.get("span_closure_error", 0.0)
    if closure > SPAN_CLOSURE_LIMIT:
        correct = False
        notes.append(f"span self times miss the root total by {closure:.1%}")

    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": summary["ops_per_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = dict(summary["rows"])
    measured.update(summary["layers"])
    measured.update(summary.get("traced_layers", {}))
    if trace:
        listed = catalog.PER_LAYER
        values = {}
        for metric in listed:
            if catalog.applies(metric, name):
                values[metric.name] = measured[metric.name]
            else:
                values[metric.name] = 0.0
    else:
        listed = catalog.END_TO_END
        values = end_to_end
    metrics = {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for metric in listed
    }

    recorders = summary.pop("recorders", None)
    if recorders:
        spans.flush(OUT / f"trace_{name}.json", recorders,
                    extra={"workload": name, "seed": seed})
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": correct,
        "ops": attempted,
        "ops_failed": failed,
        "metrics": metrics,
        "end_to_end": end_to_end,
        "measured": measured,
        "digests": {
            "stream": checked.get("stream_digest", ""),
            "output": checked.get("output_digest", ""),
            "sim": summary.get("sim_digest", ""),
        },
        "setup": {"import_s": import_samples, "setup_s": setup_samples},
        "host_slowdown": {
            "setup": host.slowdown,
            "measure": summary["host_slowdown"],
        },
        "timed_s": summary["timed_s"],
        "notes": notes,
        "detail": {key: summary[key]
                   for key in ("detail", "micro", "span_cost_ns",
                               "span_totals", "programs", "proofs",
                               "outcomes", "phase_passes")
                   if key in summary},
    }
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"== {name}  seed {record['seed']}  trace {record['trace']}"
          f"  {record['ops']} ops, {record['ops_failed']} failed,"
          f" {record['timed_s']:.2f} s timed, host"
          f" {record['host_slowdown']['measure']:.2f}x nominal")
    shown = dict(record["end_to_end"])
    shown.update(record["measured"])
    for metric_name, value in shown.items():
        metric = catalog.BY_NAME.get(metric_name)
        if metric is None or not catalog.applies(metric, name):
            continue
        print(f"  {metric_name:<52s} {value:>16.6g} {metric.unit:<12s}"
              f" [{metric.domain}]")
    for kind, value in record["digests"].items():
        if value:
            print(f"  {kind + '_digest':<52s} {value[:32]}")
    for note in record["notes"]:
        print(f"  ! {note}")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def results_payload(seed: int, seconds: float, smoke: bool,
                    records: List[dict]) -> dict:
    return {
        "schema": 1,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "runs": records,
    }


def validate(payload: dict) -> List[str]:
    from repro.telemetry.schema import validate_file

    return validate_file(payload, SCHEMA_PATH)


def main_one(args) -> int:
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke)
    print_record(record)
    payload = results_payload(args.seed, args.seconds, args.smoke, [record])
    errors = validate(payload)
    for error in errors:
        print(f"  ! results file: {error}")
    write_json(
        OUT / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json",
        payload)
    sys.stdout.flush()
    print(json.dumps({
        "correct": record["correct"] and not errors,
        "attempted": record["ops"],
        "failed": record["ops_failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] and not errors else 1


def main_all(args) -> int:
    """Every workload in a fresh subprocess; one merged results file."""
    records: List[dict] = []
    status = 0
    plan = [(name, 0) for name in catalog.ALL for _ in range(args.repeat)]
    if args.trace or args.smoke:
        plan += [(name, 1) for name in catalog.ALL]
    for name, trace in plan:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.smoke:
            command.append("--smoke")
        done = subprocess.run(command, capture_output=True, text=True)
        run_file = OUT / f"run_{name}_seed{args.seed}_trace{trace}.json"
        if done.returncode not in (0, 1) or not run_file.exists():
            print(f"== {name} trace {trace}: exit {done.returncode}")
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
            status = 1
            continue
        record = json.loads(run_file.read_text())["runs"][0]
        print_record(record)
        records.append(record)
        status = status or done.returncode
    payload = results_payload(args.seed, args.seconds, args.smoke, records)
    errors = validate(payload)
    for error in errors:
        print(f"! results file: {error}")
    out = Path(args.out) if args.out else (
        OUT / f"results_seed{args.seed}.json")
    write_json(out, payload)
    print(f"results: {out}")
    return 1 if errors else status


def self_test() -> int:
    """The harness's own checks; part of ``--smoke``."""
    import spans
    import streams

    problems = [f"spans: {p}" for p in spans.self_test()]
    problems += [f"streams: {p}" for p in streams.self_check()]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    implied = catalog.benchmark_json(
        declared["command"], declared["paths"], declared["run_seconds"])
    if declared != implied:
        problems.append("BENCHMARK.json differs from catalog.py")
    readme = (BENCH_DIR / "README.md").read_text()
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        if f"`{metric.name}`" not in readme:
            problems.append(f"README.md does not name {metric.name}")
    for workload in catalog.WORKLOADS:
        if f"`{workload}`" not in readme:
            problems.append(f"README.md does not name {workload}")
    for problem in problems:
        print(f"! {problem}")
    print("self-test:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/10 sizes, all checks, no repeatability"
                             " promise; also runs the self-test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="merged results file"
                                      " (all-workload mode)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of"
              " the repository", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload:
        return main_one(args)
    status = self_test() if args.smoke else 0
    return main_all(args) or status


if __name__ == "__main__":
    sys.exit(main())
