"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``<command> --help`` each
one's flags: argparse (:func:`build_parser`) is the one place both are
kept.  A command is a ``cmd_<name>(args) -> exit status`` function; the
compiler's refusals of its *input* print ``error:`` lines and exit 1
instead of a traceback (:func:`_reports_refusals`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from repro.compiler import compile_source
from repro.eval import render_table
from repro.eval.experiments import (
    EVAL_MIDDLEBOXES,
    failover_recovery,
    fault_recovery,
    figure7_throughput,
    figure8_workloads,
    figure9_fct,
    pool_recovery,
    table1_loc,
    table2_latency,
    table3_state_sync,
    tenancy_sweep,
)
from repro.ir.printer import format_function
from repro.lang.diagnostics import FrontendError
from repro.middleboxes import MIDDLEBOX_NAMES, load_source
from repro.partition.partitioner import PartitionError
from repro.switchsim.program import SwitchProgramError
from repro.verify import VerificationError


def _read_source(target: str) -> tuple:
    if target in MIDDLEBOX_NAMES:
        return load_source(target), f"{target}.cc", target
    path = Path(target)
    if not path.exists():
        raise SystemExit(
            f"error: {target!r} is neither a bundled middlebox"
            f" ({', '.join(MIDDLEBOX_NAMES)}) nor a file"
        )
    return path.read_text(), path.name, path.stem


def _reports_refusals(command):
    """Turn the compiler's refusals of the *input* into ``error:`` lines.

    Out-of-subset source (``FrontendError``), an infeasible partitioning
    (``PartitionError``), a switch program over its limits
    (``SwitchProgramError``) and a failed verification
    (``VerificationError``) are answers, not crashes: one line per
    diagnostic on stderr, exit status 1.  Anything else — including
    ``IRValidationError``, which means the compiler itself is wrong —
    keeps its traceback.
    """

    @functools.wraps(command)
    def run(args) -> int:
        try:
            return command(args)
        except VerificationError as refusal:
            lines = [d.format() for d in refusal.report.errors]
        except (FrontendError, PartitionError, SwitchProgramError) as refusal:
            lines = [str(refusal)]
        for line in lines:
            print(f"error: {line}", file=sys.stderr)
        return 1

    return run


@_reports_refusals
def cmd_compile(args) -> int:
    source, filename, stem = _read_source(args.target)
    result = compile_source(source, filename=filename,
                            verify=not args.no_verify)
    print(result.plan.summary())
    print(f"input {result.input_loc()} LoC -> P4 {result.p4_loc()} LoC"
          f" + C++ {result.cpp_loc()} LoC")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    p4_path = out_dir / f"{stem}.p4"
    cpp_path = out_dir / f"{stem}_server.cc"
    p4_path.write_text(result.p4_source)
    cpp_path.write_text(result.cpp_source)
    print(f"wrote {p4_path}")
    print(f"wrote {cpp_path}")
    return 0


@_reports_refusals
def cmd_partition(args) -> int:
    source, filename, _ = _read_source(args.target)
    result = compile_source(source, filename=filename)
    plan = result.plan
    for title, function in (
        ("pre-processing (switch)", plan.pre),
        ("non-offloaded (server)", plan.non_offloaded),
        ("post-processing (switch)", plan.post),
    ):
        print(f"=== {title} ===")
        print(format_function(function))
        print()
    print("shim to server :", plan.to_server.names(),
          f"({plan.to_server.byte_size()} bytes)")
    print("shim to switch :", plan.to_switch.names(),
          f"({plan.to_switch.byte_size()} bytes)")
    return 0


@_reports_refusals
def cmd_verify(args) -> int:
    import json

    from repro.verify import verify_compilation

    if args.target == "all":
        targets = list(MIDDLEBOX_NAMES)
    else:
        targets = [args.target]
    payloads = []
    failed = False
    for target in targets:
        source, filename, _ = _read_source(target)
        result = compile_source(source, filename=filename, verify=False)
        report = verify_compilation(result, cache_mode=args.cached)
        payload = report.to_dict()
        failed = failed or not report.ok
        if not args.json:
            print(report.format())
        if args.symbolic:
            from repro.middleboxes.registry import load
            from repro.telemetry.schema import check
            from repro.verify.symbolic import verify_symbolic

            config = (load(target).config
                      if target in MIDDLEBOX_NAMES else None)
            sym = verify_symbolic(
                result.plan, result.switch_program,
                source=source, config=config,
            )
            sym_dict = sym.to_dict()
            check(sym_dict, "symbolic", f"verify --symbolic ({target})")
            payload["symbolic"] = sym_dict
            failed = failed or not sym.proved
            if not args.json:
                verdict = "PROVED" if sym.proved else "NOT PROVED"
                costliest = max(sym.per_scenario,
                                key=lambda row: row["elapsed_s"])
                print(
                    f"{sym.program}: translation validation {verdict}"
                    f" ({sym.scenarios} scenarios, {sym.worlds} worlds,"
                    f" {sym.elapsed_s:.2f}s; costliest"
                    f" {costliest['label']}: {costliest['worlds']} worlds,"
                    f" {costliest['elapsed_s'] * 1e3:.0f} ms)"
                )
                for diagnostic in sym.diagnostics:
                    print(diagnostic.format())
                for counterexample in sym.counterexamples:
                    print(
                        f"  counterexample ({counterexample.code}):"
                        f" {counterexample.replay_detail}"
                        + (f" -> {counterexample.corpus_path}"
                           if counterexample.corpus_path else "")
                    )
        payloads.append(payload)
    if args.json:
        print(json.dumps(payloads[0] if args.target != "all" else payloads,
                         indent=2))
    return 1 if failed else 0


def cmd_experiments(args) -> int:
    which = args.which
    if which in ("table1", "all"):
        print("Table 1 — lines of code")
        print(render_table(*table1_loc()))
        print()
    if which in ("table2", "all"):
        print("Table 2 — latency (µs)")
        print(render_table(*table2_latency(samples=100)))
        print()
    if which in ("table3", "all"):
        print("Table 3 — state sync latency (µs)")
        print(render_table(*table3_state_sync(trials=100)))
        print()
    if which in ("fig7", "all"):
        for name in EVAL_MIDDLEBOXES:
            print(f"Figure 7 — {name} throughput (Gbps)")
            print(render_table(*figure7_throughput(name)))
            print()
    if which in ("fig8", "all"):
        for name in EVAL_MIDDLEBOXES:
            print(f"Figure 8 — {name} workload throughput (Gbps)")
            print(render_table(*figure8_workloads(name, flows=args.flows)))
            print()
    if which in ("fig9", "all"):
        for name in EVAL_MIDDLEBOXES:
            print(f"Figure 9 — {name} FCT by flow size (µs)")
            print(render_table(*figure9_fct(name, flows=args.flows)))
            print()
    if which in ("recovery", "all"):
        print("Fault recovery — punt-path outage timelines")
        print(render_table(*fault_recovery()))
        print()
        print("Failover — standby promotion window cost")
        print(render_table(*failover_recovery()))
        print()
        print("Server pool — member-crash migration cost")
        print(render_table(*pool_recovery()))
        print()
    if which in ("tenancy", "all"):
        print("Multi-tenancy — shared-channel queueing vs tenant count")
        print(render_table(*tenancy_sweep()))
        print()
    return 0


def _campaign_args(args) -> dict:
    """What ``difftest``, ``difftest --compiled`` and ``faults`` all hand
    to the seeded campaign loop."""
    return dict(
        runs=args.runs,
        seed=args.seed,
        packets=args.packets,
        max_failures=args.max_failures,
        time_budget_s=args.time_budget,
        seed_override=args.seed_override,
        log=print,  # streams progress and each failure report as found
    )


def _add_campaign_arguments(parser, runs_of: str, campaign: str) -> None:
    """The flags :func:`_campaign_args` reads back."""
    parser.add_argument("--runs", type=int, default=200,
                        help=f"number of {runs_of}")
    parser.add_argument("--seed", type=int, default=0,
                        help=f"master seed (one seed per {campaign})")
    parser.add_argument("--packets", type=int, default=25,
                        help="packets per stream")
    parser.add_argument("--max-failures", type=int, default=10,
                        help="stop after this many failures")
    parser.add_argument("--seed-override", type=int, default=None,
                        help="pin the program seed of run 0"
                        " (reproduce a reported failure)")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop early after this many seconds")


def cmd_difftest(args) -> int:
    from repro.difftest import run_compiled_gauntlet, run_gauntlet

    if args.compiled:
        stats, _failures = run_compiled_gauntlet(**_campaign_args(args))
    else:
        stats, _failures = run_gauntlet(
            shrink_failures=args.shrink, symbolic=args.symbolic,
            **_campaign_args(args),
        )
    print(stats.summary())
    return 1 if stats.failures else 0


def cmd_faults(args) -> int:
    from repro.faults import run_campaign
    from repro.runtime import DeploymentSpec

    try:
        deployment = DeploymentSpec.from_flags(
            cached=args.cached, cache_entries=args.cache_entries,
            failover=args.failover, servers=args.servers,
        )
    except ValueError as exc:  # a pool size below 1
        raise SystemExit(f"error: {exc}")
    stats, _failures = run_campaign(
        shrink_failures=args.shrink, deployment=deployment,
        **_campaign_args(args),
    )
    print(stats.summary())
    if args.summary_json is not None:
        import json

        from repro.telemetry.schema import check

        summary = stats.summary_dict()
        check(summary, "faults_summary", what="campaign rollup")
        out_path = Path(args.summary_json)
        out_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {out_path}")
    return 1 if stats.failures else 0


#: Default tenant set: the three bundled middleboxes the shared budget
#: comfortably admits together (the CI smoke's isolation triple).
DEFAULT_TENANTS = ("minilb", "mazunat", "lb")


def cmd_tenancy(args) -> int:
    import json

    from repro.telemetry.schema import check
    from repro.tenancy import (
        DuplicateTenantError,
        SharedSwitchBudget,
        SwitchResourceAllocator,
        build_tenant_specs,
    )
    from repro.tenancy.oracle import run_isolation_oracle

    names = list(args.tenants) if args.tenants else list(DEFAULT_TENANTS)
    for name in names:
        if name not in MIDDLEBOX_NAMES:
            raise SystemExit(
                f"error: {name!r} is not a bundled middlebox"
                f" ({', '.join(MIDDLEBOX_NAMES)})"
            )
    overrides = {
        axis: value for axis, value in (
            ("memory_bytes", args.budget_memory),
            ("pipeline_depth", args.budget_stages),
            ("table_slots_per_stage", args.budget_table_slots),
            ("phv_bytes", args.budget_phv),
        ) if value is not None
    }
    budget = SharedSwitchBudget(**overrides)
    specs = build_tenant_specs(names)
    isolation = None
    series_window = (
        args.series_window if args.series_window > 0 else None
    )
    try:
        if args.admit_only:
            admission = SwitchResourceAllocator(budget).admit(specs)
        else:
            isolation = run_isolation_oracle(
                specs,
                packets_per_tenant=args.packets,
                budget=budget,
                seed=args.seed,
                fast_path=args.fast_path,
                series_window_us=series_window,
            )
            admission = isolation.admission
    except DuplicateTenantError as exc:
        raise SystemExit(f"error: {exc}")
    lint_report = admission.lint()
    if args.json:
        payload = {
            "version": 1,
            "tenants": names,
            "packets_per_tenant": 0 if args.admit_only else args.packets,
            "seed": args.seed,
            "admission": admission.to_dict(),
            "lint": lint_report.to_dict(),
            "isolation": (
                isolation.to_dict() if isolation is not None else None
            ),
            "channel": isolation.channel if isolation is not None else None,
            "counters": (
                isolation.counters if isolation is not None else None
            ),
            "series": (
                isolation.series if isolation is not None else None
            ),
        }
        check(payload, "tenancy", what="tenancy report")
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# tenancy — {', '.join(names)}")
        print(admission.format())
        if not lint_report.ok:
            print()
            print(lint_report.format())
        if isolation is not None:
            print()
            print(isolation.format())
            print()
            print("shared channel:")
            for tenant, stats in sorted(isolation.channel.items()):
                print(
                    f"  {tenant:10s} {stats['rpc_count']} RPCs,"
                    f" mean queue wait"
                    f" {stats['queue_wait_mean_us']:.1f} µs"
                )
    failed = not lint_report.ok or (
        isolation is not None and not isolation.ok
    )
    return 1 if failed else 0


def _build_observed_deployment(name, deployment, seed, cache_entries,
                               tracing, deep, sample_every=None,
                               punted_only=False, series_window_us=None,
                               int_sample_every=None):
    """Deploy one bundled middlebox with a telemetry bundle attached."""
    from repro.middleboxes import load
    from repro.telemetry import Telemetry

    if name not in MIDDLEBOX_NAMES:
        raise SystemExit(
            f"error: {name!r} is not a bundled middlebox"
            f" ({', '.join(MIDDLEBOX_NAMES)})"
        )
    telemetry = Telemetry(tracing=tracing, deep=deep,
                          sample_every=sample_every,
                          punted_only=punted_only,
                          series_window_us=series_window_us,
                          int_sample_every=int_sample_every)
    bundle = load(name)
    if deployment == "baseline":
        from repro.runtime.baseline import FastClickRuntime

        middlebox = FastClickRuntime(
            bundle.lowered, config=bundle.config, telemetry=telemetry
        )
    else:
        from repro.runtime import DeploymentSpec
        from repro.runtime.cache import CacheConfigurationError
        from repro.runtime.deployment import (
            GalliumMiddlebox,
            compile_middlebox,
        )

        plan, program = compile_middlebox(bundle.lowered)
        spec = DeploymentSpec.from_flags(
            cached=deployment == "cached", cache_entries=cache_entries,
            failover=deployment == "failover",
        )
        try:
            middlebox = GalliumMiddlebox(
                plan, program, config=bundle.config, seed=seed,
                telemetry=telemetry, **spec.roles(),
            )
        except CacheConfigurationError as exc:
            raise SystemExit(f"error: {exc}")
    middlebox.install()
    return middlebox, telemetry


def _drive_stream(middlebox, name: str, packets: int) -> int:
    from itertools import islice

    from repro.workloads import IperfWorkload, middlebox_stream

    count = 0
    for packet, port in islice(
        middlebox_stream(name, IperfWorkload()), packets
    ):
        middlebox.process_packet(packet, port)
        count += 1
    return count


def cmd_trace(args) -> int:
    import json

    if args.sample_every is not None and args.sample_every < 1:
        raise SystemExit("error: --sample-every must be >= 1")
    middlebox, telemetry = _build_observed_deployment(
        args.target, args.deployment, args.seed, args.cache_entries,
        tracing=True, deep=args.deep,
        sample_every=args.sample_every, punted_only=args.punted_only,
    )
    count = _drive_stream(middlebox, args.target, args.packets)
    telemetry.tracer.flush()
    if args.json:
        payload = {
            "version": 1,
            "middlebox": args.target,
            "deployment": args.deployment,
            "seed": args.seed,
            "packets": count,
            "deep": args.deep,
            "events": telemetry.tracer.to_dicts(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"# {args.target} [{args.deployment}]"
              f" — {count} packets,"
              f" {len(telemetry.tracer.events)} events")
        print(telemetry.tracer.format())
    return 0


def cmd_metrics(args) -> int:
    import json

    middlebox, telemetry = _build_observed_deployment(
        args.target, args.deployment, args.seed, args.cache_entries,
        tracing=False, deep=False,
    )
    count = _drive_stream(middlebox, args.target, args.packets)
    snapshot = telemetry.metrics.to_dict()
    if args.json:
        payload = {
            "version": 1,
            "middlebox": args.target,
            "deployment": args.deployment,
            "seed": args.seed,
            "packets": count,
            "metrics": snapshot,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"# {args.target} [{args.deployment}] — {count} packets")
    if snapshot["counters"]:
        print("counters:")
        for name, value in snapshot["counters"].items():
            print(f"  {name:<40s} {value}")
    if snapshot["gauges"]:
        print("gauges:")
        for name, value in snapshot["gauges"].items():
            print(f"  {name:<40s} {value}")
    if snapshot["histograms"]:
        print("histograms:")
        for name, hist in snapshot["histograms"].items():
            print(f"  {name:<40s} count={hist['count']}"
                  f" sum={hist['sum']:.3f}")
            buckets = ", ".join(
                f"<={'inf' if bound is None else bound}: {n}"
                for bound, n in zip(
                    list(hist["bounds"]) + [None], hist["buckets"]
                )
                if n
            )
            if buckets:
                print(f"  {'':<40s} {buckets}")
    return 0


def cmd_obs(args) -> int:
    import json

    from repro.telemetry.schema import check

    if args.sample_every < 1:
        raise SystemExit("error: --sample-every must be >= 1")
    if args.window_us <= 0:
        raise SystemExit("error: --window-us must be positive")
    middlebox, telemetry = _build_observed_deployment(
        args.target, args.deployment, args.seed, args.cache_entries,
        tracing=False, deep=False,
        series_window_us=args.window_us,
        int_sample_every=args.sample_every,
    )
    telemetry.series.promote_defaults()
    count = _drive_stream(middlebox, args.target, args.packets)
    series = telemetry.series.to_dict()
    int_report = telemetry.int_collector.to_dict()
    health = None
    # The baseline runtime has no redundancy role, a single switch no
    # health monitor.
    monitor = getattr(
        getattr(middlebox, "redundancy", None), "health", None
    )
    if monitor is not None:
        from repro.telemetry import health as calibration

        latency = monitor.detection_latency_us
        health = {
            "interval_us": round(calibration.HEARTBEAT_INTERVAL_US, 6),
            "threshold": round(calibration.PHI_THRESHOLD, 6),
            "min_std_us": round(calibration.MIN_STD_US, 6),
            "window": calibration.SAMPLE_WINDOW,
            "heartbeats": telemetry.metrics.counter_value(
                "health.heartbeats"
            ),
            "detections": telemetry.metrics.counter_value(
                "health.detections"
            ),
            "forced_detections": telemetry.metrics.counter_value(
                "health.forced_detections"
            ),
            "expected_bound_us": round(
                calibration.expected_detection_latency_us(), 3
            ),
            "detection_latency_us": (
                round(latency, 3) if latency is not None else None
            ),
        }
    if args.json:
        payload = {
            "version": 1,
            "middlebox": args.target,
            "deployment": args.deployment,
            "seed": args.seed,
            "packets": count,
            "window_us": round(args.window_us, 6),
            "sample_every": args.sample_every,
            "series": series,
            "int": int_report,
            "health": health,
        }
        check(payload, "obs", what="obs report")
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"# {args.target} [{args.deployment}] — {count} packets,"
          f" window {args.window_us:g} µs,"
          f" INT sample 1/{args.sample_every}")
    print("series:")
    for name, entry in series["series"].items():
        windows = entry["windows"]
        span = (f"windows {windows[0]['index']}-{windows[-1]['index']}"
                if windows else "quiet")
        print(f"  {name:<36s} {entry['kind']:<10s}"
              f" {len(windows):3d} active ({span})")
    print("flows:")
    for flow in int_report["flows"]:
        hops = ", ".join(
            f"{hop}={spec['latency_us']:.3f}µs"
            for hop, spec in flow["hops"].items()
        )
        print(f"  {flow['flow']:<34s} {flow['packets']:3d} pkts,"
              f" {flow['punts']} punts — {hops}")
    if health is not None:
        latency = health["detection_latency_us"]
        print(f"health: {health['heartbeats']} heartbeats,"
              f" {health['detections']} detections,"
              f" latency "
              + (f"{latency:.3f} µs" if latency is not None else "n/a")
              + f" (bound {health['expected_bound_us']:.3f} µs)")
    return 0


def cmd_list(args) -> int:
    from repro.middleboxes import load

    for name in MIDDLEBOX_NAMES:
        bundle = load(name)
        loc = bundle.lowered.program.source_line_count()
        print(f"{name:10s} {bundle.display_name:16s} {loc:4d} LoC")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gallium reproduction: middlebox-to-P4 compiler"
        " + evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser("compile", help="compile a middlebox")
    compile_parser.add_argument("target", help="bundled name or .cc file")
    compile_parser.add_argument("--out", default="out",
                                help="artifact output directory")
    compile_parser.add_argument("--no-verify", action="store_true",
                                help="skip the static verification layer")
    compile_parser.set_defaults(func=cmd_compile)

    verify_parser = sub.add_parser(
        "verify", help="run the static verifier over a middlebox"
    )
    verify_parser.add_argument(
        "target", help="bundled name, .cc file, or 'all'"
    )
    verify_parser.add_argument("--json", action="store_true",
                               help="emit machine-readable JSON diagnostics")
    verify_parser.add_argument("--cached", action="store_true",
                               help="also check cached-deployment"
                               " preconditions (PART006)")
    verify_parser.add_argument("--symbolic", action="store_true",
                               help="also run translation validation: prove"
                               " the composed deployment equivalent to the"
                               " source on a bounded symbolic packet space"
                               " (SYM001-SYM008)")
    verify_parser.set_defaults(func=cmd_verify)

    partition_parser = sub.add_parser(
        "partition", help="show the three partition CFGs"
    )
    partition_parser.add_argument("target")
    partition_parser.set_defaults(func=cmd_partition)

    experiments_parser = sub.add_parser(
        "experiments", help="regenerate paper tables/figures"
    )
    experiments_parser.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=["table1", "table2", "table3", "fig7", "fig8", "fig9",
                 "recovery", "tenancy", "all"],
    )
    experiments_parser.add_argument("--flows", type=int, default=1000)
    experiments_parser.set_defaults(func=cmd_experiments)

    difftest_parser = sub.add_parser(
        "difftest", help="run the differential-testing gauntlet"
    )
    _add_campaign_arguments(difftest_parser, "generated programs", "gauntlet")
    difftest_parser.add_argument("--shrink", action="store_true",
                                 help="delta-debug each failure to a minimal"
                                 " reproducer")
    difftest_parser.add_argument("--compiled", action="store_true",
                                 help="differential-test the compiled"
                                 " fast-path engine against the IR"
                                 " interpreter instead (byte-identical"
                                 " verdicts, env, journals, metrics)")
    difftest_parser.add_argument("--symbolic", action="store_true",
                                 help="add the symbolic prover as a third"
                                 " opinion next to the oracle and the static"
                                 " verifier; disagreement reports name the"
                                 " dissenting checker")
    difftest_parser.set_defaults(func=cmd_difftest)

    faults_parser = sub.add_parser(
        "faults", help="run the fault-injection campaign"
    )
    _add_campaign_arguments(faults_parser, "fault scenarios", "campaign")
    faults_parser.add_argument("--shrink", action="store_true",
                               help="delta-debug each failure (fault plan,"
                               " program, stream) to a minimal reproducer")
    faults_parser.add_argument("--cached", action="store_true",
                               help="run scenarios on the bounded-table"
                               " cache deployment")
    faults_parser.add_argument("--cache-entries", type=int, default=2,
                               help="cache bound per replicated table"
                               " (with --cached)")
    faults_parser.add_argument("--failover", action="store_true",
                               help="run scenarios on the active-standby"
                               " failover deployment (adds switch-crash,"
                               " crash-during-batch and stale-standby"
                               " fault kinds)")
    faults_parser.add_argument("--servers", type=int, default=None,
                               metavar="N",
                               help="run every scenario on a punt-path"
                               " server pool of N members under pool fault"
                               " plans (member crashes/drains with live"
                               " flow-state migration); composes with"
                               " --cached and --failover")
    faults_parser.add_argument("--summary-json", default=None, metavar="PATH",
                               help="write the cross-scenario rollup"
                               " (window-length distributions, rollback"
                               " rates by fault kind) as JSON")
    faults_parser.set_defaults(func=cmd_faults)

    tenancy_parser = sub.add_parser(
        "tenancy", help="multi-tenant switch: admit, run, and prove"
        " per-tenant isolation"
    )
    tenancy_parser.add_argument(
        "tenants", nargs="*", metavar="tenant",
        help=f"bundled middlebox names (default:"
        f" {' '.join(DEFAULT_TENANTS)})",
    )
    tenancy_parser.add_argument("--packets", type=int, default=100,
                                help="workload packets per tenant")
    tenancy_parser.add_argument("--seed", type=int, default=0,
                                help="deployment seed (same for solo"
                                " references)")
    tenancy_parser.add_argument("--admit-only", action="store_true",
                                help="stop after admission + combined"
                                " lint; run no traffic")
    tenancy_parser.add_argument("--fast-path", action="store_true",
                                help="run tenants on the compiled engine")
    tenancy_parser.add_argument("--json", action="store_true",
                                help="emit the schema-checked JSON report")
    tenancy_parser.add_argument("--budget-memory", type=int, default=None,
                                metavar="BYTES",
                                help="override shared SRAM budget")
    tenancy_parser.add_argument("--budget-stages", type=int, default=None,
                                metavar="N",
                                help="override shared pipeline depth")
    tenancy_parser.add_argument("--budget-table-slots", type=int,
                                default=None, metavar="N",
                                help="override table slots per stage")
    tenancy_parser.add_argument("--series-window", type=float, default=100.0,
                                metavar="US",
                                help="per-tenant time-series window width"
                                " in simulated µs (0 disables windowing)")
    tenancy_parser.add_argument("--budget-phv", type=int, default=None,
                                metavar="BYTES",
                                help="override shared PHV byte budget")
    tenancy_parser.set_defaults(func=cmd_tenancy)

    def _add_observe_args(observe_parser):
        observe_parser.add_argument("target", help="bundled middlebox name")
        observe_parser.add_argument(
            "--deployment", default="gallium",
            choices=["gallium", "cached", "baseline", "failover"],
            help="which runtime to observe",
        )
        observe_parser.add_argument("--packets", type=int, default=25,
                                    help="packets to drive through")
        observe_parser.add_argument("--seed", type=int, default=0,
                                    help="deployment seed")
        observe_parser.add_argument("--cache-entries", type=int, default=16,
                                    help="cache bound per replicated table"
                                    " (with --deployment cached)")
        observe_parser.add_argument("--json", action="store_true",
                                    help="emit the schema-checked JSON"
                                    " payload")

    trace_parser = sub.add_parser(
        "trace", help="per-packet event trace of one deployment"
    )
    _add_observe_args(trace_parser)
    trace_parser.add_argument("--deep", action="store_true",
                              help="also record one event per executed IR"
                              " instruction")
    trace_parser.add_argument("--sample-every", type=int, default=None,
                              metavar="N",
                              help="record only every Nth packet's events"
                              " (whole-packet sampling; the result is a"
                              " subsequence of the full trace)")
    trace_parser.add_argument("--punted-only", action="store_true",
                              help="record only packets that took the"
                              " slow path")
    trace_parser.set_defaults(func=cmd_trace)

    metrics_parser = sub.add_parser(
        "metrics", help="metrics-registry snapshot of one deployment"
    )
    _add_observe_args(metrics_parser)
    metrics_parser.set_defaults(func=cmd_metrics)

    obs_parser = sub.add_parser(
        "obs", help="time-resolved observability: windowed series +"
        " in-band per-hop telemetry (+ health, on failover)"
    )
    _add_observe_args(obs_parser)
    obs_parser.add_argument("--window-us", type=float, default=100.0,
                            metavar="US",
                            help="series window width in simulated µs")
    obs_parser.add_argument("--sample-every", type=int, default=1,
                            metavar="N",
                            help="stamp INT metadata on every Nth packet")
    obs_parser.set_defaults(func=cmd_obs)

    list_parser = sub.add_parser("list", help="list bundled middleboxes")
    list_parser.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
