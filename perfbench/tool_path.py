"""The two workloads that time the tool, not the packets: ``compile``
and ``campaign``.

Both run a fixed pool of operations round-robin until the time budget is
spent and time every operation on its own.  An operation's cost is the
mean of its timings in calibrated seconds (``hostspeed.py``); a figure is
a sum or geometric mean of those costs, so it does not matter that the
budget runs out part-way through a pass.

The pools are fixed on purpose.  Generated programs compile in anything
from 4 ms to 13 s (the partitioner's label-removal fixpoint), so sixteen
programs drawn afresh per seed differ five-fold in total work and no
regression bound could gate the result.  The pool is one seeded draw,
pinned in this file; ``--seed`` only orders the operations.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import spans
from hostspeed import HostSpeed
from repro.codegen.cpp import emit_cpp_program
from repro.codegen.headers import synthesize_shim_layouts
from repro.codegen.p4 import emit_p4_program
from repro.compiler import CompilationResult, compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.faults import campaign as campaign_module
from repro.faults import oracle as oracle_module
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition import partitioner as partitioner_module
from repro.switchsim.program import SwitchProgram
from repro.verify import VerificationError, verify_compilation
from repro.verify.symbolic import verify_symbolic

#: Master seed of both pools.  ``compile`` takes the first 12 programs of
#: the draw and ``campaign`` builds its first 24 scenarios on the same
#: draw, so a compiler gain can be followed into the harness.  Seed 9 was
#: picked among 1..13 for a pass that fits the run several times while
#: keeping the shape of the distribution: most programs compile in
#: 10-60 ms, five take 0.1-0.9 s.
POOL_MASTER_SEED = 9
FUZZ_PROGRAMS = 12
#: compiles of each bundled source per pass
BUNDLED_REPEATS = 3
CAMPAIGN_SCENARIOS = 24
CAMPAIGN_PACKETS = 25
SMOKE_DIVISOR = 4
OUTCOMES = ("clean", "degraded_ok", "violations", "crashes", "rejected")

#: share of the traced run's budget spent on the untraced operations
TRACED_UNTRACED_SHARE = 0.45


@dataclass
class Op:
    """One timed operation of a pool."""

    kind: str  # "bundled" | "fuzz" | "prove" | "scenario"
    label: str  # the program, middlebox or scenario it works on
    run: Callable[[], Tuple[float, Optional[str]]]
    #: runs the pool owes this operation whatever the budget
    needed: int = 1
    #: seconds per completed run
    samples: List[float] = field(default_factory=list)
    #: one line per failed run
    failures: List[str] = field(default_factory=list)

    def step(self, host: HostSpeed) -> None:
        elapsed, failure = self.run()
        self.samples.append(elapsed)
        if failure is not None:
            self.failures.append(failure)
        host.cover(elapsed)

    @property
    def mean_s(self) -> float:
        """Mean seconds per run (uncalibrated)."""
        return statistics.fmean(self.samples)


def run_pool(ops: List[Op], budget_s: float) -> HostSpeed:
    """Round-robin ``ops`` until ``budget_s`` of wall time has passed and
    every operation has run as often as it needs.  Returns the host-speed
    samples taken alongside."""
    host = HostSpeed()
    started = time.perf_counter()
    while True:
        for op in ops:
            op.step(host)
            if time.perf_counter() - started >= budget_s and all(
                    len(other.samples) >= other.needed for other in ops):
                return host


def _ordered(ops: List[Op], seed: int) -> List[Op]:
    ordered = list(ops)
    random.Random(seed).shuffle(ordered)
    return ordered


def _pool_summary(ops: List[Op], host: HostSpeed) -> dict:
    return {
        "attempted": sum(len(op.samples) for op in ops),
        "failed": sum(len(op.failures) for op in ops),
        "failures": [line for op in ops for line in op.failures][:20],
        "timed_s": sum(sum(op.samples) for op in ops),
        "host_slowdown": host.slowdown,
        "detail": [
            {"kind": op.kind, "label": op.label,
             "mean_s": host.seconds(op.mean_s), "samples": len(op.samples)}
            for op in ops
        ],
    }


# -- compile ----------------------------------------------------------------------


class CompileContext:
    """Sources, generated programs and the compiled six (for proofs)."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.bundles = {name: load(name) for name in MIDDLEBOX_NAMES}
        programs = FUZZ_PROGRAMS // SMOKE_DIVISOR if smoke else FUZZ_PROGRAMS
        self.fuzz: Dict[str, str] = {}
        for index in range(programs):
            program_seed = derive_seeds(POOL_MASTER_SEED, index)[0]
            self.fuzz[f"gen{index:02d}"] = generate_program(
                program_seed).source()
        self.compiled: Dict[str, CompilationResult] = {
            name: compile_source(bundle.source, filename=f"{name}.cc")
            for name, bundle in self.bundles.items()
        }
        #: first emitted (P4, C++) text per source label
        self._texts: Dict[str, Tuple[str, str]] = {
            name: (result.p4_source, result.cpp_source)
            for name, result in self.compiled.items()
        }
        self.proofs: Dict[str, dict] = {}

    def _compile(self, label: str, source: str) -> Tuple[float, Optional[str]]:
        started = time.perf_counter()
        try:
            result = compile_source(source, filename=f"{label}.cc",
                                    verify=True)
        except VerificationError as exc:
            elapsed = time.perf_counter() - started
            return elapsed, f"{label}: rejected by the verifier: {exc}"
        elapsed = time.perf_counter() - started
        texts = (result.p4_source, result.cpp_source)
        if self._texts.setdefault(label, texts) != texts:
            return elapsed, f"{label}: two compiles emitted different text"
        return elapsed, None

    def _prove(self, name: str) -> Tuple[float, Optional[str]]:
        result = self.compiled[name]
        started = time.perf_counter()
        report = verify_symbolic(result.plan, result.switch_program,
                                 config=self.bundles[name].config)
        elapsed = time.perf_counter() - started
        self.proofs[name] = {"worlds": report.worlds,
                             "scenarios": report.scenarios}
        if not report.proved:
            return elapsed, f"{name}: proof not proved"
        return elapsed, None

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for _ in range(BUNDLED_REPEATS):
            for name, bundle in self.bundles.items():
                ops.append(Op(
                    "bundled", name,
                    lambda name=name, source=bundle.source:
                        self._compile(name, source),
                ))
        for label, source in self.fuzz.items():
            # Twice: the second compile is what shows the emitted text
            # to be deterministic (a bundled source has three ops anyway).
            ops.append(Op(
                "fuzz", label,
                lambda label=label, source=source:
                    self._compile(label, source),
                needed=2,
            ))
        for name in self.bundles:
            ops.append(Op("prove", name,
                          lambda name=name: self._prove(name)))
        return _ordered(ops, self.seed)


def compile_rows(ops: List[Op], host: HostSpeed) -> dict:
    bundled: Dict[str, List[float]] = {}
    for op in ops:
        if op.kind == "bundled":
            bundled.setdefault(op.label, []).extend(op.samples)

    def total(kind: str) -> float:
        return host.seconds(sum(op.mean_s for op in ops if op.kind == kind))

    return {
        "ops_per_s": host.rate(len(ops) / sum(op.mean_s for op in ops)),
        "rows": {
            "compile_bundled_ms": 1000.0 * host.seconds(
                statistics.geometric_mean(
                    statistics.fmean(samples)
                    for samples in bundled.values())),
            "compile_fuzz_s": total("fuzz"),
            "prove_s": total("prove"),
        },
    }


def measure_compile(ctx: CompileContext, seconds: float) -> dict:
    ops = ctx.ops()
    host = run_pool(ops, seconds)
    summary = _pool_summary(ops, host)
    summary.update(compile_rows(ops, host))
    summary["layers"] = {}
    return summary


#: the compile pipeline as the benchmark calls it, phase by phase
PHASES = ("lang.parse", "ir.lower", "partition.partition",
          "codegen.program", "codegen.emit_p4", "codegen.emit_cpp",
          "verify.static")
ROOT_COMPILE = "compile"


def _phased_compile(recorder: spans.SpanRecorder, label: str,
                    source: str) -> CompilationResult:
    """``compile_source(verify=True)`` with a span around each phase."""

    def phase(name: str, function: Callable, *args):
        return recorder.wrapped(name, function)(*args)

    def build() -> CompilationResult:
        program = phase("lang.parse", parse_program, source, f"{label}.cc")
        lowered = phase("ir.lower", lower_program, program)
        plan = phase("partition.partition",
                     partitioner_module.partition_middlebox, lowered, None)

        def switch_program():
            shims = synthesize_shim_layouts(plan.to_server, plan.to_switch)
            return shims, SwitchProgram.from_plan(plan, *shims)

        (to_server, to_switch), program_ = phase("codegen.program",
                                                 switch_program)
        p4_source = phase("codegen.emit_p4", emit_p4_program, program_)
        cpp_source = phase("codegen.emit_cpp", emit_cpp_program, plan,
                           to_server, to_switch)
        result = CompilationResult(
            lowered=lowered, plan=plan, switch_program=program_,
            shim_to_server=to_server, shim_to_switch=to_switch,
            p4_source=p4_source, cpp_source=cpp_source,
        )
        report = phase("verify.static", verify_compilation, result)
        if not report.ok:
            raise VerificationError(report)
        return result

    return recorder.wrapped(ROOT_COMPILE, build)()


def measure_compile_traced(ctx: CompileContext, seconds: float) -> dict:
    ops = ctx.ops()
    host = run_pool(ops, seconds * TRACED_UNTRACED_SHARE)
    summary = _pool_summary(ops, host)
    summary.update(compile_rows(ops, host))

    groups = {"bundled": {name: bundle.source
                          for name, bundle in ctx.bundles.items()},
              "fuzz": ctx.fuzz}
    recorders = {group: spans.SpanRecorder(ROOT_COMPILE) for group in groups}
    results: Dict[str, CompilationResult] = {}
    passes = 0
    phase_host = HostSpeed()
    started = time.perf_counter()
    budget = seconds * (1.0 - TRACED_UNTRACED_SHARE)
    while passes == 0 or time.perf_counter() - started < budget:
        for group, sources in groups.items():
            recorder = recorders[group]
            # The partitioner imported the name, so the call it makes
            # goes through its own module attribute.
            recorder.wrap_attribute(partitioner_module, "run_label_removal",
                                    "partition.label_removal")
            try:
                for label, source in sources.items():
                    began = time.perf_counter()
                    results[label] = _phased_compile(recorder, label, source)
                    phase_host.cover(time.perf_counter() - began)
                    recorder.drain()
            finally:
                recorder.unwrap_all()
        passes += 1

    layers: Dict[str, float] = {}
    for group, recorder in recorders.items():
        totals = recorder.summary()["layers"]
        for phase in PHASES:
            layers[f"{phase}_ms.{group}"] = phase_host.seconds(
                totals[phase]["total_ns"] / passes / 1e6)
    label_removal = sum(
        recorder.layers.get("partition.label_removal", {}).get("calls", 0)
        for recorder in recorders.values())
    worlds = sum(proof["worlds"] for proof in ctx.proofs.values())
    prove_s = summary["rows"]["prove_s"]
    instructions = [len(list(result.lowered.process.instructions()))
                    for result in results.values()]
    layers.update({
        "partition.label_removal_calls": label_removal / passes,
        "verify.symbolic_worlds": worlds,
        "verify.symbolic_worlds_per_s": worlds / prove_s if prove_s else 0.0,
        "ir.instructions": sum(instructions),
        "partition.offloaded_stmt_share": statistics.fmean(
            result.plan.offloaded_fraction() for result in results.values()),
        "codegen.p4_loc": sum(r.p4_loc() for r in results.values()),
        "codegen.cpp_loc": sum(r.cpp_loc() for r in results.values()),
    })
    summary["layers"] = layers
    summary["recorders"] = recorders
    summary["phase_passes"] = passes
    summary["programs"] = {
        label: {
            "ir_instructions":
                len(list(result.lowered.process.instructions())),
            "offloaded_share": result.plan.offloaded_fraction(),
            "p4_loc": result.p4_loc(),
            "cpp_loc": result.cpp_loc(),
        }
        for label, result in results.items()
    }
    summary["proofs"] = dict(ctx.proofs)
    return summary


# -- campaign ---------------------------------------------------------------------


class CampaignContext:
    """The scenario pool: one program seed per scenario, from which
    ``run_campaign`` derives the stream, the fault plan and the policy."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        count = (CAMPAIGN_SCENARIOS // SMOKE_DIVISOR if smoke
                 else CAMPAIGN_SCENARIOS)
        self.program_seeds = [
            derive_seeds(POOL_MASTER_SEED, index)[0]
            for index in range(count)
        ]
        # Rendering the programs here is what run_campaign will repeat per
        # scenario; it shows the pool is valid before anything is timed.
        self.source_lines = {
            program_seed: len(generate_program(program_seed)
                              .source().splitlines())
            for program_seed in self.program_seeds
        }
        #: latest outcome per scenario (a scenario's outcome never varies)
        self.outcome_of: Dict[int, str] = {}

    @property
    def outcomes(self) -> Dict[str, int]:
        """Scenarios of the pool per outcome."""
        counts = dict.fromkeys(OUTCOMES, 0)
        for outcome in self.outcome_of.values():
            counts[outcome] += 1
        return counts

    def _scenario(self, program_seed: int) -> Tuple[float, Optional[str]]:
        stats, failures = campaign_module.run_campaign(
            runs=1, seed=0, packets=CAMPAIGN_PACKETS,
            seed_override=program_seed,
        )
        self.outcome_of[program_seed] = next(
            outcome for outcome in OUTCOMES if getattr(stats, outcome))
        failure = None
        if failures:
            failure = (f"scenario {program_seed}:"
                       f" {failures[0].result.outcome.value}")
        return stats.elapsed_s, failure

    def ops(self) -> List[Op]:
        return _ordered(
            [Op("scenario", str(program_seed),
                lambda program_seed=program_seed:
                    self._scenario(program_seed))
             for program_seed in self.program_seeds],
            self.seed,
        )


def campaign_rows(ops: List[Op], host: HostSpeed) -> dict:
    rate = host.rate(len(ops) / sum(op.mean_s for op in ops))
    return {"ops_per_s": rate,
            "rows": {"campaign_scenarios_per_s": rate}}


def measure_campaign(ctx: CampaignContext, seconds: float) -> dict:
    ops = ctx.ops()
    host = run_pool(ops, seconds)
    summary = _pool_summary(ops, host)
    summary.update(campaign_rows(ops, host))
    summary["layers"] = {}
    summary["outcomes"] = ctx.outcomes
    return summary


ROOT_SCENARIO = "faults.scenario"


def measure_campaign_traced(ctx: CampaignContext, seconds: float) -> dict:
    ops = ctx.ops()
    host = run_pool(ops, seconds * TRACED_UNTRACED_SHARE)
    summary = _pool_summary(ops, host)
    summary.update(campaign_rows(ops, host))

    recorder = spans.SpanRecorder(ROOT_SCENARIO)
    # run_fault_oracle reaches compile_middlebox through its own module.
    recorder.wrap_attribute(oracle_module, "compile_middlebox",
                            "faults.compile_middlebox")
    traced = [Op(op.kind, op.label, recorder.wrapped(ROOT_SCENARIO, op.run))
              for op in ops]
    try:
        traced_host = run_pool(
            traced, seconds * (1.0 - TRACED_UNTRACED_SHARE))
    finally:
        recorder.unwrap_all()
    totals = recorder.summary()["layers"]
    compile_ns = totals.get("faults.compile_middlebox", {}).get("total_ns", 0)
    per_scenario = sorted(traced_host.seconds(op.mean_s) for op in traced)
    scenarios = sum(len(op.samples) for op in traced)
    summary["failed"] += sum(len(op.failures) for op in traced)
    summary["attempted"] += scenarios
    outcomes = ctx.outcomes
    summary["layers"] = {
        "faults.compile_share":
            compile_ns / totals[ROOT_SCENARIO]["total_ns"],
        "faults.oracle_s_per_scenario_p50": statistics.median(per_scenario),
        "faults.oracle_s_per_scenario_max": per_scenario[-1],
        "faults.violations": outcomes["violations"] + outcomes["crashes"],
        "faults.degraded_ok": outcomes["degraded_ok"],
        "faults.clean": outcomes["clean"],
    }
    summary["outcomes"] = outcomes
    summary["recorders"] = {"campaign": recorder}
    return summary
