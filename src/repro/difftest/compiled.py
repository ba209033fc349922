"""Compiled-vs-interpreter differential gauntlet (``difftest --compiled``).

The compiled engine (:mod:`repro.ir.compile`) claims byte-identical
semantics to the :class:`~repro.ir.interp.Interpreter`.  This module
checks that claim the Gauntlet way: every generated program runs both
ways and any observable difference is a failure.

Two stages per program:

1. **Function-level** (always runs): the lowered ``process`` function is
   executed per packet by both engines against independent state stores —
   comparing verdicts, egress ports, instruction counts, executed
   instruction ids, the final environment, the emitted packet bytes, the
   drained mutation journals, and the state snapshots.  Crashes must
   match by exception type and message.
2. **Deployment-level** (when the program partitions): two
   :class:`~repro.runtime.deployment.GalliumMiddlebox` deployments with
   the same seed — one interpreted, one ``fast_path=True``, the switch
   specialized to its program — process the same stream, comparing
   per-packet journeys (verdict, punt/fast-path classification, emitted
   port + bytes), final server state, switch registers and tables, the
   full metrics registry, the simulated clock and every table's
   ``lookup_count`` / ``hit_count`` (the bounded cache's miss detector
   reads them).  Once on the base roles, once behind a bounded cache and
   once in front of a server pool (:data:`STAGE2_SPECS`); a program the
   bounded cache refuses skips that one.

Stage 2 compares with the kernel's byte-exact observation; this module
keeps stage 1 and the crash-identity rule — an exception both engines
raise identically is agreement.

Zero divergences over a large corpus is the acceptance gate for the
fast path (the interpreter stays the oracle; the compiled engine never
replaces it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.difftest import kernel
from repro.difftest.generator import GenProgram, generate_program
from repro.difftest.kernel import STREAM_SALT, Finding
from repro.difftest.oracle import StreamSpec
from repro.ir.compile import compile_function
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.spec import DeploymentSpec

_ENGINES = ("interp", "compiled")
_REPRODUCE = kernel.cli_reproduce("difftest --compiled")

#: stage 2's role combinations, by the ``where`` their findings carry
STAGE2_SPECS = {
    "deployment": DeploymentSpec(),
    "deployment/cached": DeploymentSpec.from_flags(cached=True),
    "deployment/pooled": DeploymentSpec.from_flags(servers=3),
}

_ABORTED = {
    kernel.DUT_CRASH: "crash",
    kernel.REFERENCE_CRASH: "reference_crash",
}


@dataclass
class CompiledCheckResult:
    outcome: str  # "agree" | "diverge" | "crash" | "reference_crash"
    #: the first finding; ``where`` is the stage ("function" |
    #: "deployment"), ``kind`` one of "crash" | "verdict" | "egress" |
    #: "path" | "steps" | "ids" | "env" | "packet" | "journal" | "state" |
    #: "metrics" | "clock" | "lookups"
    divergence: Optional[Finding] = None
    error: Optional[str] = None
    packets_run: int = 0
    #: True when the deployment stage also ran (the program partitioned).
    deployment_checked: bool = False


@dataclass
class CompiledFailure:
    index: int
    program_seed: int
    stream: StreamSpec
    program: GenProgram
    result: CompiledCheckResult

    def report(self) -> str:
        return kernel.render_report(
            "compiled gauntlet", self, self.result.outcome,
            _REPRODUCE(self.program_seed), self.result.divergence,
        )


@dataclass
class CompiledGauntletStats:
    runs: int = 0
    agree: int = 0
    diverge: int = 0
    crash: int = 0
    deployment_checked: int = 0
    elapsed_s: float = 0.0
    #: of that, inside ``kernel.compile_step``
    compile_s: float = 0.0

    def record(self, result: CompiledCheckResult) -> None:
        self.runs += 1
        if result.outcome == "agree":
            self.agree += 1
        elif result.outcome == "diverge":
            self.diverge += 1
        else:
            self.crash += 1
        if result.deployment_checked:
            self.deployment_checked += 1

    @property
    def failures(self) -> int:
        return self.diverge + self.crash

    def summary(self) -> str:
        return (
            f"{self.runs} programs both ways: {self.agree} agree,"
            f" {self.diverge} diverge, {self.crash} crash"
            f" ({self.deployment_checked} also compared full deployments)"
            f" in {kernel.Elapsed(self.elapsed_s, self.compile_s)}"
        )


def _run_engine(run):
    """(result, crash) — crash is a (type-name, message) pair."""
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - crash identity is the oracle
        return None, (type(exc).__name__, str(exc))


def _crash_identity(index, c_interp, c_compiled, where) -> Iterator[Finding]:
    """Crashes must match by exception type and message."""
    if c_interp != c_compiled:
        yield Finding(
            "crash", index, f"interp={c_interp!r} compiled={c_compiled!r}",
            where,
        )


def _function_level(
    lowered, stream_packets, result: CompiledCheckResult
) -> Iterator[Finding]:
    """Stage 1: both engines over the bare ``process`` function."""
    process = lowered.process
    with kernel.dut("compile_function"):
        compiled = compile_function(process)
    interp_state = StateStore(lowered.state)
    compiled_state = StateStore(lowered.state)
    if lowered.configure is not None:
        with kernel.reference("configure"):
            Interpreter(lowered.configure, interp_state).run()
            Interpreter(lowered.configure, compiled_state).run()
        interp_state.drain_journal()
        compiled_state.drain_journal()

    for index, (packet, ingress) in enumerate(stream_packets):
        p_interp = packet.copy()
        p_compiled = packet.copy()
        p_interp.ingress_port = ingress
        p_compiled.ingress_port = ingress
        r_interp, c_interp = _run_engine(
            lambda: Interpreter(process, interp_state).run(
                PacketView(p_interp), collect_ids=True
            )
        )
        r_compiled, c_compiled = _run_engine(
            lambda: compiled.run(
                compiled_state, packet=PacketView(p_compiled),
                collect_ids=True,
            )
        )
        result.packets_run = index + 1
        yield from _crash_identity(index, c_interp, c_compiled, "function")
        if c_interp is not None or c_compiled is not None:
            # Both engines crashed identically: agreement, but the state
            # after a partial run is not comparable — stop the stream.
            return
        env_keys = sorted(
            key
            for key in set(r_interp.env) | set(r_compiled.env)
            if r_interp.env.get(key) != r_compiled.env.get(key)
        )
        for kind, interp, compiled_, detail in (
            ("verdict", r_interp.verdict, r_compiled.verdict, None),
            ("egress", r_interp.egress_port, r_compiled.egress_port, None),
            ("steps", r_interp.instructions_executed,
             r_compiled.instructions_executed, None),
            ("ids", r_interp.executed_ids, r_compiled.executed_ids,
             "executed instruction ids differ"),
            ("env", env_keys, [], f"registers differ: {env_keys}"),
            ("packet", p_interp.pack(), p_compiled.pack(),
             "emitted packet bytes differ"),
            ("journal", interp_state.drain_journal(),
             compiled_state.drain_journal(), "mutation journals differ"),
            ("state", interp_state.snapshot(), compiled_state.snapshot(),
             "state snapshots differ"),
        ):
            if interp != compiled_:
                yield Finding(
                    kind, index,
                    detail or f"interp={interp!r} compiled={compiled_!r}",
                    "function",
                )


def _deployment_level(
    lowered,
    stream_packets,
    deployment_seed: int,
    result: CompiledCheckResult,
) -> Iterator[Finding]:
    """Stage 2: interpreted vs fast-path deployments, same seed."""
    try:
        plan, program = kernel.compile_step(compile_middlebox, lowered)
    except kernel.Abort as abort:
        if abort.failure != kernel.REFUSED:
            raise
        # The compiler legitimately refused the program; nothing to
        # compare at deployment level.
        return
    result.deployment_checked = True
    for where, spec in STAGE2_SPECS.items():
        yield from _both_engines(
            plan, program, spec, where, stream_packets, deployment_seed
        )


def _both_engines(
    plan, program, spec: DeploymentSpec, where: str, stream_packets,
    deployment_seed: int,
) -> Iterator[Finding]:
    """One role combination deployed interpreted and specialized."""
    try:
        with kernel.dut("deploy", refusals=(CacheConfigurationError,)):
            compiled_dut = GalliumMiddlebox(
                plan, program, seed=deployment_seed, fast_path=True,
                **spec.roles(),
            )
            compiled_dut.install()
    except kernel.Abort as abort:
        if abort.failure != kernel.REFUSED:
            raise
        return  # not admitted in cache mode, by either engine
    with kernel.reference("deploy"):
        interp_dut = GalliumMiddlebox(
            plan, program, seed=deployment_seed, **spec.roles()
        )
        interp_dut.install()
    for index, (packet, ingress) in enumerate(stream_packets):
        j_interp, c_interp = _run_engine(
            lambda: interp_dut.process_packet(packet.copy(), ingress)
        )
        j_compiled, c_compiled = _run_engine(
            lambda: compiled_dut.process_packet(packet.copy(), ingress)
        )
        yield from _crash_identity(index, c_interp, c_compiled, where)
        if c_interp is not None or c_compiled is not None:
            return  # identical crash: stop, like stage 1
        yield from kernel.compare(
            index, kernel.observe_exact(j_interp),
            kernel.observe_exact(j_compiled), _ENGINES, where=where,
            parts=kernel.EXACT_PARTS,
        )
    yield from kernel.diff_state(
        kernel.end_state(interp_dut), kernel.end_state(compiled_dut),
        _ENGINES, kernel.ALL_SECTIONS, where=where,
    )
    for kind, observe in (
        ("metrics", lambda dut: json.dumps(
            dut.telemetry.metrics.to_dict(), sort_keys=True)),
        ("clock", lambda dut: dut.telemetry.clock.now_us),
        ("lookups", lambda dut: {
            name: (table.lookup_count, table.hit_count)
            for name, table in dut.switch.tables.items()
        }),
    ):
        interp, compiled_ = observe(interp_dut), observe(compiled_dut)
        if interp != compiled_:
            yield Finding(
                kind, None,
                "metrics registries differ" if kind == "metrics"
                else f"interp={interp!r} compiled={compiled_!r}",
                where,
            )


def check_compiled(
    source: str,
    stream: StreamSpec,
    deployment_seed: int = 0,
) -> CompiledCheckResult:
    """Run one program through both engines at both levels."""
    result = CompiledCheckResult(outcome="agree")
    try:
        with kernel.dut("lower"):
            lowered = lower_program(parse_program(source))
        stream_packets = stream.build()
        result.divergence = next(
            _function_level(lowered, stream_packets, result), None
        ) or next(
            _deployment_level(
                lowered, stream_packets, deployment_seed, result
            ), None
        )
    except kernel.Abort as abort:
        result.outcome = _ABORTED[abort.failure]
        result.error = abort.error
        return result
    if result.divergence is not None:
        result.outcome = "diverge"
    return result


def run_compiled_gauntlet(
    runs: int,
    seed: int,
    packets: int = 25,
    max_failures: int = 10,
    time_budget_s: Optional[float] = None,
    seed_override: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> tuple:
    """Drive the compiled-vs-interpreter gauntlet; ``(stats, failures)``."""
    stats = CompiledGauntletStats()

    def scenario(index: int, program_seed: int) -> Optional[CompiledFailure]:
        program = generate_program(program_seed)
        stream = StreamSpec(seed=program_seed ^ STREAM_SALT, count=packets)
        result = check_compiled(
            program.source(), stream, deployment_seed=program_seed
        )
        stats.record(result)
        if result.outcome == "agree":
            return None
        return CompiledFailure(index, program_seed, stream, program, result)

    failures, (stats.elapsed_s, stats.compile_s) = kernel.drive(
        runs, seed, scenario, _REPRODUCE,
        seed_override=seed_override, time_budget_s=time_budget_s,
        max_failures=max_failures, log=log,
        progress=lambda: f"({stats.summary()})",
    )
    return stats, failures
