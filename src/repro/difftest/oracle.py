"""Three-way differential oracle: baseline vs. Gallium vs. cached Gallium.

Each generated program runs over the same seeded packet stream on

1. ``FastClickRuntime`` — the unpartitioned program (ground truth),
2. ``GalliumMiddlebox`` — the deployed switch+server pair,
3. the same with a :class:`~repro.runtime.cache.BoundedCache` state
   policy (with a deliberately tiny cache so eviction/refill paths
   execute).

This module is the *policy* — the three in lock-step, the baseline as
reference — over :mod:`repro.difftest.kernel`, which owns what is
compared: per packet the verdict, resolved egress port and every mapped
header field; after the stream the final middlebox state and
replicated-table convergence.

Outcomes are classified so the gauntlet can tell signal from noise:

* ``AGREE`` — all runtimes equivalent (the expected result),
* ``DIVERGE`` — observable behaviour differed (a compiler bug),
* ``PARTITION_REJECTED`` — the compiler legitimately refused the program
  (e.g. ``PartitionError`` under tiny resources),
* ``CRASH`` — the compiler, the verifier or a deployment raised,
* ``REFERENCE_CRASH`` — the unpartitioned baseline raised: the program
  itself, or the interpreter, is broken, not the compiler.

An exception anywhere else is a bug in this harness and propagates.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.corpus_format import fields_from
from repro.difftest import kernel
from repro.difftest.kernel import Finding
from repro.net.packet import RawPacket
from repro.partition.constraints import SwitchResources
from repro.runtime.baseline import FastClickRuntime
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.spec import DeploymentSpec
from repro.switchsim.program import bypass_port
from repro.workloads.packets import make_tcp_packet, make_udp_packet


class Outcome(str, Enum):
    AGREE = "agree"
    DIVERGE = "diverge"
    PARTITION_REJECTED = "partition_rejected"
    CRASH = "crash"
    REFERENCE_CRASH = "reference_crash"


_ABORTED = {
    kernel.REFUSED: Outcome.PARTITION_REJECTED,
    kernel.DUT_CRASH: Outcome.CRASH,
    kernel.REFERENCE_CRASH: Outcome.REFERENCE_CRASH,
}


@dataclass
class OracleResult:
    outcome: Outcome
    #: the first finding; ``where`` names the runtime ("gallium" |
    #: "cached"), ``kind`` is "verdict" | "egress" | "field" | "state" |
    #: "convergence"
    divergence: Optional[Finding] = None
    error: Optional[str] = None
    cached_checked: bool = False
    packets_run: int = 0
    #: error-severity diagnostics from the static verifier (empty when the
    #: program verified clean).  A program that AGREEs dynamically but
    #: fails verification — or vice versa — is a verifier/oracle
    #: disagreement, a bug class of its own.
    verifier_errors: List[str] = field(default_factory=list)
    #: first-divergent-event trace diff of a DIVERGE outcome, or why there
    #: is none (see :func:`~repro.difftest.kernel.collect_provenance`);
    #: ``None`` when provenance was disabled
    trace_diff: Optional[object] = None


@dataclass
class StreamSpec:
    """A deterministic packet stream, serializable for the corpus.

    Addresses and ports draw from small pools so generated map keys
    collide across the stream (lookups hit, inserts overwrite, caches
    evict); ingress alternates over the two switch-facing ports.
    """

    seed: int
    count: int = 25
    udp_ratio: float = 0.35
    #: explicit packet specs (symbolic counterexamples) — when set, the
    #: stream is exactly these packets and the generator fields are inert.
    #: Each spec is the dict form used by
    #: :func:`repro.verify.symbolic.packet_from_spec`.
    packets: Optional[List[dict]] = None

    def to_dict(self) -> dict:
        data = {"seed": self.seed, "count": self.count, "udp_ratio": self.udp_ratio}
        if self.packets is not None:
            data["packets"] = self.packets
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "StreamSpec":
        return cls(**fields_from(data, cls, "stream"))

    def build(self) -> List[Tuple[RawPacket, int]]:
        import random

        if self.packets is not None:
            from repro.verify.symbolic import packet_from_spec

            return [
                (packet_from_spec(spec), int(spec.get("ingress", 1)))
                for spec in self.packets
            ]
        rng = random.Random(self.seed)
        packets: List[Tuple[RawPacket, int]] = []
        for _ in range(self.count):
            saddr = f"10.0.{rng.randrange(0, 3)}.{rng.randrange(1, 7)}"
            daddr = f"10.9.{rng.randrange(0, 2)}.{rng.randrange(1, 5)}"
            sport = rng.choice([1, 2, 3, 7, 80, 443, 8080])
            dport = rng.choice([1, 2, 53, 80, 65535])
            ingress = 1 if rng.random() < 0.7 else 2
            if rng.random() < self.udp_ratio:
                packet = make_udp_packet(
                    saddr, daddr, sport, dport,
                    payload=b"\x00" * rng.choice([0, 3, 10]),
                    ingress_port=ingress,
                )
            else:
                packet = make_tcp_packet(
                    saddr, daddr, sport, dport,
                    flags=rng.choice([0x02, 0x10, 0x10, 0x18, 0x11]),
                    payload=b"\x00" * rng.choice([0, 3, 10]),
                    seq=rng.randrange(0, 1 << 16),
                    ingress_port=ingress,
                )
            # Exercise the narrow-width fields programs read.
            packet.ip.ttl = rng.choice([1, 2, 63, 64, 255])
            packet.ip.tos = rng.choice([0, 1, 0x10, 0xFF])
            packet.ip.identification = rng.randrange(0, 1 << 16)
            packets.append((packet, ingress))
        return packets


def run_oracle(
    source: str,
    stream: StreamSpec,
    limits: Optional[SwitchResources] = None,
    check_cached: bool = True,
    deployment_seed: int = 0,
    provenance: bool = True,
    config: Optional[Dict[int, list]] = None,
    prestate: Optional[dict] = None,
    fast_path: bool = False,
) -> OracleResult:
    """Compile ``source`` once and drive all runtimes over ``stream``
    (see :func:`check_artifacts` for the run itself).

    The static verifier also runs over the compiled artifacts; its
    error-severity diagnostics ride along on the result so the gauntlet
    can cross-check them against the dynamic outcome.
    """
    from repro.verify import verify_artifacts

    try:
        plan, program = kernel.compile_step(compile_middlebox, source, limits)
        with kernel.dut("verify"):
            report = verify_artifacts(
                plan, program.shim_to_server, program.shim_to_switch,
                program,
            )
    except kernel.Abort as abort:
        return OracleResult(_ABORTED[abort.failure], error=abort.error)
    result = check_artifacts(
        plan, program, stream, check_cached, deployment_seed,
        provenance, config, prestate, fast_path,
    )
    result.verifier_errors = [d.format() for d in report.errors]
    return result


def check_artifacts(
    plan,
    program,
    stream: StreamSpec,
    check_cached: bool = True,
    deployment_seed: int = 0,
    provenance: bool = True,
    config: Optional[Dict[int, list]] = None,
    prestate: Optional[dict] = None,
    fast_path: bool = False,
) -> OracleResult:
    """Drive the baseline and the deployments of one compiled
    ``(plan, program)`` over ``stream`` in lock-step.

    ``config`` and ``prestate`` replay a symbolic-prover counterexample
    faithfully: the extern config sections every runtime was installed
    with, and a concrete ``StateStore`` snapshot restored (and re-synced
    to the switch) after ``install()``.  A pre-state disables the cached
    deployment for the run — the cache's warming protocol has no
    restore-to-snapshot notion.

    ``deployment_seed`` threads into each deployment's control-plane
    jitter RNG (via ``GalliumMiddlebox(seed=...)``), so latency numbers
    reproduce without reaching into private fields.

    With ``provenance`` (the default), a DIVERGE outcome re-runs the
    baseline and the diverging deployment with per-packet tracing enabled
    and attaches the first-divergent-event trace diff to the result.
    Shrinker predicates pass ``provenance=False``: they replay the oracle
    hundreds of times and only the final report needs the diff.
    """

    def installed(runtime):
        runtime.install()
        if prestate is not None:
            runtime.state.restore(prestate)
            runtime.state.drain_journal()
        return runtime

    def make_baseline(telemetry=None) -> FastClickRuntime:
        return installed(FastClickRuntime(
            plan.middlebox, config=config, fast_path=fast_path,
            telemetry=telemetry,
        ))

    def make_dut(spec: DeploymentSpec, telemetry=None) -> GalliumMiddlebox:
        box = installed(GalliumMiddlebox(
            plan, program, seed=deployment_seed, config=config,
            fast_path=fast_path, telemetry=telemetry, **spec.roles(),
        ))
        if prestate is not None:
            box.sync_all_state()
        return box

    specs = {"gallium": DeploymentSpec()}
    if check_cached and prestate is None:
        # Two entries per table: every stream of a few flows evicts.
        specs["cached"] = DeploymentSpec(cache_entries=2)
    packets = stream.build()
    try:
        with kernel.reference("deploy"):
            baseline = make_baseline()
        duts: Dict[str, GalliumMiddlebox] = {}
        for name, spec in specs.items():
            # A program the bounded cache cannot serve still runs the
            # other two ways.
            with kernel.dut("deploy"), suppress(CacheConfigurationError):
                duts[name] = make_dut(spec)
        divergence = next(_lockstep(baseline, duts, packets), None)
    except kernel.Abort as abort:
        return OracleResult(_ABORTED[abort.failure], error=abort.error)
    result = OracleResult(
        Outcome.AGREE if divergence is None else Outcome.DIVERGE,
        divergence, cached_checked="cached" in duts,
        packets_run=(
            len(packets) if divergence is None
            or divergence.packet_index is None
            else divergence.packet_index + 1
        ),
    )
    if provenance and divergence is not None:
        only = divergence.packet_index
        name = divergence.where or "gallium"
        result.trace_diff = kernel.collect_provenance(
            make_baseline,
            lambda telemetry: make_dut(specs[name], telemetry),
            lambda lhs, rhs: next(_lockstep(
                lhs, {name: rhs},
                packets if only is None else packets[: only + 1],
            ), None),
            ("baseline", name), only_packet=only,
        )
    return result


def _lockstep(
    baseline: FastClickRuntime,
    duts: Dict[str, GalliumMiddlebox],
    packets: List[Tuple[RawPacket, int]],
) -> Iterator[Finding]:
    """Every finding of ``duts`` against ``baseline`` over ``packets``:
    packet by packet, then end state and replicated-table convergence."""
    for index, (packet, ingress) in enumerate(packets):
        base_packet = packet.copy()
        with kernel.reference(f"baseline packet #{index}"):
            base = baseline.process_packet(base_packet, ingress)
        port = base.egress_port or bypass_port(ingress)
        want = kernel.observe(base.verdict, [(port, base_packet)])
        for name, box in duts.items():
            with kernel.dut(f"{name} packet #{index}"):
                journey = box.process_packet(packet.copy(), ingress)
            yield from kernel.compare(
                index, want, kernel.observe(journey.verdict, journey.emitted),
                ("baseline", name), where=name,
            )
    base_state = kernel.end_state(baseline)
    for name, box in duts.items():
        yield from kernel.diff_state(
            base_state, kernel.end_state(box), ("baseline", name), where=name
        )
        yield from kernel.check_convergence(box, where=name)
