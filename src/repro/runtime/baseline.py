"""FastClick-style baseline: the unpartitioned middlebox on the server.

Every packet traverses the switch (plain L2 forwarding to the server),
runs the *entire* ``process`` function on a server core, and returns
through the switch — the configuration the paper compares Gallium against
("configure the routing table in the switch to ensure all packets go
through the server").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.ir.externs import ExternHost
from repro.ir.interp import Interpreter, PacketView, StateStore, interpreted
from repro.ir.lowering import LoweredMiddlebox
from repro.net.packet import RawPacket


@dataclass
class BaselineResult:
    verdict: str
    egress_port: Optional[int]
    instructions: int


class FastClickRuntime:
    """Runs the full input program per packet on the middlebox server."""

    def __init__(
        self,
        lowered: LoweredMiddlebox,
        config: Optional[Dict[int, list]] = None,
        telemetry=None,
        fast_path: bool = False,
    ):
        from repro.telemetry import INSTRUCTION_BOUNDS, Telemetry

        self.lowered = lowered
        self.state = StateStore(lowered.state)
        self.externs = ExternHost(config=config)
        self.fast_path = fast_path
        #: ``process`` as a traversal entry (:mod:`repro.ir.compile` has
        #: the signature), on the chosen engine
        if fast_path:
            from repro.ir.compile import compile_function

            self._process = compile_function(lowered.process).traverse
        else:
            self._process = interpreted(lowered.process)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.state.tracer = self.telemetry.active_tracer
        self.packets_processed = 0
        self.instructions_total = 0
        self._c_packets = self.telemetry.metrics.counter(
            "baseline.packets_processed"
        )
        self._h_instructions = self.telemetry.metrics.histogram(
            "baseline.instructions_per_packet", INSTRUCTION_BOUNDS
        )
        # End-to-end latency distribution (nominal composition from the
        # sim latency model, no jitter) — `metrics --json` carries it.
        from repro.sim.latency import LatencyModel

        self._latency_model = LatencyModel()
        self._h_latency = self.telemetry.metrics.histogram(
            "latency.end_to_end_us"
        )
        # Time-resolved layer (None when off — same discipline as tracer).
        self._series = self.telemetry.active_series
        self._int = self.telemetry.active_int

    def install(self) -> None:
        configure = self.lowered.configure
        if configure is not None:
            Interpreter(configure, self.state, self.externs).run()
        self.state.drain_journal()

    def process_packet(self, packet: RawPacket, ingress_port: int = 1) -> BaselineResult:
        from repro.sim.clock import PACKET_GAP_US, SERVER_INSTR_US

        tracer = self.telemetry.active_tracer
        self.telemetry.clock.advance(PACKET_GAP_US)
        if self._series is not None:
            self._series.roll()
        if tracer is not None:
            tracer.begin_packet(self.packets_processed)
            tracer.set_component("server")
        if self._int is not None:
            self._int.begin_packet(self.packets_processed, packet)
        packet.ingress_port = ingress_port
        state = self.state
        verdict, egress_port, _, instructions = self._process(
            state, self.externs, state.tracer, None, PacketView(packet), None
        )
        self.packets_processed += 1
        self.instructions_total += instructions
        self._c_packets.inc()
        self._h_instructions.observe(instructions)
        self.telemetry.clock.advance(instructions * SERVER_INSTR_US)
        self._h_latency.observe(self._latency_model.baseline_us(
            instructions, packet.wire_length()
        ))
        verdict = verdict or "drop"
        if tracer is not None:
            tracer.record(
                "verdict", verdict=verdict,
                port=(egress_port or 0) if verdict == "send" else 0,
            )
        baseline_result = BaselineResult(
            verdict=verdict,
            egress_port=egress_port,
            instructions=instructions,
        )
        if self._int is not None:
            # The whole program ran on the server: one hop.
            self._int.stamp(
                packet, "server", instructions,
                instructions * SERVER_INSTR_US,
            )
            self._int.collect(baseline_result)
        return baseline_result
