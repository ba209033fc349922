"""The full switch: ports, ingress dispatch, shim encap/decap.

Mirrors §4.3.1's combined P4 program: one pipeline whose first table
matches on the ingress interface — packets arriving from the middlebox
server run the post-processing partition; everything else runs the
pre-processing partition.

Shim headers ride between the Ethernet and IP headers on the switch↔server
link.  In the simulator the shim travels as packet metadata (the structured
``RawPacket`` stays intact for the inner headers), but its bytes are the
real synthesized layout, encoded and decoded by
:mod:`repro.codegen.headers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.reachability import compute_reachability
from repro.codegen.headers import (
    EGRESS_PORT_FIELD,
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_NONE,
    FLAG_VERDICT_SEND,
    INGRESS_PORT_FIELD,
    VERDICT_FIELD,
)
from repro.net.packet import RawPacket
from repro.sim.clock import PARSE_US, SWITCH_INSTR_US
from repro.switchsim.control_plane import ControlPlane
from repro.switchsim.pipeline import (
    DataPlaneViolation, PipelineExecutor, SwitchStateAdapter,
)
from repro.switchsim.program import SERVER_PORT, SwitchProgram, bypass_port
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable

SHIM_KEY = "gallium_shim"
SHIM_DIR_KEY = "gallium_shim_dir"

_new = object.__new__


@dataclass
class SwitchOutput:
    """What the switch did with one received packet."""

    #: (egress_port, packet) pairs — empty when dropped or queued nowhere
    emitted: List[Tuple[int, RawPacket]] = field(default_factory=list)
    #: True when the packet completed on the switch without server help
    fast_path: bool = False
    #: True when the packet was punted to the server
    punted: bool = False
    dropped: bool = False
    pipeline_instructions: int = 0


class SwitchModel:
    """A deployed switch running one compiled Gallium program."""

    def __init__(
        self,
        program: SwitchProgram,
        seed: int = 0,
        telemetry=None,
        fast_path: bool = False,
    ):
        from repro.telemetry import INSTRUCTION_BOUNDS, Telemetry

        for function in (program.pre, program.post):
            # Neither engine runs a loop: the staged program has no
            # schedule for one (the lint refuses it as P4L004).
            if compute_reachability(function).cyclic_blocks:
                raise DataPlaneViolation(
                    f"{function.name}: a pipeline with a loop has no stage"
                    " schedule"
                )
        self.program = program
        self.fast_path = fast_path
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.tables: Dict[str, ExactMatchTable] = {
            name: ExactMatchTable(name, spec.key_widths, spec.value_width,
                                  spec.size)
            for name, spec in program.tables.items()
        }
        self.registers: Dict[str, Register] = {
            name: Register(name, spec.width_bits)
            for name, spec in program.registers.items()
        }
        self.control_plane = ControlPlane(
            self.tables, self.registers, seed=seed, telemetry=self.telemetry
        )
        # What is on or off for the life of the switch is settled here,
        # once: the tracer and the INT source (``None`` when off), and
        # the engine — ``run(packet, initial_env) -> (verdict, egress
        # port, env, instructions)`` per pipeline.
        self._tracer = tracer = self.telemetry.active_tracer
        self._int = self.telemetry.active_int
        if fast_path and not (tracer is not None and tracer.deep):
            from repro.switchsim.compiled import specialize

            self._pre = specialize(program.pre, self.tables, self.registers,
                                   tracer)
            self._post = specialize(program.post, self.tables,
                                    self.registers, tracer)
        else:
            # The staged program the P4 text prints: the oracle, and the
            # one engine that can give a deep trace its event per op.
            adapter = SwitchStateAdapter(self.tables, self.registers)
            adapter.tracer = tracer
            self._pre = PipelineExecutor(program, "pre", adapter).run
            self._post = PipelineExecutor(program, "post", adapter).run
        # Counters (views over the deployment's metrics registry).
        metrics = self.telemetry.metrics
        self._c_fast = metrics.counter("switch.fast_path_packets")
        self._c_punted = metrics.counter("switch.punted_packets")
        self._c_post = metrics.counter("switch.post_packets")
        self._c_dropped = metrics.counter("switch.dropped_packets")
        self._h_pre = metrics.histogram("switch.pre_instructions",
                                        INSTRUCTION_BOUNDS)
        self._h_post = metrics.histogram("switch.post_instructions",
                                         INSTRUCTION_BOUNDS)
        #: pre-pipeline instruction count -> (simulated µs, histogram
        #: cell); a pipeline has a handful of path lengths
        self._pre_costs: Dict[int, Tuple[float, float, int]] = {}
        # The two shim legs this switch terminates.  The codec is a
        # function of the program, so it is bound here, once.
        self._encode_shim = program.shim_to_server.encode
        self._decode_shim = program.shim_to_switch.decode

    def _pre_cost(self, instructions: int) -> Tuple[float, float, int]:
        cost = self._pre_costs[instructions] = (
            instructions * SWITCH_INSTR_US,
            *self._h_pre.cell(instructions),
        )
        return cost

    @property
    def fast_path_packets(self) -> int:
        return self._c_fast.value

    @property
    def punted_packets(self) -> int:
        return self._c_punted.value

    @property
    def post_packets(self) -> int:
        return self._c_post.value

    @property
    def dropped_packets(self) -> int:
        return self._c_dropped.value

    # -- packet handling -------------------------------------------------------

    def receive(self, packet: RawPacket, ingress_port: int) -> SwitchOutput:
        """One packet in, from the network or back from the server.

        The network side is the fast path and is written as one: the
        clock, counter and histogram updates below are the operations
        ``SimClock.advance`` / ``Counter.inc`` / ``Histogram.observe``
        perform, in the order the calls used to come, without the calls.
        """
        packet.ingress_port = ingress_port
        if ingress_port == SERVER_PORT:
            return self._receive_from_server(packet)
        tracer = self._tracer
        clock = self.telemetry.clock
        if tracer is not None:
            tracer.set_component("switch.parser")
            tracer.record(
                "parse", ingress_port=ingress_port,
                eth_type=packet.eth.ethertype,
                saddr=str(packet.ip.saddr) if packet.ip else None,
                daddr=str(packet.ip.daddr) if packet.ip else None,
                proto=packet.ip.protocol if packet.ip else None,
            )
            tracer.set_component("switch.pre")
        clock.now_us += PARSE_US
        verdict, egress_port, env, instructions = self._pre(packet, None)
        spent_us, observed, bucket = (
            self._pre_costs.get(instructions) or self._pre_cost(instructions)
        )
        if spent_us > 0.0:
            clock.now_us += spent_us
        histogram = self._h_pre
        histogram.count += 1
        histogram.sum += observed
        if observed > histogram.max_observed:
            histogram.max_observed = observed
        histogram.bucket_counts[bucket] += 1
        if self._int is not None and self._int.stamping:
            self._int.stamp(
                packet, "switch.pre", instructions, PARSE_US + spent_us,
                punted=verdict not in ("send", "drop"),
            )
        if verdict == "send":
            self._c_fast.value += 1
            if tracer is not None:
                tracer.record("verdict", verdict="send",
                              port=egress_port or 0)
            # A fast-path answer is the class defaults plus three fields.
            output = _new(SwitchOutput)
            output.emitted = [
                (egress_port or bypass_port(ingress_port), packet)
            ]
            output.fast_path = True
            output.pipeline_instructions = instructions
            return output
        if verdict == "drop":
            self._c_fast.value += 1
            self._c_dropped.value += 1
            if tracer is not None:
                tracer.record("verdict", verdict="drop", port=0)
            output = _new(SwitchOutput)
            output.emitted = []
            output.fast_path = output.dropped = True
            output.pipeline_instructions = instructions
            return output
        # Fell off the end: punt to the server with the to-server shim.
        # The traversal's environment is ours and finished with, so the
        # reserved field joins it on the way to the codec, which reads
        # the names of its layout and no others.
        self._c_punted.value += 1
        env[INGRESS_PORT_FIELD] = ingress_port
        metadata = packet.metadata
        metadata[SHIM_KEY] = shim = self._encode_shim(env)
        metadata[SHIM_DIR_KEY] = "to_server"
        if tracer is not None:
            tracer.record("punt", reason="needs_server",
                          shim_bytes=len(shim))
        output = _new(SwitchOutput)
        output.emitted = [(SERVER_PORT, packet)]
        output.punted = True
        output.pipeline_instructions = instructions
        return output

    def rebook_as_punt(self, answered: SwitchOutput) -> SwitchOutput:
        """Turn a packet the pre pipeline just answered into a punt.

        For a bounded-cache deployment whose traversal missed a partial
        table: the verdict is void, the server decides.  The packet moves
        from the fast-path (and dropped) counters to the punted one.
        """
        self._c_fast.value -= 1
        if answered.dropped:
            self._c_dropped.value -= 1
        self._c_punted.value += 1
        if self._tracer is not None:
            self._tracer.record("punt", reason="partial_table")
        output = _new(SwitchOutput)
        output.emitted = []
        output.punted = True
        output.pipeline_instructions = answered.pipeline_instructions
        return output

    def _receive_from_server(self, packet: RawPacket) -> SwitchOutput:
        """The return leg: apply the server's verdict, or run the post
        pipeline.  Every exit answers with the class defaults plus the
        fields it sets; clock and histogram go through their methods."""
        tracer = self._tracer
        metadata = packet.metadata
        shim = metadata.pop(SHIM_KEY, b"")
        metadata.pop(SHIM_DIR_KEY, None)
        # An absent shim decodes like a truncated one: ShimDecodeError.
        values = self._decode_shim(shim)
        self._c_post.value += 1
        # What is left of ``values`` after the three reserved fields is
        # the post pipeline's environment.
        verdict_flag = values.pop(VERDICT_FIELD, FLAG_VERDICT_NONE)
        original_ingress = values.pop(INGRESS_PORT_FIELD, 1)
        explicit_port = values.pop(EGRESS_PORT_FIELD, 0)
        stamping = self._int is not None and self._int.stamping
        if tracer is not None:
            tracer.set_component("switch.post")
        output = _new(SwitchOutput)
        if verdict_flag == FLAG_VERDICT_DROP:
            self._c_dropped.value += 1
            # The verdict was decided (and traced) server-side; the switch
            # only applies it, so this is not a second semantic verdict.
            if tracer is not None:
                tracer.record("apply_verdict", verdict="drop")
            if stamping:
                self._int.stamp(packet, "switch.post", 0, 0.0)
            output.emitted = []
            output.dropped = True
            return output
        if verdict_flag == FLAG_VERDICT_SEND:
            port = explicit_port or bypass_port(original_ingress)
            if tracer is not None:
                tracer.record("apply_verdict", verdict="send", port=port)
            if stamping:
                self._int.stamp(packet, "switch.post", 0, 0.0)
            output.emitted = [(port, packet)]
            return output
        # No verdict yet: run the post-processing pipeline with the
        # packet's original ingress annotation restored.
        packet.ingress_port = original_ingress
        verdict, egress_port, _, instructions = self._post(packet, values)
        self.telemetry.clock.advance(instructions * SWITCH_INSTR_US)
        self._h_post.observe(instructions)
        if stamping:
            self._int.stamp(packet, "switch.post", instructions,
                            instructions * SWITCH_INSTR_US)
        output.pipeline_instructions = instructions
        if verdict == "drop":
            self._c_dropped.value += 1
            if tracer is not None:
                tracer.record("verdict", verdict="drop", port=0)
            output.emitted = []
            output.dropped = True
            return output
        if verdict == "send":
            port = egress_port or bypass_port(original_ingress)
            if tracer is not None:
                tracer.record("verdict", verdict="send",
                              port=egress_port or 0)
            output.emitted = [(port, packet)]
            return output
        # Defensive: a packet with no verdict anywhere is dropped.
        self._c_dropped.value += 1
        if tracer is not None:
            tracer.record("defensive_drop")
        output.emitted = []
        output.dropped = True
        return output

    # -- stats -------------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "fast_path": self.fast_path_packets,
            "punted": self.punted_packets,
            "post": self.post_packets,
            "dropped": self.dropped_packets,
        }
