"""The middlebox server's runtime.

:meth:`ServerRuntime.handle` receives punted packets (with their
to-server shim), seeds the interpreter environment from the shim,
executes the non-offloaded CFG against the server's authoritative state,
and produces:

* the packet's return shim (verdict + post-partition inputs),
* the batch of state updates that must be replicated to the switch before
  the packet may be released (output commit).

:meth:`ServerRuntime.run_complete` runs the *complete* middlebox program
on a packet as received — what a server-only fallback window and a
bounded-cache punt both need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from repro.codegen.headers import (
    EGRESS_PORT_FIELD,
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_NONE,
    FLAG_VERDICT_SEND,
    INGRESS_PORT_FIELD,
    VERDICT_FIELD,
    ShimLayout,
)
from repro.ir.externs import ExternHost
from repro.ir.interp import PacketView, StateStore, interpreted
from repro.net.packet import RawPacket
from repro.partition.plan import PartitionPlan
from repro.runtime import state_image
from repro.sim.clock import SERVER_INSTR_US
from repro.switchsim.control_plane import StateUpdate
from repro.switchsim.switch_model import SHIM_DIR_KEY, SHIM_KEY


# ---------------------------------------------------------------------------
# The replication rule (§4.3.3): which of a punt's writes the switch must
# see before the packet is released, and how the verdict travels back.
# Plain functions over journal entries ``(op, member, keys, value)`` that
# never look at a value — the translation validator composes its symbolic
# deployment with these same three, so a proof is about the rule the
# deployment runs.
# ---------------------------------------------------------------------------


def replicated_members(plan: PartitionPlan) -> FrozenSet[str]:
    """The plan's half of the rule, built once per plan: the state members
    whose server-side writes are replicated to the switch."""
    return frozenset(
        placement.member.name for placement in state_image.replicated(plan)
    )


#: The journal's half: the ``StateUpdate.op`` each journalled write
#: replicates as.  A scalar's store is a register write, a vector push an
#: insert at its index; an ``insert_failed`` changed nothing and has none.
#: The emitted C++ batch spells its ``UpdateOp`` from these values.
UPDATE_OPS: Dict[str, str] = {
    "store": "register",
    "insert": "insert",
    "push": "insert",
    "erase": "delete",
}


def updates_from_journal(replicated: FrozenSet[str],
                         journal) -> List[StateUpdate]:
    """Convert journal entries on replicated state to switch updates."""
    updates: List[StateUpdate] = []
    for op, member, keys, value in journal:
        update_op = UPDATE_OPS.get(op)
        if update_op is not None and member in replicated:
            updates.append(StateUpdate(update_op, member, keys, value))
    return updates


def verdict_flag(verdict: Optional[str]) -> int:
    """The return shim's verdict field for a server-side verdict."""
    if verdict == "send":
        return FLAG_VERDICT_SEND
    if verdict == "drop":
        return FLAG_VERDICT_DROP
    return FLAG_VERDICT_NONE


@dataclass
class ServerResult:
    """Outcome of processing one punted packet on the server."""

    packet: RawPacket
    verdict: Optional[str]  # verdict decided on the server, if any
    egress_port: Optional[int]
    updates: List[StateUpdate]
    instructions: int


class ServerRuntime:
    """Executes the non-offloaded partition on the middlebox server."""

    def __init__(
        self,
        plan: PartitionPlan,
        state: StateStore,
        shim_to_server: ShimLayout,
        shim_to_switch: ShimLayout,
        externs: Optional[ExternHost] = None,
        telemetry=None,
        fast_path: bool = False,
    ):
        from repro.telemetry import INSTRUCTION_BOUNDS, Telemetry

        self.plan = plan
        self.state = state
        self.shim_to_server = shim_to_server
        self.shim_to_switch = shim_to_switch
        self.externs = externs or ExternHost()
        self.fast_path = fast_path
        #: the punt partition and the complete program as traversal
        #: entries (:mod:`repro.ir.compile` has the signature), on the
        #: chosen engine
        if fast_path:
            from repro.ir.compile import compile_function

            self._partition = compile_function(plan.non_offloaded).traverse
            self._program = compile_function(plan.middlebox.process).traverse
        else:
            self._partition = interpreted(plan.non_offloaded)
            self._program = interpreted(plan.middlebox.process)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._replicated = replicated_members(plan)
        # The two shim legs this runtime terminates.  The codec is a
        # function of the program, so it is bound here, once.
        self._decode_shim = shim_to_server.decode
        self._encode_shim = shim_to_switch.encode
        self.packets_handled = 0
        self.instructions_total = 0
        #: full write journal of the most recent punt this runtime served
        #: (including server-only members the update batch omits) — the
        #: server pool reads it to pin written state to the serving slot.
        self.last_journal: list = []
        self._c_punts = self.telemetry.metrics.counter("server.punts_handled")
        self._h_instructions = self.telemetry.metrics.histogram(
            "server.instructions_per_punt", INSTRUCTION_BOUNDS
        )

    def handle(self, packet: RawPacket) -> ServerResult:
        """Run the non-offloaded partition for one punted packet."""
        metadata = packet.metadata
        shim = metadata.pop(SHIM_KEY, b"")
        metadata.pop(SHIM_DIR_KEY, None)
        # An absent shim decodes like a truncated one: ShimDecodeError.
        # What is left of the decoded fields after the reserved one is
        # the partition's initial environment.
        env = self._decode_shim(shim)
        ingress = env.pop(INGRESS_PORT_FIELD, 1)
        # Restore the packet's original ingress annotation: the partition
        # may re-read it (Click semantics), and it must not observe the
        # switch→server hop.
        packet.ingress_port = ingress
        state = self.state
        state.drain_journal()  # discard any stale entries
        tracer = self.telemetry.active_tracer
        if tracer is not None:
            tracer.set_component("server")
        verdict, egress_port, env, instructions = self._partition(
            state, self.externs, state.tracer, None, PacketView(packet), env
        )
        self.packets_handled += 1
        self.instructions_total += instructions
        self._c_punts.value += 1
        self._h_instructions.observe(instructions)
        self.telemetry.clock.advance(instructions * SERVER_INSTR_US)

        self.last_journal = journal = state.drain_journal()
        updates = updates_from_journal(self._replicated, journal)
        if tracer is not None:
            tracer.record(
                "server_exec", instructions=instructions,
                updates=len(updates),
            )
            if verdict is not None:
                # The server decided this packet's fate; the switch will
                # only *apply* the verdict flag on the return leg.
                tracer.record(
                    "verdict", verdict=verdict,
                    port=(egress_port or 0) if verdict == "send" else 0,
                )
        # The partition's environment is ours and finished with, so the
        # reserved fields join it on the way to the codec, which reads
        # the names of its layout and no others.
        env[VERDICT_FIELD] = verdict_flag(verdict)
        env[EGRESS_PORT_FIELD] = egress_port or 0
        env[INGRESS_PORT_FIELD] = ingress
        metadata[SHIM_KEY] = self._encode_shim(env)
        metadata[SHIM_DIR_KEY] = "to_switch"
        return ServerResult(
            packet, verdict, egress_port, updates, instructions
        )

    def run_complete(self, packet: RawPacket) -> ServerResult:
        """Run the complete middlebox program on ``packet`` as received.

        No shim on either leg: the caller emits the verdict from the
        server (or discards the updates — a fallback window ends in a
        bulk resync).  Not a shim punt, so it books neither
        ``server.punts_handled`` nor ``server.instructions_per_punt``.
        """
        state = self.state
        state.drain_journal()  # discard any stale entries
        verdict, egress_port, _, instructions = self._program(
            state, self.externs, state.tracer, None, PacketView(packet), None
        )
        self.telemetry.clock.advance(instructions * SERVER_INSTR_US)
        self.last_journal = journal = state.drain_journal()
        return ServerResult(
            packet, verdict, egress_port,
            updates_from_journal(self._replicated, journal), instructions,
        )
