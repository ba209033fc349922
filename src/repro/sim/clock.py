"""Simulated time source shared by the telemetry layer.

Every trace event is stamped with a simulated timestamp so traces are
reproducible byte-for-byte: the clock only advances by the deterministic
nominal costs below (plus the control plane's seeded batch latencies),
never by wall-clock reads.  The constants are nominal per-operation costs
in the same spirit as :mod:`repro.sim.latency` — a Tofino-class pipeline
stage is ~ns-scale while a server instruction is ~two DRAM-bound cycles —
scaled so a trace of a few dozen packets reads naturally in microseconds.
"""

from __future__ import annotations

#: Inter-packet gap charged at the start of every ``process_packet``.
PACKET_GAP_US = 1.0
#: Fixed parser cost per packet entering the switch pipeline.
PARSE_US = 0.05
#: Per-IR-instruction cost inside a switch pipeline traversal.
SWITCH_INSTR_US = 0.002
#: Per-IR-instruction cost on the server (baseline and punt path).
SERVER_INSTR_US = 0.004
#: One-way switch<->server link traversal for a punted frame.
PUNT_LINK_US = 2.0
#: Fixed control-plane cost to start a pool flow-state migration
#: (selector table rewrite + member RPC round trip).
MIGRATION_BASE_US = 50.0
#: Per-entry cost to transfer one flow-state entry between pool members
#: over the control-plane channel.
MIGRATION_ENTRY_US = 0.5


def migration_us(entries: int) -> float:
    """What migrating ``entries`` flow-state entries between pool members
    costs: the pool charges it, the recovery table prices it."""
    return MIGRATION_BASE_US + entries * MIGRATION_ENTRY_US


class SimClock:
    """A monotonically advancing simulated microsecond counter.

    ``now_us`` is a plain attribute so the per-packet path can add a cost
    it already knows to be positive (``clock.now_us += PARSE_US``) — the
    one float addition :meth:`advance` performs, without the call.
    Everything else goes through :meth:`advance`, which keeps the clock
    from running backwards.
    """

    def __init__(self):
        self.now_us = 0.0

    def advance(self, delta_us: float) -> float:
        """Advance by ``delta_us`` (negative deltas are clamped to 0)."""
        if delta_us > 0.0:
            self.now_us += delta_us
        return self.now_us

    def __repr__(self) -> str:
        return f"<SimClock t={self.now_us:.3f}us>"
