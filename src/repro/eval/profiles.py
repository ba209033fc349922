"""Measured per-middlebox execution profiles.

Everything the performance models need is *measured* by running the
compiled artifacts over real packet streams: per-packet instruction counts
on the baseline, the punt (slow-path) fraction and per-punt server cost on
the Gallium deployment, and how often punts trigger state synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.middleboxes import load
from repro.net.packet import RawPacket
from repro.runtime.baseline import FastClickRuntime
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox


def build_gallium(name: str) -> GalliumMiddlebox:
    """Compile, deploy, and install one middlebox by short name."""
    bundle = load(name)
    plan, program = compile_middlebox(bundle.lowered)
    middlebox = GalliumMiddlebox(plan, program, config=bundle.config)
    middlebox.install()
    return middlebox


def build_baseline(name: str) -> FastClickRuntime:
    bundle = load(name)
    runtime = FastClickRuntime(bundle.lowered, config=bundle.config)
    runtime.install()
    return runtime


@dataclass
class MiddleboxProfile:
    """Measured execution profile over one packet stream."""

    name: str
    packets: int = 0
    # baseline
    baseline_instructions_total: int = 0
    # gallium
    fast_path_packets: int = 0
    punted_packets: int = 0
    server_instructions_total: int = 0
    sync_events: int = 0
    sync_wait_total_us: float = 0.0
    sync_tables_total: int = 0
    shim_to_server_bytes: int = 0
    shim_to_switch_bytes: int = 0
    verdict_mismatches: int = 0

    @property
    def baseline_instructions_per_packet(self) -> float:
        return self.baseline_instructions_total / max(1, self.packets)

    @property
    def slow_fraction(self) -> float:
        return self.punted_packets / max(1, self.packets)

    @property
    def server_instructions_per_punt(self) -> float:
        return self.server_instructions_total / max(1, self.punted_packets)

    @property
    def sync_wait_avg_us(self) -> float:
        return self.sync_wait_total_us / max(1, self.sync_events)


def profile_middlebox(
    name: str,
    stream: Iterable[Tuple[RawPacket, int]],
) -> MiddleboxProfile:
    """Run one packet stream through both deployments and measure.

    Each packet is cloned so the baseline and the Gallium pipeline see
    identical traffic; verdict mismatches are counted (and should be zero —
    the functional-equivalence tests assert that).
    """
    gallium = build_gallium(name)
    baseline = build_baseline(name)
    profile = MiddleboxProfile(name=name)
    profile.shim_to_server_bytes = gallium.program.shim_to_server.byte_size
    profile.shim_to_switch_bytes = gallium.program.shim_to_switch.byte_size
    for packet, ingress in stream:
        clone = packet.copy()
        base_result = baseline.process_packet(clone, ingress)
        journey = gallium.process_packet(packet, ingress)
        profile.packets += 1
        profile.baseline_instructions_total += base_result.instructions
        if journey.fast_path:
            profile.fast_path_packets += 1
        else:
            profile.punted_packets += 1
            profile.server_instructions_total += journey.server_instructions
            if journey.sync_tables:
                profile.sync_events += 1
                profile.sync_wait_total_us += journey.sync_wait_us
                profile.sync_tables_total += journey.sync_tables
        if base_result.verdict != journey.verdict:
            profile.verdict_mismatches += 1
    return profile
