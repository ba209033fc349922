"""Seeded packet streams for the three packet-path workloads.

A stream is built in two steps so six middleboxes can share the work:

1. :func:`schedule` turns ``(workload, seed, packets)`` into an abstract
   list of :class:`Slot` records — which flow sends which kind of packet
   with how much payload.  This is the only place the seed is consumed.
2. :func:`materialize` renders a schedule into ``(RawPacket, ingress)``
   pairs under one middlebox's address and port conventions (the same
   conventions as ``repro.workloads.iperf.middlebox_stream``).

Flow ``i`` of a run gets the 16-bit id ``(base + i * 40503) mod 65536``
(``base`` drawn from the seed; 40503 is odd, so the map is a bijection).
The id becomes the ``x.y`` of source address ``192.168.x.y`` and also
picks the source port, so no two flows of a run share a 5-tuple.  The
firewall is the exception: it only admits its 64 installed rules, so an
admitted flow reuses rule ``i mod 64`` (the firewall keeps no per-flow
state, so reuse changes nothing) and only denied flows get fresh tuples.

Rendering copies one template packet per flow instead of calling the
header constructors for every packet; that is 4-5x cheaper and is what
keeps stream generation out of the way of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.addresses import Ipv4Address, ip
from repro.net.headers import TcpFlags
from repro.net.packet import RawPacket
from repro.workloads.conga import DATA_MINING, ENTERPRISE, packets_in_flow
from repro.workloads.iperf import EXTERNAL_SERVER, VIP
from repro.workloads.packets import make_tcp_packet

MTU_PAYLOAD = 1400
#: 1500-byte frames: 14 (eth) + 20 (ip) + 20 (tcp) + payload
ELEPHANT_PAYLOAD = 1500 - 54
ELEPHANT_FLOWS = 10
FLOW_ID_STRIDE = 40503
#: share of firewall flows outside the whitelist (they are dropped)
DENIED_SHARE = 0.25
FIREWALL_RULES = 64

SYN, DATA, FIN = 0, 1, 2
_FLAGS = {SYN: TcpFlags.SYN, DATA: TcpFlags.ACK,
          FIN: TcpFlags.FIN | TcpFlags.ACK}

Stream = List[Tuple[RawPacket, int]]

_NET_192_168 = int(ip("192.168.0.0"))
_NET_10_0_0 = int(ip("10.0.0.0"))
_VIP = int(ip(VIP))
_EXTERNAL = int(ip(EXTERNAL_SERVER))
_PROXIED = int(ip("10.9.9.9"))


@dataclass(frozen=True)
class Slot:
    """One packet of the abstract schedule."""

    flow: int  # 16-bit flow id, unique per flow within a run
    kind: int  # SYN | DATA | FIN
    seq: int
    payload: int  # bytes
    denied: bool  # firewall only: this flow is not whitelisted


@dataclass(frozen=True)
class MixSpec:
    """Shape of a CONGA-driven flow mix."""

    distribution: object
    flow_cap: int  # data packets per flow, at most
    active: int  # flows interleaved at once


MIXES: Dict[str, MixSpec] = {
    "mice": MixSpec(ENTERPRISE, flow_cap=64, active=16),
    "churn": MixSpec(DATA_MINING, flow_cap=256, active=512),
}


def _flow_ids(rng: random.Random):
    flow = rng.randrange(1 << 16)
    while True:
        yield flow
        flow = (flow + FLOW_ID_STRIDE) & 0xFFFF


def _elephants(rng: random.Random, packets: int) -> List[Slot]:
    """Ten long-lived flows, randomly interleaved, never finishing."""
    ids = _flow_ids(rng)
    flows = [next(ids) for _ in range(ELEPHANT_FLOWS)]
    slots = [Slot(flow, SYN, 0, 0, False) for flow in flows]
    sent = dict.fromkeys(flows, 0)
    while len(slots) < packets:
        flow = flows[rng.randrange(ELEPHANT_FLOWS)]
        sent[flow] += 1
        slots.append(Slot(flow, DATA, sent[flow], ELEPHANT_PAYLOAD, False))
    return slots[:packets]


def _mix(rng: random.Random, packets: int, spec: MixSpec) -> List[Slot]:
    """Fresh-5-tuple flows (SYN, data..., FIN), ``spec.active`` at once."""
    ids = _flow_ids(rng)

    def new_flow() -> list:
        size = spec.distribution.sample(rng)
        data = min(spec.flow_cap, packets_in_flow(size, MTU_PAYLOAD))
        # [flow id, denied, bytes left, data packets left, next seq]
        return [next(ids), rng.random() < DENIED_SHARE, size, data, 0]

    active = [new_flow() for _ in range(spec.active)]
    slots: List[Slot] = []
    while len(slots) < packets:
        position = rng.randrange(len(active))
        state = active[position]
        flow, denied, left, data, seq = state
        if seq == 0:
            slots.append(Slot(flow, SYN, 0, 0, denied))
        elif data:
            payload = max(1, min(MTU_PAYLOAD, left))
            slots.append(Slot(flow, DATA, seq, payload, denied))
            state[2] = left - payload
            state[3] = data - 1
        else:
            slots.append(Slot(flow, FIN, seq, 0, denied))
            active[position] = new_flow()
            continue
        state[4] = seq + 1
    return slots


def schedule(workload: str, seed: int, packets: int) -> List[Slot]:
    """The abstract packet schedule of one packet-path workload."""
    rng = random.Random((seed << 8) ^ sum(workload.encode()))
    if workload == "elephants":
        return _elephants(rng, packets)
    return _mix(rng, packets, MIXES[workload])


def _endpoints(name: str, flow: int, denied: bool) -> Tuple[int, int, int, int]:
    """(saddr, daddr, sport, dport) of flow id ``flow`` at middlebox
    ``name``; addresses as 32-bit integers."""
    saddr = _NET_192_168 | flow
    sport = 1024 + (flow * 7) % 60000
    if name in ("minilb", "lb"):
        return saddr, _VIP, sport, 5001
    if name in ("mazunat", "trojan"):
        return saddr, _EXTERNAL, sport, 5001
    if name == "proxy":
        return saddr, _PROXIED, sport, 80  # a redirected port
    if name == "firewall":
        if denied:
            return saddr, _NET_10_0_0 | 1, sport, 80
        # whitelist rule i: 192.168.1.(i+1) -> 10.0.0.(i+1), 1000+i -> 80
        rule = flow % FIREWALL_RULES
        return (_NET_192_168 | 0x100 | (rule + 1), _NET_10_0_0 | (rule + 1),
                1000 + rule, 80)
    raise KeyError(f"unknown middlebox {name!r}")


#: middleboxes whose conventions render to the same packets
_SAME_AS = {"lb": "minilb", "trojan": "mazunat"}


def convention(name: str) -> str:
    """Name of the addressing convention ``name`` uses; streams are
    rendered once per convention and shared (every chunk is copied before
    a deployment sees it)."""
    return _SAME_AS.get(name, name)


def materialize(name: str, slots: List[Slot]) -> Stream:
    """Render ``slots`` as (packet, ingress port) pairs for ``name``."""
    blank = make_tcp_packet("0.0.0.0", "0.0.0.0", 0, 0)
    templates: Dict[int, RawPacket] = {}
    payloads: Dict[int, bytes] = {}
    stream: Stream = []
    for slot in slots:
        template = templates.get(slot.flow)
        if template is None:
            saddr, daddr, sport, dport = _endpoints(
                name, slot.flow, slot.denied
            )
            template = templates[slot.flow] = blank.copy()
            template.ip.saddr = Ipv4Address(saddr)
            template.ip.daddr = Ipv4Address(daddr)
            template.tcp.sport = sport
            template.tcp.dport = dport
        packet = template.copy()
        tcp = packet.tcp
        tcp.flags = _FLAGS[slot.kind]
        tcp.seq = slot.seq
        if slot.payload:
            payload = payloads.get(slot.payload)
            if payload is None:
                payload = payloads[slot.payload] = b"\x00" * slot.payload
            packet.payload = payload
        stream.append((packet, 1))
    return stream


def digest(stream: Stream) -> str:
    """sha256 over the packed frames and their ingress ports."""
    sha = hashlib.sha256()
    for packet, port in stream:
        sha.update(bytes((port,)))
        sha.update(packet.pack())
    return sha.hexdigest()


def distinct_five_tuples(slots: List[Slot], name: str) -> bool:
    """True when no two flows of ``slots`` share a 5-tuple at ``name``
    (whitelisted firewall flows excepted, see the module docstring)."""
    seen: Dict[tuple, int] = {}
    for slot in slots:
        if name == "firewall" and not slot.denied:
            continue
        key = _endpoints(name, slot.flow, slot.denied)
        if seen.setdefault(key, slot.flow) != slot.flow:
            return False
    return True


def self_check(packets: int = 2000) -> List[str]:
    """Determinism and seed-sensitivity of every workload's stream;
    returns the list of failures (empty when all hold)."""
    failures: List[str] = []
    for workload in ("elephants", "mice", "churn"):
        for name in ("minilb", "mazunat", "firewall", "proxy"):
            first = digest(materialize(name, schedule(workload, 1, packets)))
            again = digest(materialize(name, schedule(workload, 1, packets)))
            other = digest(materialize(name, schedule(workload, 2, packets)))
            if first != again:
                failures.append(f"{workload}/{name}: seed 1 not repeatable")
            if first == other:
                failures.append(f"{workload}/{name}: seeds 1 and 2 coincide")
            if not distinct_five_tuples(
                schedule(workload, 1, packets), name
            ):
                failures.append(f"{workload}/{name}: 5-tuple collision")
    return failures
