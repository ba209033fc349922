"""Independent Python reference implementations of the five middleboxes.

These subclass :class:`repro.click.Element` and are written directly
against the Click substrate — a second implementation of each middlebox's
semantics, developed from the prose description rather than the C++-subset
source.  Differential tests drive the compiled pipeline, the IR
interpreter, and these references with the same packet streams and demand
identical verdicts and header rewrites.
"""

from __future__ import annotations

from typing import Dict, List

from repro.click.element import Element
from repro.click.hashmap import HashMap
from repro.click.packet import Packet
from repro.click.vector import Vector
from repro.net.addresses import Ipv4Address
from repro.net.headers import IPPROTO_TCP, TcpFlags


def _five_tuple(packet: Packet):
    ip_header = packet.network_header()
    l4 = packet.transport_header()
    sport = getattr(l4, "sport", 0) if l4 is not None else 0
    dport = getattr(l4, "dport", 0) if l4 is not None else 0
    return (
        int(ip_header.saddr),
        int(ip_header.daddr),
        sport,
        dport,
        ip_header.protocol,
    )


class MiniLBReference(Element):
    """Reference MiniLB: consistent hash over saddr^daddr."""

    def __init__(self, backends: List[int]):
        super().__init__()
        self.map: HashMap = HashMap(max_entries=65536)
        self.backends: Vector = Vector(backends)

    def process(self, packet: Packet) -> None:
        ip_header = packet.network_header()
        hash32 = (int(ip_header.saddr) ^ int(ip_header.daddr)) & 0xFFFFFFFF
        key = hash32 & 0xFFFF
        backend = self.map.find(key)
        if backend is None:
            index = hash32 % self.backends.size()
            backend = self.backends[index]
            self.map.insert(key, backend)
        ip_header.daddr = Ipv4Address(backend)
        packet.send()

    def state_snapshot(self) -> dict:
        return {"map": self.map.snapshot()}


class MazuNATReference(Element):
    """Reference NAT with a monotonically increasing port allocator."""

    def __init__(self, external_ip: int, first_port: int):
        super().__init__()
        self.nat_out: HashMap = HashMap(max_entries=65536)
        self.rev_addr: HashMap = HashMap(max_entries=65536)
        self.rev_port: HashMap = HashMap(max_entries=65536)
        self.external_ip = external_ip
        self.port_counter = first_port

    def process(self, packet: Packet) -> None:
        ip_header = packet.network_header()
        l4 = packet.transport_header()
        if packet.ingress_port == 1:
            key = (int(ip_header.saddr), l4.sport)
            mapped = self.nat_out.find(key)
            if mapped is None:
                ticket = self.port_counter
                self.port_counter = (self.port_counter + 1) & 0xFFFFFFFF
                mapped = ticket & 0xFFFF
                self.nat_out.insert(key, mapped)
                self.rev_addr.insert((mapped,), int(ip_header.saddr))
                self.rev_port.insert((mapped,), l4.sport)
            ip_header.saddr = Ipv4Address(self.external_ip)
            l4.sport = mapped
            packet.send()
        else:
            internal_addr = self.rev_addr.find((l4.dport,))
            if internal_addr is None:
                packet.drop()
                return
            internal_port = self.rev_port.find((l4.dport,))
            ip_header.daddr = Ipv4Address(internal_addr)
            l4.dport = internal_port if internal_port is not None else 0
            packet.send()

    def state_snapshot(self) -> dict:
        return {
            "nat_out": self.nat_out.snapshot(),
            "rev_addr": self.rev_addr.snapshot(),
            "rev_port": self.rev_port.snapshot(),
            "port_counter": self.port_counter,
        }


class L4LoadBalancerReference(Element):
    """Reference L4 LB with five-tuple consistency and FIN/RST teardown."""

    def __init__(self, backends: List[int], timeout_sec: int):
        super().__init__()
        self.conn_map: HashMap = HashMap(max_entries=65536)
        self.conn_ts: HashMap = HashMap(max_entries=65536)
        self.backends: Vector = Vector(backends)
        self.timeout_sec = timeout_sec

    def process(self, packet: Packet) -> None:
        ip_header = packet.network_header()
        l4 = packet.transport_header()
        key = _five_tuple(packet)
        flags = getattr(l4, "flags", 0) if ip_header.protocol == IPPROTO_TCP else 0
        if flags & (TcpFlags.FIN | TcpFlags.RST):
            backend = self.conn_map.find(key)
            if backend is not None:
                ip_header.daddr = Ipv4Address(backend)
            self.conn_map.erase(key)
            self.conn_ts.erase(key)
            packet.send()
            return
        backend = self.conn_map.find(key)
        if backend is None:
            sport = key[2]
            dport = key[3]
            hash32 = key[0] ^ key[1]
            hash32 ^= (sport << 16) & 0xFFFFFFFF
            hash32 ^= dport
            hash32 ^= key[4]
            hash32 &= 0xFFFFFFFF
            backend = self.backends[hash32 % self.backends.size()]
            self.conn_map.insert(key, backend)
            self.conn_ts.insert(key, 0)  # now_sec(): the clock stands still
        ip_header.daddr = Ipv4Address(backend)
        packet.send()

    def state_snapshot(self) -> dict:
        return {"conn_map": self.conn_map.snapshot()}


class FirewallReference(Element):
    """Reference whitelist firewall, one table per direction."""

    def __init__(self, rules_out: List[tuple], rules_in: List[tuple]):
        super().__init__()
        self.wl_out: HashMap = HashMap(max_entries=4096)
        self.wl_in: HashMap = HashMap(max_entries=4096)
        for rule in rules_out:
            self.wl_out.insert(tuple(rule), 1)
        for rule in rules_in:
            self.wl_in.insert(tuple(rule), 1)

    def process(self, packet: Packet) -> None:
        key = _five_tuple(packet)
        table = self.wl_out if packet.ingress_port == 1 else self.wl_in
        if table.find(key) is None:
            packet.drop()
        else:
            packet.send()


class TransparentProxyReference(Element):
    """Reference transparent proxy: redirect listed TCP destination ports."""

    def __init__(self, proxy_addr: int, proxy_port: int, ports: List[int]):
        super().__init__()
        self.proxy_ports: HashMap = HashMap(max_entries=64)
        for port in ports:
            self.proxy_ports.insert((port,), 1)
        self.proxy_addr = proxy_addr
        self.proxy_port = proxy_port

    def process(self, packet: Packet) -> None:
        ip_header = packet.network_header()
        l4 = packet.transport_header()
        if ip_header.protocol == IPPROTO_TCP and l4 is not None:
            if self.proxy_ports.find((l4.dport,)) is not None:
                ip_header.daddr = Ipv4Address(self.proxy_addr)
                l4.dport = self.proxy_port & 0xFFFF
        packet.send()


class TrojanDetectorReference(Element):
    """Reference trojan detector: SSH → suspicious download → IRC."""

    SSH_BIT = 1
    DOWNLOAD_BIT = 2
    IRC_BIT = 4

    def __init__(self):
        super().__init__()
        self.host_state: HashMap = HashMap(max_entries=65536)
        self.flows: HashMap = HashMap(max_entries=65536)
        self.detections: List[int] = []

    def _update_host(self, host: int, bit: int) -> None:
        current = self.host_state.find((host,)) or 0
        value = current | bit
        self.host_state.insert((host,), value)
        if value == 7:
            self.detections.append(host)

    def process(self, packet: Packet) -> None:
        ip_header = packet.network_header()
        if ip_header.protocol != IPPROTO_TCP:
            packet.send()
            return
        l4 = packet.transport_header()
        key = _five_tuple(packet)
        flags = l4.flags
        if flags & (TcpFlags.SYN | TcpFlags.FIN | TcpFlags.RST):
            if flags & TcpFlags.SYN:
                self.flows.insert(key, 1)
                if l4.dport == 22:
                    self._update_host(key[0], self.SSH_BIT)
                if l4.dport == 6667:
                    self._update_host(key[0], self.IRC_BIT)
            else:
                self.flows.erase(key)
            packet.send()
            return
        if self.flows.find(key) is None:
            packet.drop()
            return
        if self.host_state.find((key[0],)) is not None and l4.dport in (80, 21):
            if self._classify(packet.payload()) == 2:
                self._update_host(key[0], self.DOWNLOAD_BIT)
        packet.send()

    @staticmethod
    def _classify(payload: bytes) -> int:
        for marker in (b".htm", b".zip", b".exe"):
            if marker in payload:
                return 2
        return 0


# -- factories keyed to the default config sections ---------------------------


def make_minilb(config: Dict[int, List[int]]):
    from repro.middleboxes.registry import LB_BACKENDS
    from repro.net.addresses import ip

    return MiniLBReference([int(ip(a)) for a in LB_BACKENDS])


def make_mazunat(config: Dict[int, List[int]]):
    section = config.get(0, [0, 0])
    return MazuNATReference(section[0], section[1])


def make_lb(config: Dict[int, List[int]]):
    return L4LoadBalancerReference(
        list(config.get(1, [])), config.get(0, [300])[0]
    )


def make_firewall(config: Dict[int, List[int]]):
    def to_rules(flat: List[int]) -> List[tuple]:
        return [tuple(flat[i : i + 5]) for i in range(0, len(flat) - 4, 5)]

    return FirewallReference(
        to_rules(config.get(1, [])), to_rules(config.get(2, []))
    )


def make_proxy(config: Dict[int, List[int]]):
    section = config.get(0, [0, 0])
    return TransparentProxyReference(
        section[0], section[1], list(config.get(1, []))
    )


def make_trojan(config: Dict[int, List[int]]):
    return TrojanDetectorReference()
