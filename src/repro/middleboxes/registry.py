"""Middlebox registry: sources, default configs, reference implementations."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.lowering import LoweredMiddlebox, lower_program
from repro.lang.parser import parse_program
from repro.net.addresses import ip

_SOURCES_DIR = Path(__file__).parent / "sources"

MIDDLEBOX_NAMES = ("minilb", "mazunat", "lb", "firewall", "proxy", "trojan")

#: Default addressing used by configs, tests, and workloads.
NAT_EXTERNAL_IP = "100.64.0.1"
NAT_FIRST_PORT = 2048
LB_BACKENDS = ["10.0.1.1", "10.0.1.2", "10.0.1.3", "10.0.1.4"]
LB_TIMEOUT_SEC = 300
PROXY_ADDR = "10.0.2.10"
PROXY_PORT = 3128
PROXY_REDIRECT_PORTS = [80, 8080]


def _firewall_rules(count: int) -> List[int]:
    """Synthesize ``count`` allow rules as a flat list of 5-tuples."""
    flat: List[int] = []
    for index in range(count):
        flat.extend(
            [
                int(ip(f"192.168.1.{(index % 250) + 1}")),
                int(ip(f"10.0.0.{(index % 250) + 1}")),
                1000 + index,
                80,
                6,
            ]
        )
    return flat


def _default_configs() -> Dict[str, Dict[int, List[int]]]:
    firewall_out = _firewall_rules(64)
    # Inbound rules mirror the outbound ones with src/dst swapped.
    firewall_in: List[int] = []
    for base in range(0, len(firewall_out), 5):
        src, dst, sport, dport, proto = firewall_out[base : base + 5]
        firewall_in.extend([dst, src, dport, sport, proto])
    return {
        "minilb": {},
        "mazunat": {0: [int(ip(NAT_EXTERNAL_IP)), NAT_FIRST_PORT]},
        "lb": {
            0: [LB_TIMEOUT_SEC],
            1: [int(ip(addr)) for addr in LB_BACKENDS],
        },
        "firewall": {1: firewall_out, 2: firewall_in},
        "proxy": {
            0: [int(ip(PROXY_ADDR)), PROXY_PORT],
            1: list(PROXY_REDIRECT_PORTS),
        },
        "trojan": {},
    }


_SOURCE_FILES = {
    "minilb": "minilb.cc",
    "mazunat": "mazunat.cc",
    "lb": "lb.cc",
    "firewall": "firewall.cc",
    "proxy": "proxy.cc",
    "trojan": "trojan.cc",
}

_DISPLAY_NAMES = {
    "minilb": "MiniLB",
    "mazunat": "MazuNAT",
    "lb": "Load Balancer",
    "firewall": "Firewall",
    "proxy": "Proxy",
    "trojan": "Trojan Detector",
}


@dataclass
class MiddleboxBundle:
    """Everything needed to compile, deploy, and test one middlebox."""

    name: str
    display_name: str
    source: str
    lowered: LoweredMiddlebox
    config: Dict[int, List[int]]
    #: factory for the independent Python reference implementation
    reference_factory: Optional[Callable] = None

    def make_reference(self):
        if self.reference_factory is None:
            raise ValueError(f"{self.name} has no reference implementation")
        return self.reference_factory(self.config)


def load_source(name: str) -> str:
    """Read a middlebox's C++-subset source text."""
    try:
        filename = _SOURCE_FILES[name]
    except KeyError:
        raise KeyError(
            f"unknown middlebox {name!r}; choose from {MIDDLEBOX_NAMES}"
        ) from None
    return (_SOURCES_DIR / filename).read_text()


#: (file name, file text) -> its lowering: one per text, shared by every
#: bundle of it (a caller reads it and never changes it —
#: ``tests/conftest.py`` compares the shapes before and after tier-1).
_LOWERED: Dict[Tuple[str, str], LoweredMiddlebox] = {}


def load(name: str) -> MiddleboxBundle:
    """Load one middlebox by short name: its source parsed and lowered
    once per text of the file, a fresh bundle (and config) per call."""
    from repro.middleboxes import reference

    source = load_source(name)
    filename = f"{name}.cc"
    lowered = _LOWERED.get((filename, source))
    if lowered is None:
        lowered = lower_program(parse_program(source, filename))
        _LOWERED[filename, source] = lowered
    factories = {
        "minilb": reference.make_minilb,
        "mazunat": reference.make_mazunat,
        "lb": reference.make_lb,
        "firewall": reference.make_firewall,
        "proxy": reference.make_proxy,
        "trojan": reference.make_trojan,
    }
    return MiddleboxBundle(
        name=name,
        display_name=_DISPLAY_NAMES[name],
        source=source,
        lowered=lowered,
        config=_default_configs()[name],
        reference_factory=factories.get(name),
    )
