"""Golden behaviour pins for the deployment flavours.

Each pin is a sha256 over everything a run makes observable — the
journeys (verdict, port, bytes, punted, sync_tables, retries), the
metrics snapshot, the simulated clock and the fault effect log — for one
(flavour, middlebox, clean | faulted) cell driven by one fixed
2 000-packet churn stream.  They were recorded on the commit *before*
the runtime was refactored to one packet loop with composable roles, so
"the refactor changed no simulated behaviour" is a byte comparison.
The refactor left every pin byte-identical except the four trojan pins
of the two cached flavours, which the bounded-cache miss fix moved on
purpose (a miss the pre pipeline answers itself now punts).  The
``faulted`` lb and minilb pins of the same two flavours moved once more
when a switch answer under faults began to count as a cache hit, as it
always had without them (``cache.hits``).

Two more files pin what those 44 cells do not reach and the switch
specialization rewrites: ``fast_path.json`` (``firewall`` and ``proxy``,
zero-punt — every packet is answered by the pre pipeline, half of the
firewall's flows denied, half of the proxy's redirected) and
``observed.json`` (tracer sampling every 16th packet, windowed series and
INT on every 8th packet, with the trace, the series and the flow reports
inside the hash).  Both were recorded on the commit before the switch
model was specialized around the compiled closures.

``punt_path.json`` pins the *inside* of a punt, which the hashes above
only see the outside of: per punt the to-server and to-switch shim bytes,
the update batch, the control plane's answer to it (latencies, attempts,
decision, undo log), the server's full write journal, and all 17 fields
of every journey — for the four punting middleboxes, base and pooled,
clean, faulted, and under lost batch confirmations (the fixed plans have
no ``timeout`` fault, so no batch of theirs retries after landing or
rolls forward from its undo log) (:func:`punt_path`).  Recorded on the
commit before the switch ↔ server round trip was specialized per program.
The ``cached`` cells (every middlebox cache mode admits; the batches
include each refill and each local eviction batch with its undo log)
were recorded on the commit before a fault-free batch became one pass
and the cache's FIFO began to move at commit.

Regenerate (only when simulated behaviour is meant to change, and say
which pin moved and why in CHANGES.md)::

    PYTHONPATH=src python -m tests.runtime.golden_pins --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    LinkFault,
    PoolMemberCrash,
    PoolMemberDrain,
    PrimarySwitchCrash,
    PuntReorder,
    ServerCrash,
    StaleReplication,
    StandbyStaleReplay,
    SwitchReprogram,
    WritebackOverflow,
)
from repro.middleboxes import load
from repro.net.addresses import ip
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.deployment import (
    GalliumMiddlebox,
    PacketJourney,
    compile_middlebox,
)
from repro.runtime.spec import DeploymentSpec
from repro.switchsim.control_plane import UpdateBatchError
from repro.switchsim.switch_model import SHIM_KEY
from repro.telemetry import DEFAULT_WINDOW_US, Telemetry
from repro.workloads.iperf import EXTERNAL_SERVER, VIP
from repro.workloads.packets import FlowSpec, flow_packets

GOLDEN_DIR = Path(__file__).parent / "golden"

PACKETS = 2000
CACHE_ENTRIES = 8
MIDDLEBOXES = ("minilb", "mazunat", "lb", "trojan")
FLAVOURS: Dict[str, DeploymentSpec] = {
    "base": DeploymentSpec(),
    "cached": DeploymentSpec(cache_entries=CACHE_ENTRIES),
    "failover-phi": DeploymentSpec(standby_detection="phi"),
    "cached+failover": DeploymentSpec(
        cache_entries=CACHE_ENTRIES, standby_detection="phi"
    ),
    "pooled": DeploymentSpec(pool_servers=3),
}

#: cells beyond flavour x MIDDLEBOXES: golden file -> (flavour,
#: middleboxes, telemetry on)
EXTRA_CELLS: Dict[str, Tuple[str, Tuple[str, ...], bool]] = {
    "fast_path": ("base", ("firewall", "proxy"), False),
    "observed": ("base", ("mazunat", "firewall"), True),
}


def observed_telemetry() -> Telemetry:
    """Every observer on at once (the benchmark's ``observed`` flavour)."""
    return Telemetry(
        tracing=True, sample_every=16, series_window_us=DEFAULT_WINDOW_US,
        int_sample_every=8,
    )


_BENIGN = (
    BatchFault(mode="fail", probability=0.2, doom_probability=0.05),
    LinkFault(direction="to_server", probability=0.04),
    LinkFault(direction="to_switch", mode="corrupt", probability=0.04),
    StaleReplication(probability=0.3, start=100, stop=1500),
    WritebackOverflow(probability=0.02),
)
_SINGLE_SWITCH = FaultPlan(_BENIGN + (
    ServerCrash(at_packet=300, outage=40, lose_state=True),
    SwitchReprogram(at_packet=900, duration=30),
    ServerCrash(at_packet=1400, outage=25, lose_state=False),
    PuntReorder(),
))
_FAILOVER = FaultPlan(_BENIGN + (
    PrimarySwitchCrash(at_packet=700, promotion_window=20),
    StandbyStaleReplay(probability=0.3),
))
_POOL = FaultPlan(_BENIGN + (
    PoolMemberCrash(member="srv1", at_packet=400, migration_window=150),
    PoolMemberDrain(member="srv0", at_packet=1100, drain_window=100),
))
#: the one fixed fault plan each flavour is pinned under
FAULT_PLANS: Dict[str, FaultPlan] = {
    "base": _SINGLE_SWITCH,
    "cached": _SINGLE_SWITCH,
    "failover-phi": _FAILOVER,
    "cached+failover": _FAILOVER,
    "pooled": _POOL,
}


@lru_cache(maxsize=None)
def churn_stream(name: str) -> List[Tuple[object, int]]:
    """The fixed stream: 24 TCP flows in flight at once, each SYN, 2-40
    data packets, FIN; a seeded RNG picks whose packet comes next."""
    rng = random.Random(0x601D)
    daddr = VIP if name in ("minilb", "lb") else EXTERNAL_SERVER

    def flows() -> Iterator[Iterator]:
        index = 0
        while True:
            spec = FlowSpec(
                saddr=f"192.168.{1 + index // 200}.{1 + index % 200}",
                daddr=daddr, sport=10000 + index, dport=5001,
                data_packets=rng.randint(2, 40), payload_size=64,
            )
            if name == "firewall" and index % 2:
                # Odd flows match whitelist rule ``index % 64``; the even
                # ones keep the tuple no rule admits and are dropped.
                rule = index % 64
                spec.saddr = f"192.168.1.{rule + 1}"
                spec.daddr = f"10.0.0.{rule + 1}"
                spec.sport, spec.dport = 1000 + rule, 80
            elif name == "proxy" and index % 2:
                spec.dport = 80  # a redirected port
            yield flow_packets(spec)
            index += 1

    source = flows()
    active = [next(source) for _ in range(24)]
    stream: List[Tuple[object, int]] = []
    while len(stream) < PACKETS:
        slot = rng.randrange(len(active))
        packet = next(active[slot], None)
        if packet is None:
            active[slot] = next(source)
            continue
        stream.append((packet, 1))
    return stream


@lru_cache(maxsize=None)
def compiled(name: str):
    return compile_middlebox(load(name).lowered)


def build(flavour, name: str, injector, telemetry=None):
    """A fresh installed deployment of one flavour — a name in
    :data:`FLAVOURS`, or a :class:`DeploymentSpec` — (compiled engine)."""
    spec = FLAVOURS[flavour] if isinstance(flavour, str) else flavour
    bundle = load(name)
    plan, program = compiled(name)
    box = GalliumMiddlebox(
        plan, program, config=bundle.config, seed=7, fast_path=True,
        policy=DegradationPolicy(), injector=injector, telemetry=telemetry,
        **spec.roles(),
    )
    box.install()
    if name == "minilb":
        # The registry config leaves minilb's backend vector empty.
        box.state.vectors["backends"] = [
            int(ip("10.0.1.1")), int(ip("10.0.1.2")),
        ]
        box.sync_all_state()
    return box


def _journey_row(journey) -> list:
    port, frame = journey.emitted[0] if journey.emitted else (0, None)
    return [
        journey.verdict, port, frame.pack().hex() if frame else "",
        journey.punted, journey.sync_tables, journey.retries,
    ]


def pin(flavour: str, name: str, faulted: bool,
        observed: bool = False) -> str:
    injector = None
    if faulted:
        injector = FaultInjector(FAULT_PLANS[flavour], seed=3)
    telemetry = observed_telemetry() if observed else None
    box = build(flavour, name, injector, telemetry)
    rows = []
    for packet, port in churn_stream(name):
        rows.append(_journey_row(box.process_packet(packet.copy(), port)))
        rows.extend(_journey_row(j) for j in box.drain_deferred())
    box.recover()
    rows.extend(_journey_row(j) for j in box.drain_deferred())
    observable = [rows, box.telemetry.metrics.to_dict(),
                  round(box.telemetry.clock.now_us, 6), box.fault_log]
    if observed:
        observable += [telemetry.tracer.to_dicts(), telemetry.series.to_dict(),
                       telemetry.int_collector.to_dict()]
    blob = json.dumps(observable, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def compute(cell: str) -> Dict[str, Dict[str, str]]:
    """``{middlebox: {"clean": sha, "faulted": sha}}`` for one golden
    file: a flavour over every middlebox it admits, or an extra cell."""
    flavour, names, observed = EXTRA_CELLS.get(
        cell, (cell, MIDDLEBOXES, False)
    )
    pins: Dict[str, Dict[str, str]] = {}
    for name in names:
        try:
            pins[name] = {
                "clean": pin(flavour, name, False, observed),
                "faulted": pin(flavour, name, True, observed),
            }
        except CacheConfigurationError:
            continue  # not admitted in cache mode
    return pins


# -- the inside of a punt -----------------------------------------------------

#: flavours ``punt_path.json`` covers (one server, the HRW pool, and a
#: bounded cache, whose batches include its refills and evictions)
PUNT_PATH_FLAVOURS = ("base", "pooled", "cached")
PUNT_PATH = "punt_path"
_JOURNEY_FIELDS = tuple(f.name for f in dataclasses.fields(PacketJourney))
_BATCH_FIELDS = (
    "visibility_latency_us", "total_latency_us", "tables_touched",
    "updates_applied", "attempts", "retry_wait_us", "queue_wait_us",
    "decision",
)


def _full_journey_row(journey) -> list:
    """All 17 fields (``getattr``: a journey built without the
    constructor must still carry every one)."""
    row = [getattr(journey, name) for name in _JOURNEY_FIELDS]
    emitted = _JOURNEY_FIELDS.index("emitted")
    row[emitted] = [[port, frame.pack().hex()] for port, frame in row[emitted]]
    return row


def _update_rows(updates) -> list:
    return [[u.op, u.target, list(u.key), u.value] for u in updates]


def watch_punts(box) -> Dict[str, list]:
    """Record what crosses the two boundaries inside a punt by wrapping
    *instance* attributes of ``box`` (as ``perfbench/spans.py`` does):
    the state policy's ``serve`` — whichever runtime the punt target
    routed to — and the active control plane's ``apply_batch``."""
    log: Dict[str, list] = {"shims": [], "journals": [], "batches": []}
    serve = box.state_policy.serve
    apply_batch = box.switch.control_plane.apply_batch

    def watched_serve(runtime, frame):
        to_server = frame.metadata.get(SHIM_KEY, b"")
        served = serve(runtime, frame)
        to_switch = served.packet.metadata.get(SHIM_KEY, b"")
        log["shims"].append([to_server.hex(), to_switch.hex()])
        log["journals"].append([
            [[op, member, list(keys), value]
             for op, member, keys, value in runtime.last_journal],
            _update_rows(served.updates), served.verdict,
            served.egress_port, served.instructions,
        ])
        return served

    def watched_apply_batch(updates):
        row = [_update_rows(updates)]
        try:
            result = apply_batch(updates)
        except UpdateBatchError as exc:
            row += ["error", str(exc), exc.kind, exc.attempts,
                    exc.retry_wait_us, exc.applied, exc.decision,
                    exc.undo.to_dict()]
            raise
        else:
            row += [getattr(result, name) for name in _BATCH_FIELDS]
            row.append(result.undo.to_dict())
            return result
        finally:
            log["batches"].append(row)

    box.state_policy.serve = watched_serve
    box.switch.control_plane.apply_batch = watched_apply_batch
    return log


#: what each ``punt_path.json`` cell runs under
PUNT_PATH_PLANS = {
    "clean": lambda flavour: None,
    "faulted": FAULT_PLANS.__getitem__,
    "timeouts": lambda flavour: FaultPlan((
        BatchFault(mode="timeout", probability=0.5),
        BatchFault(mode="fail", probability=0.1),
        StaleReplication(probability=0.3),
    )),
}


def punt_path(flavour: str, name: str, state: str) -> Dict[str, object]:
    """One ``punt_path.json`` cell: a sha256 per boundary, so a move says
    which side of the round trip it is on, and the punt count."""
    plan = PUNT_PATH_PLANS[state](flavour)
    injector = FaultInjector(plan, seed=3) if plan is not None else None
    box = build(flavour, name, injector)
    log = watch_punts(box)
    journeys = log["journeys"] = []
    for packet, port in churn_stream(name):
        journeys.append(
            _full_journey_row(box.process_packet(packet.copy(), port)))
        journeys.extend(_full_journey_row(j) for j in box.drain_deferred())
    box.recover()
    journeys.extend(_full_journey_row(j) for j in box.drain_deferred())
    cell: Dict[str, object] = {
        key: hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        for key, rows in log.items()
    }
    cell["punts"] = len(log["shims"])
    cell["batch_calls"] = len(log["batches"])
    return cell


def compute_punt_path(flavour: str) -> Dict[str, Dict[str, dict]]:
    cells: Dict[str, Dict[str, dict]] = {}
    for name in MIDDLEBOXES:
        try:
            cells[name] = {state: punt_path(flavour, name, state)
                           for state in PUNT_PATH_PLANS}
        except CacheConfigurationError:
            continue  # not admitted in cache mode
    return cells


def golden_path(cell: str) -> Path:
    return GOLDEN_DIR / f"{cell.replace('+', '_')}.json"


def main(argv: List[str]) -> int:
    write = "--write" in argv
    status = 0
    punt_pins = {
        flavour: compute_punt_path(flavour) for flavour in PUNT_PATH_FLAVOURS
    }
    path = golden_path(PUNT_PATH)
    if write:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(punt_pins, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    else:
        recorded = json.loads(path.read_text())
        for flavour, pins in punt_pins.items():
            for name, cells in pins.items():
                for state, cell in cells.items():
                    moved = [key for key, value in cell.items()
                             if recorded[flavour][name][state][key] != value]
                    if moved:
                        print(f"{PUNT_PATH}: {flavour}/{name}/{state}"
                              f" moved: {', '.join(moved)}")
                        status = 1
    for flavour in (*FLAVOURS, *EXTRA_CELLS):
        pins = compute(flavour)
        path = golden_path(flavour)
        if write:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path} ({len(pins)} middleboxes)")
        elif pins != json.loads(path.read_text()):
            print(f"{flavour}: pins differ from {path}")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
