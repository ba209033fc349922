"""Oracle classification and stream determinism."""

import hashlib

import pytest

from repro.difftest.kernel import OBSERVED_FIELDS, observe_fields
from repro.difftest.oracle import Outcome, StreamSpec, run_oracle
from repro.ir.interp import PacketView
from repro.net.headers import ETHERTYPE_ARP, EthernetHeader
from repro.net.packet import RawPacket
from repro.workloads.packets import make_tcp_packet, make_udp_packet
from repro.partition.constraints import SwitchResources

AGREEING = """\
class Box {
  uint32_t total;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    total += ip->tot_len;
    ip->ttl = 9;
    pkt->send();
  }
};
"""


def test_agree():
    result = run_oracle(AGREEING, StreamSpec(seed=3, count=10))
    assert result.outcome is Outcome.AGREE
    assert result.packets_run == 10
    assert result.divergence is None


def test_crash_classification():
    """Unparseable source is a crash with the phase in the error."""
    result = run_oracle("class Box { not c++ }", StreamSpec(seed=0, count=1))
    assert result.outcome is Outcome.CRASH
    assert result.error and result.error.startswith("compile:")


def test_partition_rejected():
    """Impossible resource limits are a legitimate refusal, not a bug."""
    limits = SwitchResources(
        memory_bytes=0, pipeline_depth=1, metadata_bytes=0, transfer_bytes=0
    )
    result = run_oracle(AGREEING, StreamSpec(seed=0, count=1), limits=limits)
    assert result.outcome in (Outcome.PARTITION_REJECTED, Outcome.AGREE)


def test_stream_deterministic():
    spec = StreamSpec(seed=99, count=20)
    first = [
        (str(p.ip.saddr), str(p.ip.daddr), p.ip.ttl, ingress)
        for p, ingress in spec.build()
    ]
    second = [
        (str(p.ip.saddr), str(p.ip.daddr), p.ip.ttl, ingress)
        for p, ingress in spec.build()
    ]
    assert first == second


def test_stream_mixes_protocols_and_ports():
    packets = StreamSpec(seed=5, count=40).build()
    assert {ingress for _, ingress in packets} == {1, 2}
    protos = {p.ip.protocol for p, _ in packets}
    assert len(protos) == 2  # TCP and UDP


#: sha256 of every frame, ingress port and ``ingress_port`` the streams of
#: seeds 0-9 at ``udp_ratio`` 0 and 0.5 build, recorded while ``build``
#: still formatted and parsed each address as a string.
STREAM_FRAMES = (
    "309e15eac8d03e3569f4d2dda6f360ee8d706fe36d66ed3a7013c8f550f4900c"
)


def test_stream_frames_pinned():
    digest = hashlib.sha256()
    for seed in range(10):
        for udp_ratio in (0.0, 0.5):
            for packet, ingress in StreamSpec(seed,
                                              udp_ratio=udp_ratio).build():
                digest.update(bytes(packet.pack()))
                digest.update(repr((ingress, packet.ingress_port)).encode())
    assert digest.hexdigest() == STREAM_FRAMES


@pytest.mark.parametrize("packet", [
    make_tcp_packet("10.0.0.1", "10.9.0.1", 1111, 2222, seq=7),
    make_udp_packet("10.0.0.1", "10.9.0.1", 3333, 4444),  # tcp-> aliases
    RawPacket(EthernetHeader(ethertype=ETHERTYPE_ARP)),
], ids=["tcp", "udp", "non-ip"])
def test_observation_reads_what_get_field_reads(packet):
    view = PacketView(packet)
    assert observe_fields(packet) == {
        f"{region}->{name}": view.get_field(region, name)
        for region, name in OBSERVED_FIELDS
    }
    assert list(observe_fields(packet)) == [
        f"{region}->{name}" for region, name in OBSERVED_FIELDS
    ]


def test_stream_roundtrip():
    spec = StreamSpec(seed=7, count=3, udp_ratio=0.5)
    assert StreamSpec.from_dict(spec.to_dict()) == spec


STATEFUL = """\
class Box {
  // @gallium: max_entries=1024
  HashMap<uint32_t, uint32_t> seen;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    uint32_t key = ip->saddr;
    uint32_t *hit = seen.find(&key);
    if (hit == NULL) {
      uint32_t one = 1;
      seen.insert(&key, &one);
    }
    pkt->send();
  }
};
"""


def test_deployment_seed_threads_into_jitter():
    """One deployment-level seed fully determines control-plane jitter:
    same seed, same sync waits — no private-field poking required."""
    from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox

    plan, program = compile_middlebox(STATEFUL)
    stream = StreamSpec(seed=3, count=8).build()

    def waits(seed):
        box = GalliumMiddlebox(plan, program, seed=seed)
        box.install()
        return tuple(
            box.process_packet(p.copy(), ingress).sync_wait_us
            for p, ingress in stream
        )

    assert waits(11) == waits(11)
    assert len({waits(seed) for seed in range(4)}) > 1


def test_run_oracle_accepts_deployment_seed():
    for seed in (0, 7, 123):
        result = run_oracle(
            STATEFUL, StreamSpec(seed=3, count=8), deployment_seed=seed
        )
        assert result.outcome is Outcome.AGREE


def test_shim_budget_refusal_is_rejected_not_crash():
    """Campaign-found harness bug: SwitchProgramError (the Constraint-5
    shim budget) is a deliberate compiler refusal and must classify as
    PARTITION_REJECTED, not CRASH."""
    result = run_oracle(
        STATEFUL, StreamSpec(seed=0, count=1),
        limits=SwitchResources(transfer_bytes=0),
    )
    assert result.outcome is Outcome.PARTITION_REJECTED
    assert "shim" in result.error
