"""Tests for CFG projection (paper Figure 4) and rematerialization."""

import pytest

from repro.analysis.reachability import compute_reachability
from repro.ir import instructions as irin
from repro.ir.interp import Interpreter, PacketView, StateStore
from repro.partition.labels import Partition
from repro.partition.projection import NEEDS_SERVER
from repro.verify import verify_ir
from tests.conftest import get_bundle, get_compiled


class TestProjectionStructure:
    def test_projections_validate(self, middlebox_name, compiled):
        # Projections read shim-seeded registers: those count as defined.
        plan = compiled.plan
        for function, shim in (
            (plan.pre, None),
            (plan.non_offloaded, compiled.shim_to_server),
            (plan.post, compiled.shim_to_switch),
        ):
            inputs = frozenset(shim.field_names()) if shim else frozenset()
            errors = [
                d for d in verify_ir(function, boundary_inputs=inputs)
                if d.severity == "error"
            ]
            assert errors == []

    def test_pre_contains_only_pre_instructions(self, middlebox_name, compiled):
        plan = compiled.plan
        for inst in plan.pre.instructions():
            partition = plan.assignment.get(inst.id)
            if partition is None:
                # Synthetic: needs-server flag, rematerialized loads, jumps.
                continue
            assert partition is Partition.PRE

    def test_switch_projections_loop_free(self, middlebox_name, compiled):
        for function in (compiled.plan.pre, compiled.plan.post):
            assert not compute_reachability(function).cyclic_blocks

    def test_pre_has_needs_server_flag(self, middlebox_name, compiled):
        names = set()
        for inst in compiled.plan.pre.instructions():
            result = inst.result()
            if result is not None:
                names.add(result.name)
        assert NEEDS_SERVER in names

    def test_no_server_only_ops_in_switch_projections(
        self, middlebox_name, compiled
    ):
        forbidden = (
            irin.MapInsert, irin.MapErase, irin.StoreState,
            irin.VectorLen, irin.VectorPush, irin.ExternCall,
        )
        for function in (compiled.plan.pre, compiled.plan.post):
            for inst in function.instructions():
                assert not isinstance(inst, forbidden), (
                    f"{middlebox_name}: {inst!r} in {function.name}"
                )


class TestRematerializationP4Gating:
    def test_non_p4_slice_never_rematerialized_into_post(self):
        """Rematerializing a pure slice into a switch partition must skip
        non-P4-expressible ops (multiply/divide/modulo).

        Regression (difftest corpus ``remat_nonp4_into_post``): the
        shim-shrinking pass cloned a pure ``%`` computation into the post
        pipeline and P4 code generation crashed.
        """
        from repro.ir import lower_program
        from repro.lang import parse_program
        from repro.runtime.deployment import compile_middlebox

        source = (
            "class T { void process(Packet *pkt) {"
            " iphdr *ip = pkt->network_header();"
            " udphdr *udp = pkt->udp_header();"
            " uint8_t x = ((udp->dport + 0) % 0);"
            " pkt->send_to(0); } };"
        )
        plan, _ = compile_middlebox(lower_program(parse_program(source)))
        for function in (plan.pre, plan.post):
            for inst in function.instructions():
                assert inst.p4_supported(), f"{inst!r} in {function.name}"


class TestMiniLBFigure4:
    """Projected CFGs match the paper's Figure 4 structure."""

    @pytest.fixture(scope="class")
    def plan(self):
        return get_compiled("minilb").plan

    def test_pre_has_find_branch_rewrite_send(self, plan):
        kinds = [type(i).__name__ for i in plan.pre.instructions()]
        assert "MapFind" in kinds
        assert "Branch" in kinds
        assert "StorePacketField" in kinds
        assert "Send" in kinds

    def test_non_offloaded_has_modulo_vector_insert(self, plan):
        kinds = [type(i).__name__ for i in plan.non_offloaded.instructions()]
        assert "VectorLen" in kinds
        assert "VectorGet" in kinds
        assert "MapInsert" in kinds
        assert "Send" not in kinds

    def test_post_has_rewrite_and_send(self, plan):
        kinds = [type(i).__name__ for i in plan.post.instructions()]
        assert "StorePacketField" in kinds
        assert "Send" in kinds
        assert "MapFind" not in kinds

    def test_branch_replicated_in_all_three(self, plan):
        for function in (plan.pre, plan.non_offloaded, plan.post):
            assert any(
                isinstance(i, irin.Branch) for i in function.instructions()
            ), function.name


class TestProjectionExecution:
    def test_pre_fast_path_sets_no_flag(self):
        """A hit-path execution of the pre projection ends with a verdict."""
        from repro.net.addresses import ip
        from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
        from repro.net.packet import RawPacket

        plan = get_compiled("minilb").plan
        state = StateStore(plan.middlebox.state)
        # Seed the connection map so the lookup hits.
        hash32 = int(ip("9.9.9.9")) ^ int(ip("10.0.0.100"))
        state.maps["map"][(hash32 & 0xFFFF,)] = int(ip("10.0.1.1"))
        packet = RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip("9.9.9.9"), daddr=ip("10.0.0.100")),
            TcpHeader(sport=1, dport=80),
        )
        result = Interpreter(plan.pre, state).run(PacketView(packet))
        assert result.verdict == "send"
        assert str(packet.ip.daddr) == "10.0.1.1"

    def test_pre_miss_path_sets_flag(self):
        from repro.net.addresses import ip
        from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
        from repro.net.packet import RawPacket

        plan = get_compiled("minilb").plan
        state = StateStore(plan.middlebox.state)
        packet = RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip("9.9.9.9"), daddr=ip("10.0.0.100")),
            TcpHeader(sport=1, dport=80),
        )
        result = Interpreter(plan.pre, state).run(PacketView(packet))
        assert result.verdict is None
        assert result.env.get(NEEDS_SERVER) == 1


class TestRematerialization:
    def test_trojan_five_tuple_not_in_shim(self):
        """Header loads are recomputed server-side, not shipped (§4.3.2)."""
        plan = get_compiled("trojan").plan
        names = set(plan.to_server.names())
        assert not any(name.startswith("src_ip") for name in names)
        assert not any(name.startswith("dst_ip") for name in names)

    def test_minilb_hash_in_shim(self):
        """MiniLB rewrites the IP header, so its loads cannot remat and
        hash32 travels in the shim — exactly the paper's Figure 5."""
        plan = get_compiled("minilb").plan
        assert any(
            name.startswith("hash32") for name in plan.to_server.names()
        )

    def test_remat_loads_present_in_consumer(self):
        plan = get_compiled("trojan").plan
        loads = [
            i for i in plan.non_offloaded.instructions()
            if isinstance(i, irin.LoadPacketField) and i.field == "saddr"
        ]
        assert loads


class TestTransferSpecs:
    def test_minilb_shim_matches_figure5(self):
        plan = get_compiled("minilb").plan
        to_server = set(plan.to_server.names())
        # Figure 5a: the bk_addr==NULL bit and hash32 (plus the map key).
        assert any(n.startswith("found") for n in to_server)
        assert any(n.startswith("hash32") for n in to_server)
        to_switch = set(plan.to_switch.names())
        # Figure 5b: the bit and backends[idx].
        assert any(n.startswith("found") for n in to_switch)
        assert any(n.startswith("bk_addr2") for n in to_switch)

    def test_transfer_bytes_match_reg_widths(self, middlebox_name, compiled):
        plan = compiled.plan
        for spec in (plan.to_server, plan.to_switch):
            total = sum(
                max(1, (r.type.bit_width() + 7) // 8) for r in spec.regs
            )
            assert spec.byte_size() == total
