"""Tests for AST → IR lowering, pointer analysis, and inlining."""

import pytest

from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.lowering import LoweringError
from repro.ir.validate import validate_function
from repro.lang import parse_program


def lower(statements: str, members: str = ""):
    source = (
        f"class T {{ {members} void process(Packet *pkt)"
        f" {{ {statements} }} }};"
    )
    return lower_program(parse_program(source))


def instructions_of(lowered):
    return list(lowered.process.instructions())


class TestBasicLowering:
    def test_header_load_store(self):
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " ip->ttl = ip->ttl - 1; pkt->send();"
        )
        insts = instructions_of(lowered)
        assert any(
            isinstance(i, irin.LoadPacketField) and i.field == "ttl"
            for i in insts
        )
        assert any(
            isinstance(i, irin.StorePacketField) and i.field == "ttl"
            for i in insts
        )

    def test_pointer_analysis_resolves_transport(self):
        lowered = lower(
            "tcphdr *tcp = pkt->transport_header();"
            " uint16_t p = tcp->dport; pkt->drop();"
        )
        load = next(
            i for i in instructions_of(lowered)
            if isinstance(i, irin.LoadPacketField) and i.field == "dport"
        )
        assert load.region == "tcp"

    def test_map_find_produces_found_and_value(self):
        lowered = lower(
            "uint16_t k = 1; uint32_t *v = table.find(&k);"
            " if (v != NULL) { pkt->send(); } else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> table;",
        )
        finds = [
            i for i in instructions_of(lowered) if isinstance(i, irin.MapFind)
        ]
        assert len(finds) == 1
        assert finds[0].value is not None

    def test_contains_lowered_without_value(self):
        lowered = lower(
            "uint16_t k = 1; if (table.contains(&k)) { pkt->send(); }"
            " else { pkt->drop(); }",
            members="HashMap<uint16_t, uint32_t> table;",
        )
        find = next(
            i for i in instructions_of(lowered) if isinstance(i, irin.MapFind)
        )
        assert find.value is None

    def test_multi_key_find_arity(self):
        lowered = lower(
            "uint32_t a = 1; uint16_t b = 2;"
            " uint32_t *v = table.find(&a, &b);"
            " if (v == NULL) { pkt->drop(); } else { pkt->send(); }",
            members="HashMap<Tuple<uint32_t, uint16_t>, uint32_t> table;",
        )
        find = next(
            i for i in instructions_of(lowered) if isinstance(i, irin.MapFind)
        )
        assert len(find.keys) == 2

    def test_wrong_key_arity_rejected(self):
        with pytest.raises(LoweringError):
            lower(
                "uint32_t a = 1; uint32_t *v = table.find(&a); pkt->drop();",
                members="HashMap<Tuple<uint32_t, uint16_t>, uint32_t> table;",
            )

    def test_vector_ops(self):
        lowered = lower(
            "uint32_t n = v.size(); uint32_t x = v[0]; pkt->send();",
            members="Vector<uint32_t> v;",
        )
        insts = instructions_of(lowered)
        assert any(isinstance(i, irin.VectorLen) for i in insts)
        assert any(isinstance(i, irin.VectorGet) for i in insts)

    def test_scalar_member_load(self):
        lowered = lower(
            "uint32_t x = counter; pkt->send();",
            members="uint32_t counter;",
        )
        assert any(
            isinstance(i, irin.LoadState) and i.state == "counter"
            for i in instructions_of(lowered)
        )

    def test_ingress_port_is_meta_load(self):
        lowered = lower("uint8_t d = pkt->ingress_port(); pkt->send();")
        load = next(
            i for i in instructions_of(lowered)
            if isinstance(i, irin.LoadPacketField)
        )
        assert (load.region, load.field) == ("meta", "ingress_port")
        assert load.p4_supported()

    def test_null_comparison_uses_found_flag(self):
        lowered = lower(
            "uint16_t k = 1; uint32_t *v = t.find(&k);"
            " if (v == NULL) { pkt->drop(); } else { pkt->send(); }",
            members="HashMap<uint16_t, uint32_t> t;",
        )
        # No pointer materialization: the branch condition is the negated
        # found flag.
        assert any(
            isinstance(i, irin.UnOp) and i.op is irin.UnOpKind.LNOT
            for i in instructions_of(lowered)
        )

    def test_all_functions_validate(self, middlebox_name, bundle):
        validate_function(bundle.lowered.process)
        if bundle.lowered.configure is not None:
            validate_function(bundle.lowered.configure)


class TestControlFlowLowering:
    def test_if_creates_branch(self):
        lowered = lower("if (1) { pkt->send(); } else { pkt->drop(); }")
        assert any(
            isinstance(i, irin.Branch) for i in instructions_of(lowered)
        )

    def test_loops_create_cycles(self):
        lowered = lower(
            "uint32_t i = 0; while (i < 3) { i += 1; } pkt->send();"
        )
        from repro.analysis.reachability import compute_reachability

        info = compute_reachability(lowered.process)
        assert info.cyclic_blocks

    def test_unreachable_statement_rejected(self):
        with pytest.raises(LoweringError):
            lower("pkt->send(); uint32_t x = 1;")

    def test_fallthrough_without_verdict_rejected(self):
        with pytest.raises(LoweringError):
            lower("uint32_t x = 1;")

    def test_return_in_process_rejected(self):
        with pytest.raises(LoweringError):
            lower("return;")

    def test_both_arms_terminate(self):
        lowered = lower("if (1) { pkt->send(); } else { pkt->drop(); }")
        validate_function(lowered.process)


class TestInlining:
    def test_helper_inlined(self):
        source = """
        class T {
          uint32_t twice(uint32_t x) {
            uint32_t y = x + x;
            return y;
          }
          void process(Packet *pkt) {
            iphdr *ip = pkt->network_header();
            uint32_t v = twice(ip->ttl);
            ip->ttl = v;
            pkt->send();
          }
        };
        """
        lowered = lower_program(parse_program(source))
        # No call instruction survives; the add is inline.
        assert not any(
            isinstance(i, irin.ExternCall)
            for i in lowered.process.instructions()
        )

    def test_helper_with_packet_pointer(self):
        source = """
        class T {
          void bump(iphdr *ip) { ip->ttl = ip->ttl + 1; }
          void process(Packet *pkt) {
            iphdr *ip = pkt->network_header();
            bump(ip);
            pkt->send();
          }
        };
        """
        lowered = lower_program(parse_program(source))
        assert any(
            isinstance(i, irin.StorePacketField) and i.field == "ttl"
            for i in lowered.process.instructions()
        )

    def test_recursion_rejected(self):
        source = """
        class T {
          uint32_t loop(uint32_t x) {
            uint32_t r = loop(x);
            return r;
          }
          void process(Packet *pkt) {
            uint32_t v = loop(1);
            pkt->send();
          }
        };
        """
        with pytest.raises(LoweringError):
            lower_program(parse_program(source))

    def test_early_return_in_helper_rejected(self):
        source = """
        class T {
          uint32_t f(uint32_t x) {
            if (x) { return 1; }
            return 2;
          }
          void process(Packet *pkt) {
            uint32_t v = f(1);
            pkt->send();
          }
        };
        """
        with pytest.raises(LoweringError):
            lower_program(parse_program(source))


class TestRegisterPeephole:
    def test_compound_assign_becomes_rmw(self):
        lowered = lower(
            "counter += 1; pkt->send();", members="uint32_t counter;"
        )
        assert any(
            isinstance(i, irin.RegisterRMW)
            for i in instructions_of(lowered)
        )

    def test_load_then_compound_merges(self):
        lowered = lower(
            "uint32_t t = counter; counter += 1;"
            " iphdr *ip = pkt->network_header();"
            " ip->ttl = (uint8_t)(t & 0xFF); pkt->send();",
            members="uint32_t counter;",
        )
        insts = instructions_of(lowered)
        rmws = [i for i in insts if isinstance(i, irin.RegisterRMW)]
        loads = [i for i in insts if isinstance(i, irin.LoadState)]
        assert len(rmws) == 1
        assert not loads  # the bare load folded into the RMW

    def test_load_binop_store_merges(self):
        lowered = lower(
            "uint32_t t = counter; counter = t + 1;"
            " pkt->send();",
            members="uint32_t counter;",
        )
        insts = instructions_of(lowered)
        # Either merged into one RMW or left as load+store; the merged form
        # is required for the NAT counter to be offloadable.
        rmws = [i for i in insts if isinstance(i, irin.RegisterRMW)]
        stores = [i for i in insts if isinstance(i, irin.StoreState)]
        assert len(rmws) == 1 and not stores

    def test_rmw_returns_old_value(self):
        from repro.ir.interp import Interpreter, PacketView, StateStore
        from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
        from repro.net.packet import RawPacket

        lowered = lower(
            "uint32_t t = counter; counter += 1;"
            " iphdr *ip = pkt->network_header(); ip->ttl = (uint8_t)(t & 0xFF);"
            " pkt->send();",
            members="uint32_t counter;",
        )
        state = StateStore(lowered.state)
        state.scalars["counter"] = 7
        packet = RawPacket.make_tcp(EthernetHeader(), Ipv4Header(), TcpHeader())
        Interpreter(lowered.process, state).run(PacketView(packet))
        assert packet.ip.ttl == 7
        assert state.scalars["counter"] == 8


class TestLoweringErrors:
    def test_unknown_name(self):
        with pytest.raises(LoweringError):
            lower("uint32_t x = nothing; pkt->send();")

    def test_unknown_method(self):
        with pytest.raises(LoweringError):
            lower("pkt->fly(); pkt->send();")

    def test_call_inside_logical_operator_rejected(self):
        with pytest.raises(LoweringError):
            lower(
                "uint16_t k = 1;"
                " if (t.contains(&k) && 1) { pkt->send(); } else { pkt->drop(); }",
                members="HashMap<uint16_t, uint32_t> t;",
            )

    def test_uninitialized_pointer_rejected(self):
        with pytest.raises(LoweringError):
            lower("iphdr *ip; pkt->send();")


class TestHostileSource:
    """One-byte mutants of a bundled source end in a located
    ``LoweringError``, never an exception from inside the lowering."""

    @staticmethod
    def mutant(old: str, new: str) -> str:
        from repro.middleboxes.registry import load_source

        source = load_source("minilb")
        assert old in source
        return source.replace(old, new, 1)

    def test_send_to_without_a_port(self):
        from repro.compiler import compile_source

        source = self.mutant("pkt->send();", "pkt->send_to();")
        with pytest.raises(LoweringError, match="send_to expects 1") as err:
            compile_source(source)
        assert err.value.location.line > 0

    def test_malformed_max_entries(self):
        from repro.compiler import compile_source

        source = self.mutant("max_entries=65536", "max_entries=10485f6")
        with pytest.raises(LoweringError, match="max_entries") as err:
            compile_source(source)
        assert err.value.location.line > 0
