"""Tests for pipeline execution, data-plane restrictions, and the switch."""

import pytest

from repro.ir.instructions import BinOpKind
from repro.ir.interp import PacketView
from repro.net.addresses import ip
from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
from repro.net.packet import RawPacket
from repro.partition.constraints import SwitchResources
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.pipeline import DataPlaneViolation, SwitchStateAdapter
from repro.switchsim.program import (
    SERVER_PORT,
    SwitchProgram,
    SwitchProgramError,
)
from repro.switchsim.registers import Register
from repro.switchsim.switch_model import SHIM_KEY, SwitchModel
from repro.switchsim.tables import ExactMatchTable
from tests.conftest import get_bundle, get_compiled


def make_adapter():
    tables = {"t": ExactMatchTable("t", [32], 32, 16)}
    registers = {"r": Register("r", 32)}
    registers["r"].control_write(5)
    return SwitchStateAdapter(tables, registers), tables, registers


class TestSwitchStateAdapter:
    def test_lookup_through_table(self):
        adapter, tables, _ = make_adapter()
        tables["t"].stage((3,), 33)
        tables["t"].set_visibility(True)
        tables["t"].fold_writeback()
        tables["t"].set_visibility(False)
        assert adapter.map_find("t", (3,)) == (True, 33)

    def test_register_read_and_rmw(self):
        adapter, _, registers = make_adapter()
        assert adapter.load_scalar("r") == 5
        adapter.begin_traversal()
        assert adapter.rmw_scalar("r", BinOpKind.ADD, 2, 32) == 5
        assert registers["r"].value == 7

    def test_double_access_rejected(self):
        adapter, _, _ = make_adapter()
        adapter.map_find("t", (1,))
        with pytest.raises(DataPlaneViolation):
            adapter.map_find("t", (2,))

    def test_traversal_resets_counts(self):
        adapter, _, _ = make_adapter()
        adapter.map_find("t", (1,))
        adapter.begin_traversal()
        adapter.map_find("t", (1,))  # fine after reset

    def test_mutations_rejected(self):
        adapter, _, _ = make_adapter()
        with pytest.raises(DataPlaneViolation):
            adapter.map_insert("t", (1,), 2)
        with pytest.raises(DataPlaneViolation):
            adapter.map_erase("t", (1,))
        with pytest.raises(DataPlaneViolation):
            adapter.store_scalar("r", 1)
        with pytest.raises(DataPlaneViolation):
            adapter.vector_push("t", 1)
        with pytest.raises(DataPlaneViolation):
            adapter.vector_len("t")

    def test_unknown_table_rejected(self):
        adapter, _, _ = make_adapter()
        with pytest.raises(DataPlaneViolation):
            adapter.map_find("ghost", (1,))


class TestSwitchProgramValidation:
    def test_all_middlebox_programs_validate(self, middlebox_name, compiled):
        compiled.switch_program.validate()

    def test_memory_accounting(self, middlebox_name, compiled):
        assert (
            compiled.switch_program.memory_bytes()
            <= compiled.plan.limits.memory_bytes
        )

    def test_rejects_looping_pipeline(self):
        from repro.ir.builder import FunctionBuilder
        from repro.ir import instructions as irin

        compiled = get_compiled("minilb")
        builder = FunctionBuilder("loopy")
        builder.emit(irin.Jump("entry"))
        program = SwitchProgram(
            name="bad",
            pre=builder.function,
            post=compiled.plan.post,
            tables={},
            registers={},
            shim_to_server=compiled.shim_to_server,
            shim_to_switch=compiled.shim_to_switch,
            needs_server_reg="__needs_server",
        )
        with pytest.raises(SwitchProgramError):
            program.validate()


class TestSwitchModel:
    @pytest.fixture
    def switch(self):
        bundle = get_bundle("firewall")
        plan, program = compile_middlebox(bundle.lowered)
        model = SwitchModel(program)
        # Install one allow rule.
        rule = (int(ip("192.168.1.1")), int(ip("10.0.0.1")), 1000, 80, 6)
        model.control_plane.install_entries("wl_out", {rule: 1})
        return model

    def _packet(self, sport=1000):
        return RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip("192.168.1.1"), daddr=ip("10.0.0.1")),
            TcpHeader(sport=sport, dport=80),
        )

    def test_allowed_packet_forwarded(self, switch):
        output = switch.receive(self._packet(), 1)
        assert output.fast_path
        assert output.emitted and output.emitted[0][0] == 2

    def test_port_pair_resolution(self, switch):
        packet = self._packet()
        # From port 2 the whitelist is wl_in which is empty -> drop.
        output = switch.receive(packet, 2)
        assert output.dropped

    def test_denied_packet_dropped(self, switch):
        output = switch.receive(self._packet(sport=9999), 1)
        assert output.dropped
        assert switch.counters()["dropped"] == 1

    def test_counters_track_fast_path(self, switch):
        switch.receive(self._packet(), 1)
        switch.receive(self._packet(sport=2), 1)
        assert switch.counters()["fast_path"] == 2

    def test_punt_carries_shim(self):
        bundle = get_bundle("minilb")
        plan, program = compile_middlebox(bundle.lowered)
        switch = SwitchModel(program)
        packet = RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip("1.2.3.4"), daddr=ip("10.0.0.100")),
            TcpHeader(sport=7, dport=80),
        )
        output = switch.receive(packet, 1)
        assert output.punted
        port, punted = output.emitted[0]
        assert port == SERVER_PORT
        assert SHIM_KEY in punted.metadata
        decoded = program.shim_to_server.decode(punted.metadata[SHIM_KEY])
        assert decoded["__ingress_port"] == 1
        assert decoded["found5"] == 0

