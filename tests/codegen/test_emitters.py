"""Tests for the P4-16 and C++ emitters."""

import pytest

from tests.conftest import get_compiled


def balanced_braces(text: str) -> bool:
    depth = 0
    for char in text:
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


class TestP4Emission:
    def test_has_v1model_skeleton(self, middlebox_name, compiled):
        source = compiled.p4_source
        for expected in (
            "#include <v1model.p4>",
            "parser GalliumParser",
            "control GalliumIngress",
            "control GalliumDeparser",
            "V1Switch(",
        ):
            assert expected in source

    def test_every_table_declared_and_applied(self, middlebox_name, compiled):
        source = compiled.p4_source
        for table_name in compiled.switch_program.tables:
            assert f"table tbl_{table_name}" in source
            assert f"tbl_{table_name}.apply()" in source

    def test_registers_declared(self, middlebox_name, compiled):
        for register in compiled.switch_program.registers:
            assert f"reg_{register}" in compiled.p4_source

    def test_ingress_dispatch_on_port(self, middlebox_name, compiled):
        assert (
            "if (standard_metadata.ingress_port == 3)" in compiled.p4_source
        )

    def test_shim_headers_declared(self, middlebox_name, compiled):
        assert "header gallium_to_server_t" in compiled.p4_source
        assert "header gallium_to_switch_t" in compiled.p4_source

    def test_replicated_tables_get_writeback(self):
        compiled = get_compiled("minilb")
        source = compiled.p4_source
        assert "tbl_wb_map" in source
        assert "wb_bit_map" in source

    def test_non_replicated_tables_no_writeback(self):
        compiled = get_compiled("firewall")
        assert "tbl_wb_" not in compiled.p4_source

    def test_punt_path_emitted_for_slow_path_middleboxes(self):
        compiled = get_compiled("minilb")
        assert "punt to the middlebox server" in compiled.p4_source
        assert "standard_metadata.egress_spec = 3" in compiled.p4_source

    def test_checksum_recomputed(self, middlebox_name, compiled):
        assert "update_checksum" in compiled.p4_source


class TestEmittedConstants:
    """The P4 text prints the constants it means: move one, the text
    follows (``compile_pins.json`` holds the bytes they print today)."""

    CONSTANTS = [
        # (module global of the emitter, moved value, text then expected)
        ("SERVER_PORT", 7, [
            "if (standard_metadata.ingress_port == 7)",
            "standard_metadata.egress_spec = 7;",
        ]),
        ("PORT_PAIRS", {4: 5, 5: 4}, [
            "(standard_metadata.ingress_port == 4) ? 9w5 : 9w4;",
            "(hdr.shim_to_switch.__ingress_port == 4) ? 9w5 : 9w4",
        ]),
        ("ETHERTYPE_GALLIUM", 0x88B6, [
            "0x88B6: parse_shim;", "hdr.ethernet.etherType = 0x88B6;",
        ]),
        ("FLAG_VERDICT_DROP", 3, ["hdr.shim_to_switch.__verdict == 3)"]),
        ("FLAG_VERDICT_SEND", 2, [
            "else if (hdr.shim_to_switch.__verdict == 2)",
        ]),
    ]

    @pytest.mark.parametrize("name,moved,expected",
                             CONSTANTS, ids=[c[0] for c in CONSTANTS])
    def test_the_text_follows_the_constant(self, monkeypatch, name, moved,
                                           expected):
        from repro.codegen.p4 import emit

        program = get_compiled("minilb").switch_program  # punts and sends
        before = emit.emit_p4_program(program)
        assert before == get_compiled("minilb").p4_source
        monkeypatch.setattr(emit, name, moved)
        after = emit.emit_p4_program(program)
        for text in expected:
            assert text in after and text not in before
        changed = [
            now for was, now
            in zip(before.splitlines(), after.splitlines()) if was != now
        ]
        assert changed and all(
            any(text in line for text in expected) for line in changed
        )

    def test_a_tenants_punt_port_is_its_base_plus_the_server_port(
            self, monkeypatch):
        from repro.tenancy import allocator

        placement = allocator.TenantPlacement(
            name="t", index=1, memory_offset=0, memory_bytes=0,
            stage_first=2, stage_last=2, phv_bytes=0, port_base=4,
        )
        assert placement.server_port == 7
        monkeypatch.setattr(allocator, "SERVER_PORT", 2)
        assert placement.server_port == 6


class TestCppEmission:
    def test_braces_balanced(self, middlebox_name, compiled):
        assert balanced_braces(compiled.cpp_source)

    def test_dpdk_skeleton(self, middlebox_name, compiled):
        """``main`` hands the handler to the header's polling loop; the
        DPDK calls are the header's, behind ``GALLIUM_DPDK``."""
        source = compiled.cpp_source
        assert "int main(" in source
        assert "gallium::serve(argc, argv, process_punted)" in source
        assert "rte_" not in source

    def test_state_declared_with_placement_notes(self, middlebox_name, compiled):
        source = compiled.cpp_source
        for state_name in compiled.plan.middlebox.state:
            assert f"st_{state_name}" in source

    def test_shim_structs_emitted(self, middlebox_name, compiled):
        assert "struct __attribute__((packed)) ShimToServer" in compiled.cpp_source
        assert "struct __attribute__((packed)) ShimToSwitch" in compiled.cpp_source

    def test_replication_three_step_protocol(self):
        source = get_compiled("minilb").cpp_source
        assert "control_plane.stage" in source
        assert "flip_visibility" in source
        assert "fold_writeback" in source

    def test_output_commit_comment(self, middlebox_name, compiled):
        assert "output commit" in compiled.cpp_source

    def test_fully_offloaded_has_trivial_handler(self):
        source = get_compiled("firewall").cpp_source
        assert "no replicated state" in source


class TestTable1Metrics:
    def test_loc_positive(self, middlebox_name, compiled):
        assert compiled.input_loc() > 0
        assert compiled.p4_loc() > 0
        assert compiled.cpp_loc() > 0

    def test_loc_shape_matches_paper(self):
        """Paper Table 1 shape: the trojan detector has the largest server
         partition and the proxy the smallest P4 program."""
        p4 = {}
        cpp = {}
        for name in ("mazunat", "lb", "firewall", "proxy", "trojan"):
            compiled = get_compiled(name)
            p4[name] = compiled.p4_loc()
            cpp[name] = compiled.cpp_loc()
        # Proxy is the smallest switch program (paper: 292 vs 500+).
        assert p4["proxy"] == min(p4.values())
        # The trojan detector keeps the most code on the server (DPI loop).
        assert cpp["trojan"] == max(cpp.values())
        # Fully offloaded middleboxes have smaller server programs than the
        # stateful ones.
        assert cpp["firewall"] < cpp["trojan"]
