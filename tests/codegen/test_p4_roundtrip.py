"""The printed P4 read back: what the text says is the staged program.

``read(emit_p4_program(p)) == expected(p)`` (:mod:`tests.codegen.p4_reader`)
for the bundled six under both limits; ``make cpp-check`` runs it over
66 programs.  Five seeded printer mutants (p1-p5) each fail it, and the
numbers the P4 lint checks are the numbers the parsed text declares.
"""

import copy

import pytest

from repro.codegen.headers import INGRESS_PORT_FIELD, ShimLayout
from repro.codegen.p4 import emit
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.net.fields import FIELDS
from repro.partition.constraints import (
    SwitchResources, entry_bytes, measure_pipeline,
)
from tests.codegen.p4_reader import (
    EGRESS, INGRESS, TO_SWITCH, P4ReadError, expected, path, read,
)
from tests.conftest import get_compiled

LIMITS = {
    "tofino_like": SwitchResources.tofino_like(),
    "tiny": SwitchResources.tiny(),
}
_COMPILED: dict = {}


def compiled(name: str, limits: str):
    key = (name, limits)
    if key not in _COMPILED:
        _COMPILED[key] = compile_source(
            load(name).source, LIMITS[limits], verify=False
        )
    return _COMPILED[key]


@pytest.mark.parametrize("limits", sorted(LIMITS))
@pytest.mark.parametrize("name", MIDDLEBOX_NAMES)
def test_the_text_reads_back_to_its_staged_program(name, limits):
    result = compiled(name, limits)
    assert read(result.p4_source) == expected(result.switch_program)


def test_a_send_to_port_0_or_a_register_reads_back():
    """``send_to`` of port 0 leaves by the wire pair, as the switch model
    sends it; of a register, by the register's port when it is not 0."""
    result = compile_source(
        "class F { void process(Packet *pkt) {"
        " iphdr *ip = pkt->network_header();"
        " if (ip->ttl > 5) { pkt->send_to(ip->tos); }"
        " else { pkt->send_to(0); } } };", verify=False)
    printed = read(result.p4_source)
    assert printed == expected(result.switch_program)
    egress = [s[2] for _, _, s in printed.pipelines["pre"].ops
              if s[:2] == ("set", path(EGRESS))]
    assert egress[0] == ("pair", path(INGRESS))
    assert egress[1][0] == "?:" and egress[1][3] == ("pair", path(INGRESS))


# -- the reader refuses what the emitter does not print ---------------------------


def _text():
    return get_compiled("minilb").p4_source


@pytest.mark.parametrize("old,new,named", [
    # a line of no statement form: a loop
    ("        else {\n", "        else {\n            while (true) {\n", "while"),
    # a statement at the wrong depth
    ("    apply {\n        if", "    apply {\n    if", "not indented 8"),
    # a field no header declares
    ("hdr.ipv4.dstAddr = meta", "hdr.ipv4.dstAdr = meta", "not declared"),
    # a slice past the scratch area
    ("meta.scratch[39:8] = (bit<32>)hdr.ipv4.srcAddr",
     "meta.scratch[939:8] = (bit<32>)hdr.ipv4.srcAddr", "scratch area"),
    # a brace too many
    ("main;\n", "main;\n}\n", "text after the program"),
    # a guard that is not a test for 0 or 1
    ("if (meta.scratch[88:88] == 1) {", "if (meta.scratch[88:88] == 2) {",
     "tested for 0 or 1"),
])
def test_the_reader_refuses_a_line_the_emitter_does_not_print(old, new, named):
    text = _text()
    assert old in text
    with pytest.raises(P4ReadError, match=r"line \d+: .*" + named):
        read(text.replace(old, new, 1))


# -- seeded printer mutants ----------------------------------------------------------

_P4Emitter = emit._P4Emitter


def _p1(monkeypatch):
    """Swapped operands of the non-commutative binops."""
    original = _P4Emitter._expression
    swapped = (irin.BinOpKind.SUB, irin.BinOpKind.SHL, irin.BinOpKind.SHR)

    def expression(self, inst):
        if isinstance(inst, irin.BinOp) and inst.op in swapped:
            return (f"({self._operand(inst.rhs)}) {inst.op.value}"
                    f" ({self._operand(inst.lhs)})")
        return original(self, inst)

    monkeypatch.setattr(_P4Emitter, "_expression", expression)


def _p2(monkeypatch):
    """The punt's last carried field dropped."""
    original = _P4Emitter._emit_punt

    def emit_punt(self):
        program = self.program
        self.program = copy.copy(program)
        layout = program.shim_to_server
        self.program.shim_to_server = ShimLayout(
            layout.direction, layout.fields[:-1]
        )
        try:
            original(self)
        finally:
            self.program = program

    monkeypatch.setattr(_P4Emitter, "_emit_punt", emit_punt)


def _p3(monkeypatch):
    """Multi-bit slots one bit narrow."""
    original = _P4Emitter._slot
    monkeypatch.setattr(
        _P4Emitter, "_slot",
        lambda self, name, bits: original(self, name, bits - (bits > 1)),
    )


def _p4(monkeypatch):
    """The §4.3.3 write-back read dropped: only ``tbl_x.apply()``."""
    monkeypatch.setattr(
        _P4Emitter, "_emit_lookup",
        lambda self, inst: self.emit(f"tbl_{inst.state}.apply();"),
    )


def _p5(monkeypatch):
    """One guard polarity flipped: each predicate's last condition."""
    original = _P4Emitter._predicate

    def predicate(self, guard):
        if guard[-1]:
            *rest, (cond, arm) = guard[-1]
            guard = (*guard[:-1], (*rest, (cond, 1 - arm)))
        return original(self, guard)

    monkeypatch.setattr(_P4Emitter, "_predicate", predicate)


MUTANTS = {"p1": _p1, "p2": _p2, "p3": _p3, "p4": _p4, "p5": _p5}


def mutant_failures(mutant, monkeypatch):
    """The bundled programs whose mutated text does not read back."""
    programs = {
        name: compiled(name, "tofino_like").switch_program
        for name in MIDDLEBOX_NAMES
    }
    MUTANTS[mutant](monkeypatch)
    failing = []
    for name, program in programs.items():
        try:
            if read(emit.emit_p4_program(program)) != expected(program):
                failing.append(name)
        except P4ReadError:
            failing.append(name)
    return failing


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_printer_mutant_fails_the_round_trip(mutant, monkeypatch):
    assert mutant_failures(mutant, monkeypatch)


# -- what the text says, queried ----------------------------------------------------


def test_every_field_path_is_declared_at_its_width():
    """Every ``hdr.`` path of the field table names a field the emitted
    ``headers_t`` declares, at the row's width — or, for a field P4
    keeps in parts (``ip.frag_off`` is ``flags ++ fragOffset``), parts
    declared at the widths the row slices them to."""
    declared = dict(read(_text()).headers)
    for row in FIELDS:
        if not row.p4.startswith("hdr."):
            continue
        parts = row.p4_slices() or ((row.p4, row.width - 1, 0),)
        for part, high, low in parts:
            assert part in declared, f"{row.key}: {part} is not declared"
            assert declared[part] == high - low + 1, row.key
        assert parts[0][1] == row.width - 1 and parts[-1][2] == 0, row.key


def test_the_writeback_read_sits_in_its_lookups_stage():
    """§4.3.3: the visibility bit, then the write-back table, then the
    table — one stage, one guard, in that order."""
    printed = read(_text())
    (name,) = [n for n, t in printed.tables.items() if t.companion]
    ops = printed.pipelines["pre"].ops
    (at,) = [i for i, (_, _, s) in enumerate(ops) if s[0] == "apply"]
    (stage, guard, read_bit), (later, same, apply) = ops[at - 1:at + 1]
    assert read_bit == ("read", f"wb_bit_{name}",
                        printed.tables[name].companion[0][0])
    assert apply == ("apply", name, True)
    assert (stage, guard) == (later, same) and stage > 0


def _depth(program, side):
    return measure_pipeline(getattr(program, side)).depth


@pytest.mark.parametrize("limits", sorted(LIMITS))
@pytest.mark.parametrize("name", MIDDLEBOX_NAMES)
def test_the_lint_checks_what_is_printed(name, limits):
    """What ``lint_switch_program`` counts is what the parsed text
    declares: stage blocks (P4L006), scratch bits (P4L007), tables
    applied (P4L009), register widths (P4L008), table sizes and widths
    (P4L005) — and the scratch area is the bytes constraint 4 enforced."""
    result = compiled(name, limits)
    program = result.switch_program
    printed = read(result.p4_source)
    report = result.plan.report
    for side, pipeline in printed.pipelines.items():
        function = getattr(program, side)
        assert pipeline.blocks == tuple(range(1, _depth(program, side) + 1))
        assert program.stages(side)[1].total_bytes * 8 <= printed.scratch_bits
        applied = sorted(s[1] for _, _, s in pipeline.ops if s[0] == "apply")
        assert applied == sorted(
            state for state in measure_pipeline(function).sites
            if state in program.tables
        )
    assert printed.scratch_bits == 8 * max(
        report.metadata_bytes_pre, report.metadata_bytes_post)
    assert printed.registers == {
        name: spec.width_bits for name, spec in program.registers.items()
    }
    memory = sum(
        entry_bytes([spec.width_bits]) for spec in program.registers.values()
    )
    for table, spec in program.tables.items():
        parsed = printed.tables[table]
        assert [_width(key) for key in parsed.keys] == spec.key_widths
        assert (parsed.size, parsed.value_width) == (spec.size,
                                                     spec.value_width)
        memory += parsed.size * entry_bytes(
            [*map(_width, parsed.keys), parsed.value_width])
    assert memory == program.memory_bytes()


def test_constraint_1_leaves_the_writeback_companions_out():
    """The §4.3.3 ``tbl_wb_*`` tables and ``wb_bit_*`` registers the text
    declares, priced by ``entry_bytes``: 6.6-7.3 % on top of
    ``memory_bytes()`` for the four middleboxes that replicate a table
    (DESIGN.md, "The staged switch")."""
    companions = {}
    for name in MIDDLEBOX_NAMES:
        printed = read(compiled(name, "tofino_like").p4_source)
        companions[name] = sum(
            table.companion[1] * entry_bytes(
                [*map(_width, table.companion[0]), table.value_width])
            + entry_bytes([1])
            for table in printed.tables.values() if table.companion
        )
    assert companions == {
        "minilb": 28673, "mazunat": 86019, "lb": 73729, "firewall": 0,
        "proxy": 0, "trojan": 110594,
    }


def _width(expr) -> int:
    """The width of a key expression: a slice, a cast or a constant."""
    if expr[0] == "slice":
        return expr[1] - expr[2] + 1
    return expr[1]


def test_post_reads_the_ingress_the_shim_carries_back():
    """Post runs for a packet the server returns on port 3: its SEND's
    wire pair (minilb) and its ``meta.ingress_port`` load (mazunat) read
    the ingress the to-switch shim carries back."""
    shim = path(f"{TO_SWITCH}.{INGRESS_PORT_FIELD}")
    posts = {
        name: read(get_compiled(name).p4_source).pipelines["post"].ops
        for name in ("minilb", "mazunat")
    }
    assert ("set", path(EGRESS), ("pair", shim)) in {
        s for _, _, s in posts["minilb"]}
    assert ("cast", 8, shim) in {
        s[2] for _, _, s in posts["mazunat"] if s[0] == "set"}
    assert INGRESS not in repr(posts)
