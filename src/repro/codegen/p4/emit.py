"""P4-16 text emission.

Emits one deployable program per middlebox containing both the pre- and
post-processing partitions, dispatched on the packet's ingress interface
(§4.3.1: "Gallium creates a match-action table that matches on the ingress
interface of the packet at the beginning of the processing pipeline").

Mapping (paper Figure 6):

==========================  =======================================
CFG construct               P4 construct
==========================  =======================================
temporary variable          ``meta.scratch`` slice at its offset
map                         exact-match table (+ write-back table)
global scalar               ``register`` extern
branch                      a predicate guarding later stages' ops
header access               ``hdr.<header>.<field>``
ALU operation               P4 arithmetic on metadata
map lookup                  ``table.apply()`` keyed on the key's slice
==========================  =======================================

A pipeline is printed as it is staged (:meth:`SwitchProgram.stages`), a
``/* stage k */`` block per stage, and ``metadata_t`` is one scratch area
holding each pipeline's allocation of that order (constraint 4), pre and
post overlaid as a packet takes one of them.  Constraint 3 gives a table
one lookup, so its key reads that lookup's key slices and its actions
write its results.

Replicated tables get the §4.3.3 write-back machinery: a small companion
table, a one-bit visibility register read into the lookup's first result
slice, and a lookup sequence that consults the write-back table first.

The interpreted switch model runs the same staged ops under the same
guards over the same allocation
(:class:`repro.switchsim.pipeline.PipelineExecutor`); this emitter
produces the artifact a real deployment would compile with the Tofino
SDK, and the LoC accounting for Table 1.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional, Tuple, Union

from repro.codegen.headers import (
    EGRESS_PORT_FIELD,
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_SEND,
    INGRESS_PORT_FIELD,
    RESERVED_FIELDS,
    VERDICT_FIELD,
)
from repro.ir import instructions as irin
from repro.ir.values import Const
from repro.net.fields import BY_KEY
from repro.net.headers import ETHERTYPE_GALLIUM
from repro.partition.constraints import Guard
from repro.switchsim.program import PORT_PAIRS, SERVER_PORT, SwitchProgram


def _sanitize(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _binop(op: irin.BinOpKind) -> str:
    """The operator's text: P4 spells the ALU operations a switch has
    (§2.2) the way the IR does, and has no others."""
    if op not in irin.P4_SUPPORTED_BINOPS:
        raise KeyError(op)
    return op.value


def _portless(port) -> bool:
    """A SEND to port 0 names no port: it leaves by the wire pair."""
    return isinstance(port, Const) and not port.value


#: A table lookup the emitter renders: the one offloaded site of its table.
_LOOKUPS = (irin.MapFind, irin.VectorGet)
_Lookup = Union[irin.MapFind, irin.VectorGet]
#: register -> (byte offset, size) in the scratch area
_Offsets = Dict[str, Tuple[int, int]]
_INGRESS = "standard_metadata.ingress_port"
_SHIM_INGRESS = f"hdr.shim_to_switch.{INGRESS_PORT_FIELD}"
#: The instructions that write one expression to their register.
_EXPRESSIONS = (
    irin.Assign, irin.Cast, irin.LoadPacketField, irin.UnOp, irin.BinOp
)


class _P4Emitter:
    def __init__(self, program: SwitchProgram):
        self.program = program
        self.lines: List[str] = []
        self.indent = 0
        #: the headers of the blocks open, innermost last
        self._headers: List[Optional[str]] = []
        self.stages = {side: program.stages(side) for side in ("pre", "post")}
        self.scratch_bytes = max(a.total_bytes for _, a in self.stages.values())
        #: the offsets of the pipeline being emitted
        self.offsets: _Offsets = {}
        #: where the pipeline being emitted reads the port the packet came
        #: in on: post runs for a packet the server returns, whose shim
        #: carries it back
        self.ingress = _INGRESS
        #: table -> its lookup, and the offsets of the pipeline it is in
        self.lookups: Dict[str, Tuple[_Lookup, _Offsets]] = {
            inst.state: (inst, allocation.offsets)
            for staged, allocation in self.stages.values()
            for inst, _, _ in staged
            if isinstance(inst, _LOOKUPS)
        }

    # -- utilities -----------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append(("    " * self.indent + text).rstrip())

    def block(self, header: Optional[str]) -> "_P4Emitter":
        """``with self.block(header):`` — the body indented inside
        ``header { ... }``, or as it is for no header."""
        self._headers.append(header)
        return self

    def __enter__(self) -> None:
        header = self._headers[-1]
        if header is not None:
            self.emit(header + " {")
            self.indent += 1

    def __exit__(self, *exc_info) -> None:
        if self._headers.pop() is not None:
            self.indent -= 1
            self.emit("}")

    def _slot(self, name: str, bits: int) -> str:
        """The scratch slice register ``name`` is allocated."""
        low = self.offsets[name][0] * 8
        return f"meta.scratch[{low + bits - 1}:{low}]"

    def _operand(self, operand, width: Optional[int] = None) -> str:
        if isinstance(operand, Const):
            return f"{width or operand.bits}w{operand.value}"
        return self._slot(operand.name, operand.bits)

    def _pair(self) -> str:
        """The far side of the wire pair the packet came in on."""
        (near, far), (_, back) = PORT_PAIRS.items()
        return f"({self.ingress} == {near}) ? 9w{far} : 9w{back}"

    def _leaves(self, port: str) -> str:
        """Where a SEND to ``port`` leaves: the port, or the wire pair
        when it is 0 (the switch's ``egress or bypass_port(ingress)``)."""
        return f"({port} != 0) ? (bit<9>){port} : ({self._pair()})"

    # -- top level ----------------------------------------------------------------

    def render(self) -> str:
        self.emit("/* Auto-generated by the Gallium reproduction compiler. */")
        self.emit(f"/* Middlebox: {self.program.name} */")
        self.emit("#include <core.p4>")
        self.emit("#include <v1model.p4>")
        self.emit()
        self._emit_headers()
        self._emit_metadata()
        self._emit_parser()
        self._emit_ingress()
        self._emit_fixups()
        return "\n".join(self.lines) + "\n"

    # -- headers --------------------------------------------------------------------

    def _emit_headers(self) -> None:
        with self.block("header ethernet_t"):
            self.emit("bit<48> dstAddr;")
            self.emit("bit<48> srcAddr;")
            self.emit("bit<16> etherType;")
        self.emit()
        for layout, type_name in (
            (self.program.shim_to_server, "gallium_to_server_t"),
            (self.program.shim_to_switch, "gallium_to_switch_t"),
        ):
            with self.block(f"header {type_name}"):
                total = 0
                for field in layout.fields:
                    self.emit(
                        f"bit<{field.width_bits}> {_sanitize(field.name)};"
                    )
                    total += field.width_bits
                pad = layout.byte_size * 8 - total
                if pad > 0:
                    self.emit(f"bit<{pad}> _pad;")
                self.emit("bit<16> innerEtherType;")
            self.emit()
        with self.block("header ipv4_t"):
            for line in (
                "bit<4> version;", "bit<4> ihl;", "bit<8> diffserv;",
                "bit<16> totalLen;", "bit<16> identification;",
                "bit<3> flags;", "bit<13> fragOffset;", "bit<8> ttl;",
                "bit<8> protocol;", "bit<16> hdrChecksum;",
                "bit<32> srcAddr;", "bit<32> dstAddr;",
            ):
                self.emit(line)
        self.emit()
        with self.block("header tcp_t"):
            for line in (
                "bit<16> srcPort;", "bit<16> dstPort;", "bit<32> seqNo;",
                "bit<32> ackNo;", "bit<4> dataOffset;", "bit<4> res;",
                "bit<8> flags;", "bit<16> window;", "bit<16> checksum;",
                "bit<16> urgentPtr;",
            ):
                self.emit(line)
        self.emit()
        with self.block("header udp_t"):
            for line in (
                "bit<16> srcPort;", "bit<16> dstPort;",
                "bit<16> length;", "bit<16> checksum;",
            ):
                self.emit(line)
        self.emit()
        with self.block("struct headers_t"):
            self.emit("ethernet_t ethernet;")
            self.emit("gallium_to_server_t shim_to_server;")
            self.emit("gallium_to_switch_t shim_to_switch;")
            self.emit("ipv4_t ipv4;")
            self.emit("tcp_t tcp;")
            self.emit("udp_t udp;")
        self.emit()

    def _emit_metadata(self) -> None:
        with self.block("struct metadata_t"):
            if self.scratch_bytes:
                self.emit(f"bit<{self.scratch_bytes * 8}> scratch;")
        self.emit()

    def _emit_parser(self) -> None:
        with self.block(
            "parser GalliumParser(packet_in pkt, out headers_t hdr,"
            " inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            with self.block("state start"):
                self.emit("pkt.extract(hdr.ethernet);")
                with self.block("transition select(hdr.ethernet.etherType)"):
                    self.emit("0x0800: parse_ipv4;")
                    self.emit(f"0x{ETHERTYPE_GALLIUM:04X}: parse_shim;")
                    self.emit("default: accept;")
            with self.block("state parse_shim"):
                self.emit("pkt.extract(hdr.shim_to_switch);")
                self.emit("transition parse_ipv4;")
            with self.block("state parse_ipv4"):
                self.emit("pkt.extract(hdr.ipv4);")
                with self.block("transition select(hdr.ipv4.protocol)"):
                    self.emit("8w6: parse_tcp;")
                    self.emit("8w17: parse_udp;")
                    self.emit("default: accept;")
            with self.block("state parse_tcp"):
                self.emit("pkt.extract(hdr.tcp);")
                self.emit("transition accept;")
            with self.block("state parse_udp"):
                self.emit("pkt.extract(hdr.udp);")
                self.emit("transition accept;")
        self.emit()

    # -- tables / registers --------------------------------------------------------

    def _emit_table(self, name: str) -> None:
        spec = self.program.tables[name]
        lookup, self.offsets = self.lookups[name]
        found = lookup.found if isinstance(lookup, irin.MapFind) else None
        if isinstance(lookup, irin.MapFind):
            keys, value = lookup.keys, lookup.value
        else:
            keys, value = (lookup.index,), lookup.dst
        width = max(spec.value_width, 1)
        with self.block(f"action set_val_{name}(bit<{width}> value)"):
            if found is not None:
                self.emit(f"{self._operand(found)} = 1;")
            if value is not None:
                cast = "" if value.bits == width else f"(bit<{value.bits}>)"
                self.emit(f"{self._operand(value)} = {cast}value;")
        with self.block(f"action miss_{name}()"):
            if found is not None:
                self.emit(f"{self._operand(found)} = 0;")
        key_fields = [
            self._operand(key, bits)
            if isinstance(key, Const) or key.bits == bits
            else f"(bit<{bits}>){self._operand(key)}"
            for key, bits in zip(keys, spec.key_widths)
        ]
        self._emit_match(f"tbl_{name}", name, key_fields, max(spec.size, 1))
        if spec.replicated:
            # Write-back companion (paper 4.3.3): gated by a visibility bit
            # read into the key, so a cleared bit matches nothing.
            self.emit(f"register<bit<1>>(1) wb_bit_{name};")
            self._emit_match(
                f"tbl_wb_{name}", name, [self._visible(lookup), *key_fields],
                max(spec.size // 16, 16),
            )
        self.emit()

    def _emit_match(
        self, table: str, name: str, key_fields: List[str], size: int
    ) -> None:
        with self.block(f"table {table}"):
            with self.block("key ="):
                for field in key_fields:
                    self.emit(f"{field}: exact;")
            with self.block("actions ="):
                self.emit(f"set_val_{name};")
                self.emit(f"miss_{name};")
            self.emit(f"default_action = miss_{name}();")
            self.emit(f"size = {size};")

    def _visible(self, lookup: _Lookup) -> str:
        """Where the write-back visibility bit is read: the low bit of the
        lookup's first result, which either table's action overwrites."""
        if isinstance(lookup, irin.MapFind):
            return self._slot(lookup.found.name, 1)
        return self._slot(lookup.dst.name, 1)

    def _emit_registers(self) -> None:
        for name, spec in self.program.registers.items():
            self.emit(f"register<bit<{spec.width_bits}>>(1) reg_{name};")
        if self.program.registers:
            self.emit()

    # -- pipeline bodies --------------------------------------------------------

    def _emit_ingress(self) -> None:
        with self.block(
            "control GalliumIngress(inout headers_t hdr,"
            " inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            for name in sorted(self.program.tables):
                self._emit_table(name)
            self._emit_registers()
            with self.block("apply"):
                with self.block(
                    f"if (standard_metadata.ingress_port == {SERVER_PORT})"
                ):
                    self._emit_post_dispatch()
                with self.block("else"):
                    self._emit_stages("pre")
        self.emit()

    def _emit_post_dispatch(self) -> None:
        shim = "hdr.shim_to_switch"
        self.emit("/* returning from the middlebox server */")
        verdict = f"{shim}.{VERDICT_FIELD}"
        with self.block(f"if ({verdict} == {FLAG_VERDICT_DROP})"):
            self.emit("mark_to_drop(standard_metadata);")
        self.ingress = _SHIM_INGRESS
        with self.block(f"else if ({verdict} == {FLAG_VERDICT_SEND})"):
            self.emit(
                "standard_metadata.egress_spec ="
                f" {self._leaves(f'{shim}.{EGRESS_PORT_FIELD}')};"
            )
            self.emit(f"{shim}.setInvalid();")
        with self.block("else"):
            self.offsets = self.stages["post"][1].offsets
            for field in self.program.shim_to_switch.fields:
                if field.name not in RESERVED_FIELDS:
                    slot = self._slot(field.name, field.width_bits)
                    self.emit(f"{slot} = {shim}.{_sanitize(field.name)};")
            self._emit_stages("post")
            self.emit(f"{shim}.setInvalid();")

    def _emit_stages(self, side: str) -> None:
        """``side``'s ops in stage order: a block per stage (stage 0, free
        copies nothing costly precedes, before the first), a run of ops
        under one guard in one ``if``.  Branches and jumps print nothing
        (their conditions are the guards), nor does post's return."""
        staged, allocation = self.stages[side]
        self.offsets = allocation.offsets
        self.ingress = _INGRESS if side == "pre" else _SHIM_INGRESS
        for stage, ops in groupby(staged, key=itemgetter(1)):
            printed = [
                (inst, guard) for inst, _, guard in ops
                if not isinstance(inst, (irin.Branch, irin.Jump))
                and not (side == "post" and isinstance(inst, irin.Return))
            ]
            with self.block(f"/* stage {stage} */" if stage else None):
                for guard, run in groupby(printed, key=itemgetter(1)):
                    with self.block(
                        None if guard == ((),)
                        else f"if ({self._predicate(guard)})"
                    ):
                        for inst, _ in run:
                            self._emit_instruction(inst)

    def _predicate(self, guard: Guard) -> str:
        return " || ".join(
            " && ".join(
                f"{self._operand(cond, width=1)} == {arm}"
                for cond, arm in conjunction
            )
            for conjunction in guard
        )

    def _emit_punt(self) -> None:
        shim = "hdr.shim_to_server"
        self.emit("/* punt to the middlebox server with the shim header */")
        self.emit(f"{shim}.setValid();")
        self.emit(f"{shim}.innerEtherType = hdr.ethernet.etherType;")
        self.emit(f"hdr.ethernet.etherType = 0x{ETHERTYPE_GALLIUM:04X};")
        for field in self.program.shim_to_server.fields:
            name = _sanitize(field.name)
            if field.name == INGRESS_PORT_FIELD:
                self.emit(
                    f"{shim}.{name} ="
                    " (bit<8>)standard_metadata.ingress_port;"
                )
            else:
                slot = self._slot(field.name, field.width_bits)
                self.emit(f"{shim}.{name} = {slot};")
        self.emit(f"standard_metadata.egress_spec = {SERVER_PORT};")

    def _emit_instruction(self, inst: irin.Instruction) -> None:
        if isinstance(inst, irin.StorePacketField):
            self._emit_store(inst)
        elif isinstance(inst, _LOOKUPS):
            self._emit_lookup(inst)
        elif isinstance(inst, (irin.LoadState, irin.RegisterRMW)):
            dst = self._operand(inst.dst)
            self.emit(f"reg_{inst.state}.read({dst}, 0);")
            if isinstance(inst, irin.RegisterRMW):
                self.emit(
                    f"reg_{inst.state}.write(0, ({dst}) {_binop(inst.op)}"
                    f" ({self._operand(inst.operand)}));"
                )
        elif isinstance(inst, _EXPRESSIONS):
            self.emit(f"{self._operand(inst.dst)} = {self._expression(inst)};")
        elif isinstance(inst, irin.SendTo) and not _portless(inst.port):
            port = self._operand(inst.port)
            egress = (
                f"(bit<9>){port}" if isinstance(inst.port, Const)
                else self._leaves(port)
            )
            self.emit(f"standard_metadata.egress_spec = {egress};")
        elif isinstance(inst, (irin.Send, irin.SendTo)):
            self.emit("/* forward on the wire pair */")
            self.emit(f"standard_metadata.egress_spec = {self._pair()};")
        elif isinstance(inst, irin.Drop):
            self.emit("mark_to_drop(standard_metadata);")
        elif isinstance(inst, irin.Return):
            self._emit_punt()
        else:
            raise NotImplementedError(f"{self.program.name}: no P4 for {inst!r}")

    def _emit_store(self, inst: irin.StorePacketField) -> None:
        """A header field gets the value; a field P4 keeps in parts, a
        slice of it per part (a store's register is the field's width:
        lowering casts to it)."""
        row = BY_KEY[(inst.region, inst.field)]
        if not row.p4_widths:
            self.emit(f"{row.p4} = {self._operand(inst.src)};")
            return
        src = inst.src
        for path, high, low in row.p4_slices():
            bits = high - low + 1
            if isinstance(src, Const):
                part = f"{bits}w{src.value >> low & (1 << bits) - 1}"
            else:
                base = self.offsets[src.name][0] * 8
                part = f"meta.scratch[{base + high}:{base + low}]"
            self.emit(f"{path} = {part};")

    def _expression(self, inst) -> str:
        """What one of :data:`_EXPRESSIONS` writes to its register."""
        if isinstance(inst, irin.Assign):
            return self._operand(inst.src, inst.dst.bits)
        if isinstance(inst, irin.Cast):
            return f"(bit<{inst.dst.bits}>)({self._operand(inst.src)})"
        if isinstance(inst, irin.LoadPacketField):
            row = BY_KEY[(inst.region, inst.field)]
            if row.region == "meta":  # its one field, the ingress port
                source = self.ingress
            else:
                source = f"({row.p4})" if row.p4_widths else row.p4
            return f"(bit<{inst.dst.bits}>){source}"
        if isinstance(inst, irin.UnOp):
            src = self._operand(inst.src)
            if inst.op is irin.UnOpKind.LNOT:
                return f"({src} == 0) ? 1w1 : 1w0"
            return f"{'~' if inst.op is irin.UnOpKind.NOT else '-'}({src})"
        op = _binop(inst.op)
        lhs, rhs = self._operand(inst.lhs), self._operand(inst.rhs)
        if inst.op in (irin.BinOpKind.LAND, irin.BinOpKind.LOR):
            return f"(({lhs} == 1) {op} ({rhs} == 1)) ? 1w1 : 1w0"
        if inst.op.is_comparison:
            return f"({lhs} {op} {rhs}) ? 1w1 : 1w0"
        return f"({lhs}) {op} ({rhs})"

    def _emit_lookup(self, inst: _Lookup) -> None:
        """The table's actions write this lookup's result slices."""
        name = inst.state
        if self.program.tables[name].replicated:
            visible = self._visible(inst)
            self.emit(f"wb_bit_{name}.read({visible}, 0);")
            with self.block(f"if (!tbl_wb_{name}.apply().hit)"):
                self.emit(f"tbl_{name}.apply();")
        else:
            self.emit(f"tbl_{name}.apply();")

    def _emit_fixups(self) -> None:
        with self.block(
            "control GalliumEgress(inout headers_t hdr, inout metadata_t meta,"
            " inout standard_metadata_t standard_metadata)"
        ):
            with self.block("apply"):
                self.emit("/* no egress processing */")
        self.emit()
        with self.block(
            "control GalliumChecksum(inout headers_t hdr, inout metadata_t meta)"
        ):
            with self.block("apply"):
                self.emit("update_checksum(hdr.ipv4.isValid(),")
                self.emit("    { hdr.ipv4.version, hdr.ipv4.ihl,")
                self.emit("      hdr.ipv4.diffserv, hdr.ipv4.totalLen,")
                self.emit("      hdr.ipv4.identification, hdr.ipv4.flags,")
                self.emit("      hdr.ipv4.fragOffset, hdr.ipv4.ttl,")
                self.emit("      hdr.ipv4.protocol, hdr.ipv4.srcAddr,")
                self.emit("      hdr.ipv4.dstAddr },")
                self.emit("    hdr.ipv4.hdrChecksum, HashAlgorithm.csum16);")
        self.emit()
        with self.block(
            "control GalliumDeparser(packet_out pkt, in headers_t hdr)"
        ):
            with self.block("apply"):
                self.emit("pkt.emit(hdr.ethernet);")
                self.emit("pkt.emit(hdr.shim_to_server);")
                self.emit("pkt.emit(hdr.shim_to_switch);")
                self.emit("pkt.emit(hdr.ipv4);")
                self.emit("pkt.emit(hdr.tcp);")
                self.emit("pkt.emit(hdr.udp);")
        self.emit()
        self.emit(
            "V1Switch(GalliumParser(), GalliumChecksum(), GalliumIngress(),"
        )
        self.emit(
            "         GalliumEgress(), GalliumChecksum(), GalliumDeparser())"
        )
        self.emit("main;")


def emit_p4_program(program: SwitchProgram) -> str:
    """Render the combined pre+post P4-16 program."""
    return _P4Emitter(program).render()
