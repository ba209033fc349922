"""Read the printed P4 back, and say what it should read.

:func:`read` parses exactly the grammar :mod:`repro.codegen.p4.emit`
prints — header declarations, the scratch area, the tables and
registers, the ingress dispatch and each pipeline's ``/* stage k */``
blocks — and refuses any other line with a :class:`P4ReadError` naming
it.  Expressions are parsed with P4-16's precedence into trees, so what
is compared is what the text means, not how it is spaced.

:func:`expected` derives the same record from the compiled program:
``SwitchProgram.stages(side)``, the allocation's offsets and the shim
layouts, read as the switch model runs them — Figure 6's rows, a
register at its allocation offset, a header field as
:data:`repro.net.fields.FIELDS` keeps it (``p4_slices`` for one P4 keeps
in parts), the §4.3.3 write-back read (the visibility bit into the
lookup's first result slice, then ``tbl_wb_*``, then the table, one
stage), post's ingress restored from ``hdr.shim_to_switch.__ingress_port``
and a SEND that names no port (or port 0) leaving by ``PORT_PAIRS``.

The round trip ``read(emit_p4_program(p)) == expected(p)`` runs in
tier-1 over the bundled six under both limits
(``test_p4_roundtrip.py``) and over the 66 programs of ``make
cpp-check``.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.codegen.headers import (
    EGRESS_PORT_FIELD,
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_SEND,
    INGRESS_PORT_FIELD,
    RESERVED_FIELDS,
)
from repro.ir import instructions as irin
from repro.ir.values import Const
from repro.net.fields import BY_KEY
from repro.net.headers import ETHERTYPE_GALLIUM
from repro.switchsim.program import PORT_PAIRS, SERVER_PORT, SwitchProgram

#: An expression as P4 means it: ``("slice", high, low)`` of
#: ``meta.scratch``, ``("path", "hdr.ipv4.ttl")``, ``("const", width or
#: None, value)``, ``("cast", bits, e)``, ``("unary", op, e)``,
#: ``("binary", op, lhs, rhs)``, ``("?:", cond, then, else)``, and
#: ``("pair", ingress)``: the far side of the wire pair (a ternary that
#: sends each ``PORT_PAIRS`` port to its pair).
Expr = tuple
#: ``("set", target, value)``, ``("read", register, slice)``,
#: ``("write", register, value)``, ``("apply", table, companion first)``,
#: ``("valid", header, valid)``, ``("drop",)``.
Statement = tuple
#: When a statement runs: a disjunction of conjunctions of ``(condition,
#: 0 | 1)``; ``((),)`` is always.
Guard = Tuple[Tuple[Tuple[Expr, int], ...], ...]
ALWAYS: Guard = ((),)

SCRATCH = "meta.scratch"
INGRESS = "standard_metadata.ingress_port"
EGRESS = "standard_metadata.egress_spec"
TO_SERVER = "hdr.shim_to_server"
TO_SWITCH = "hdr.shim_to_switch"

#: The headers every program declares besides the two shims, in
#: ``headers_t`` order: the v1model wire formats the parser extracts.
WIRE_HEADERS = {
    "ethernet": (("dstAddr", 48), ("srcAddr", 48), ("etherType", 16)),
    "ipv4": (
        ("version", 4), ("ihl", 4), ("diffserv", 8), ("totalLen", 16),
        ("identification", 16), ("flags", 3), ("fragOffset", 13),
        ("ttl", 8), ("protocol", 8), ("hdrChecksum", 16), ("srcAddr", 32),
        ("dstAddr", 32),
    ),
    "tcp": (
        ("srcPort", 16), ("dstPort", 16), ("seqNo", 32), ("ackNo", 32),
        ("dataOffset", 4), ("res", 4), ("flags", 8), ("window", 16),
        ("checksum", 16), ("urgentPtr", 16),
    ),
    "udp": (("srcPort", 16), ("dstPort", 16), ("length", 16),
            ("checksum", 16)),
}
#: ``headers_t``'s members in order, and their header types.
MEMBERS = (
    ("ethernet", "ethernet_t"), ("shim_to_server", "gallium_to_server_t"),
    ("shim_to_switch", "gallium_to_switch_t"), ("ipv4", "ipv4_t"),
    ("tcp", "tcp_t"), ("udp", "udp_t"),
)


class Table(NamedTuple):
    keys: Tuple[Expr, ...]
    #: the width of ``set_val``'s parameter
    value_width: int
    size: int
    #: what ``set_val`` and ``miss`` write
    hit: Tuple[Statement, ...]
    miss: Tuple[Statement, ...]
    #: the §4.3.3 ``tbl_wb_*`` table's keys and size (its ``wb_bit_*``
    #: register is one bit); ``None`` for a table that is not replicated
    companion: Optional[Tuple[Tuple[Expr, ...], int]]


class Pipeline(NamedTuple):
    #: the ``/* stage k */`` blocks printed, in order
    blocks: Tuple[int, ...]
    #: ``(stage, guard, statement)`` in text order; a statement outside
    #: every stage block is in stage 0 (which prints no block)
    ops: Tuple[Tuple[int, Guard, Statement], ...]


class Printed(NamedTuple):
    name: str
    #: ``(hdr.<member>.<field>, width)`` in declaration order
    headers: Tuple[Tuple[str, int], ...]
    scratch_bits: int
    tables: Dict[str, Table]
    #: register (``reg_<name>``) -> width
    registers: Dict[str, int]
    #: ``"pre"`` / ``"post"`` -> its pipeline
    pipelines: Dict[str, Pipeline]
    #: verdict flag -> what the return leg does with a server's verdict
    verdicts: Dict[int, Tuple[Statement, ...]]


class P4ReadError(ValueError):
    """The text has a line the emitter's grammar does not."""


def identifier(name: str) -> str:
    """The P4 identifier of a register or state name."""
    return name.replace(".", "_").replace("-", "_")


def scratch(offsets, name: str, bits: int) -> Expr:
    """The scratch slice of register ``name``, ``bits`` wide, at its
    allocation offset."""
    low = offsets[name][0] * 8
    return ("slice", low + bits - 1, low)


def const(value: int, width: Optional[int] = None) -> Expr:
    return ("const", width, value)


def path(text: str) -> Expr:
    return ("path", text)


def pair(ingress: Expr) -> Expr:
    return ("pair", ingress)


def _is_true(cond: Expr) -> Expr:
    return ("binary", "==", cond, const(1))


def leaves(port: Expr, ingress: Expr) -> Expr:
    """Where a SEND to ``port`` leaves: the port, or the wire pair when
    it is 0 (the switch model's ``egress or bypass_port(ingress)``)."""
    return ("?:", ("binary", "!=", port, const(0)), ("cast", 9, port),
            pair(ingress))


def _boolean(cond: Expr) -> Expr:
    """A P4 boolean as the one-bit register it is stored in."""
    return ("?:", cond, const(1, 1), const(0, 1))


# -- expressions ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<cast>\(bit<(?P<bits>\d+)>\))"
    r"|(?P<sized>(?P<width>\d+)w(?P<value>\d+))"
    r"|(?P<number>0x[0-9A-F]+|\d+)"
    r"|(?P<name>[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
    r"|(?P<op>\+\+|&&|\|\||==|!=|<=|>=|<<|>>|[-+*/%&|^~!<>?:()\[\]]))"
)
#: P4-16's binary operators, loosest first (comparisons bind looser
#: than the bitwise ones, unlike C).
_LEVELS = (
    ("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("|",), ("^",),
    ("&",), ("<<", ">>"), ("++", "+", "-"), ("*", "/", "%"),
)
_BINDING = {op: level for level, ops in enumerate(_LEVELS, 1) for op in ops}


class _Expression:
    """A Pratt parser over one expression's tokens."""

    def __init__(self, text: str, declared):
        self.declared = declared
        self.tokens: List[Tuple[str, re.Match]] = []
        at = 0
        while at < len(text):
            match = _TOKEN.match(text, at)
            if match is None or match.end() == at:
                raise ValueError(f"no token at {text[at:]!r}")
            self.tokens.append((match.lastgroup, match))
            at = match.end()
        self.at = 0

    def parse(self) -> Expr:
        tree = self.ternary()
        if self.at != len(self.tokens):
            raise ValueError(f"trailing {self.tokens[self.at][1][0]!r}")
        return tree

    def peek(self) -> Optional[str]:
        if self.at < len(self.tokens):
            kind, match = self.tokens[self.at]
            return match["op"] if kind == "op" else kind
        return None

    def take(self, op: Optional[str] = None) -> re.Match:
        if self.at == len(self.tokens):
            raise ValueError("ends early")
        kind, match = self.tokens[self.at]
        if op is not None and match["op"] != op:
            raise ValueError(f"{op!r} expected, {match[0].strip()!r} read")
        self.at += 1
        return match

    def number(self) -> int:
        match = self.take()
        if match["number"] is None:
            raise ValueError(f"a number expected, {match[0].strip()!r} read")
        return int(match["number"], 0)

    def ternary(self) -> Expr:
        cond = self.binary(1)
        if self.peek() != "?":
            return cond
        self.take("?")
        then = self.ternary()
        self.take(":")
        return ("?:", cond, then, self.ternary())

    def binary(self, level: int) -> Expr:
        tree = self.prefix()
        while True:
            op = self.peek()
            binding = _BINDING.get(op) if op else None
            if binding is None or binding < level:
                return tree
            self.take()
            tree = ("binary", op, tree, self.binary(binding + 1))

    def prefix(self) -> Expr:
        kind = self.peek()
        if kind == "cast":
            return ("cast", int(self.take()["bits"]), self.prefix())
        if kind in ("~", "-", "!"):
            self.take()
            return ("unary", kind, self.prefix())
        return self.primary()

    def primary(self) -> Expr:
        kind = self.peek()
        match = self.take()
        if kind == "(":
            tree = self.ternary()
            self.take(")")
            return tree
        if kind == "sized":
            width, value = int(match["width"]), int(match["value"])
            if value >> width:
                raise ValueError(f"{match[0].strip()} does not fit its width")
            return const(value, width)
        if kind == "number":
            return const(int(match["number"], 0))
        if kind != "name":
            raise ValueError(f"{match[0].strip()!r} starts no operand")
        name = match["name"]
        if name == SCRATCH:
            self.take("[")
            high = self.number()
            self.take(":")
            low = self.number()
            self.take("]")
            return self.declared.slice(high, low)
        return path(self.declared.name(name))


def _ports(tree: Expr) -> Expr:
    """``tree`` with every ternary that sends each wired port to its pair
    — ``(ingress == p) ? 9wa : 9wb`` — read as ``("pair", ingress)``."""
    if not isinstance(tree, tuple) or tree[0] in ("const", "path", "slice"):
        return tree
    tree = (tree[0], *(_ports(part) for part in tree[1:]))
    if tree[0] != "?:":
        return tree
    _, cond, then, other = tree
    if (
        cond[0] == "binary" and cond[1] == "==" and cond[3][0] == "const"
        and then[:2] == other[:2] == ("const", 9)
        and all(
            (then if port == cond[3][2] else other)[2] == PORT_PAIRS[port]
            for port in PORT_PAIRS
        )
    ):
        return pair(cond[2])
    return tree


def _guard(tree: Expr) -> Guard:
    """A printed predicate, ``c == 1 && d == 0 || ...``, as a guard."""

    def split(tree: Expr, op: str) -> List[Expr]:
        if tree[0] == "binary" and tree[1] == op:
            return split(tree[2], op) + split(tree[3], op)
        return [tree]

    guard = []
    for conjunction in split(tree, "||"):
        conditions = []
        for test in split(conjunction, "&&"):
            if not (test[0] == "binary" and test[1] == "==" and test[3][:2]
                    == ("const", None) and test[3][2] in (0, 1)):
                raise ValueError(f"{test} is not a condition tested for 0 or 1")
            conditions.append((test[2], test[3][2]))
        guard.append(tuple(conditions))
    return tuple(guard)


# -- the reader ------------------------------------------------------------------

_HEADER = re.compile(r"header (\w+) \{")
_FIELD = re.compile(r"bit<(\d+)> (\w+);")
_MEMBER = re.compile(r"(\w+) (\w+);")
_STAGE = re.compile(r"/\* stage (\d+) \*/ \{")
_IF = re.compile(r"if \((.*)\) \{")
_READ = re.compile(r"(reg_\w+|wb_bit_\w+)\.read\((.*), 0\);")
_WRITE = re.compile(r"(reg_\w+)\.write\(0, (.*)\);")
_APPLY = re.compile(r"tbl_(\w+)\.apply\(\);")
_COMPANION = re.compile(r"if \(!tbl_wb_(\w+)\.apply\(\)\.hit\) \{")
_VALID = re.compile(r"(hdr\.\w+)\.(setValid|setInvalid)\(\);")
_SET = re.compile(r"([\w.]+(?:\[\d+:\d+\])?) = (.*);")
_REGISTER = re.compile(r"register<bit<(\d+)>>\(1\) (reg|wb_bit)_(\w+);")
_VERDICT = re.compile(
    r"(?:else )?if \(hdr\.shim_to_switch\.__verdict == (\d+)\) \{")
#: The comments a pipeline prints before a statement.
_NOTES = (
    "/* forward on the wire pair */",
    "/* punt to the middlebox server with the shim header */",
)

_INGRESS = (
    "control GalliumIngress(inout headers_t hdr, inout metadata_t meta,"
    " inout standard_metadata_t standard_metadata) {"
)
_PARSER = f"""\
parser GalliumParser(packet_in pkt, out headers_t hdr, inout metadata_t meta, \
inout standard_metadata_t standard_metadata) {{
    state start {{
        pkt.extract(hdr.ethernet);
        transition select(hdr.ethernet.etherType) {{
            0x0800: parse_ipv4;
            0x{ETHERTYPE_GALLIUM:04X}: parse_shim;
            default: accept;
        }}
    }}
    state parse_shim {{
        pkt.extract(hdr.shim_to_switch);
        transition parse_ipv4;
    }}
    state parse_ipv4 {{
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {{
            8w6: parse_tcp;
            8w17: parse_udp;
            default: accept;
        }}
    }}
    state parse_tcp {{
        pkt.extract(hdr.tcp);
        transition accept;
    }}
    state parse_udp {{
        pkt.extract(hdr.udp);
        transition accept;
    }}
}}
"""
_FIXUPS = """\
control GalliumEgress(inout headers_t hdr, inout metadata_t meta, \
inout standard_metadata_t standard_metadata) {
    apply {
        /* no egress processing */
    }
}

control GalliumChecksum(inout headers_t hdr, inout metadata_t meta) {
    apply {
        update_checksum(hdr.ipv4.isValid(),
            { hdr.ipv4.version, hdr.ipv4.ihl,
              hdr.ipv4.diffserv, hdr.ipv4.totalLen,
              hdr.ipv4.identification, hdr.ipv4.flags,
              hdr.ipv4.fragOffset, hdr.ipv4.ttl,
              hdr.ipv4.protocol, hdr.ipv4.srcAddr,
              hdr.ipv4.dstAddr },
            hdr.ipv4.hdrChecksum, HashAlgorithm.csum16);
    }
}

control GalliumDeparser(packet_out pkt, in headers_t hdr) {
    apply {
        pkt.emit(hdr.ethernet);
        pkt.emit(hdr.shim_to_server);
        pkt.emit(hdr.shim_to_switch);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
    }
}

V1Switch(GalliumParser(), GalliumChecksum(), GalliumIngress(),
         GalliumEgress(), GalliumChecksum(), GalliumDeparser())
main;
"""


#: What :meth:`_Reader.peek` reads past the last line: no line is it.
_END = "\x00"


class _Reader:
    """One pass over the lines of a printed program: each is taken at
    the indent its nesting prints it at, or refused."""

    def __init__(self, text: str):
        if not text.endswith("\n"):
            raise P4ReadError("the text does not end with a newline")
        self.lines = text[:-1].split("\n")
        self.at = 0
        self.depth = 0
        self.headers: Dict[str, int] = {}
        self.scratch_bits = 0
        #: the action parameter is a name inside an action only
        self.in_action = False

    # -- lines -------------------------------------------------------------

    def refuse(self, why: str, at: Optional[int] = None) -> P4ReadError:
        at = self.at if at is None else at
        line = self.lines[at] if at < len(self.lines) else "<end of text>"
        return P4ReadError(f"line {at + 1}: {why}: {line!r}")

    def peek(self) -> str:
        """The next line without its indent (:data:`_END` past the last)."""
        if self.at == len(self.lines):
            return _END
        return self.lines[self.at].lstrip(" ")

    def take(self) -> str:
        """The next line without its indent, which must be the one its
        nesting prints it at."""
        text = self.peek()
        if text == _END:
            raise self.refuse("the text ends early")
        if text.startswith("}"):
            self.depth -= 1
        if text and self.lines[self.at] != "    " * self.depth + text:
            raise self.refuse(f"not indented {4 * self.depth}")
        if text.endswith("{"):
            self.depth += 1
        self.at += 1
        return text

    def expect(self, *texts: str) -> None:
        for text in texts:
            if self.take() != text:
                raise self.refuse(f"{text!r} expected", self.at - 1)

    def match(self, pattern: re.Pattern) -> re.Match:
        found = pattern.fullmatch(self.take())
        if found is None:
            raise self.refuse(f"not {pattern.pattern!r}", self.at - 1)
        return found

    def verbatim(self, block: str) -> None:
        """``block``'s lines, exactly (the parser and the controls after
        ingress print the same for every program)."""
        for line in block.split("\n")[:-1]:
            if self.at == len(self.lines) or self.lines[self.at] != line:
                raise self.refuse(f"{line!r} expected")
            self.at += 1

    # -- names --------------------------------------------------------------

    def slice(self, high: int, low: int) -> Expr:
        if not low <= high < self.scratch_bits:
            raise ValueError(
                f"[{high}:{low}] is not a slice of the {self.scratch_bits}"
                "-bit scratch area"
            )
        return ("slice", high, low)

    def name(self, name: str) -> str:
        if name in self.headers or name == INGRESS or (
            name == "value" and self.in_action
        ):
            return name
        raise ValueError(f"{name} is not declared")

    def expression(self, text: str) -> Expr:
        try:
            return _ports(_Expression(text, self).parse())
        except ValueError as exc:
            raise self.refuse(f"{text!r}: {exc}", self.at - 1) from None

    def target(self, text: str) -> Expr:
        if text == EGRESS:
            return path(EGRESS)
        return self.expression(text)

    # -- the program ------------------------------------------------------

    def program(self) -> Printed:
        self.expect("/* Auto-generated by the Gallium reproduction compiler. */")
        name = self.match(re.compile(r"/\* Middlebox: (.*) \*/"))[1]
        self.expect("#include <core.p4>", "#include <v1model.p4>", "")
        types: Dict[str, Tuple[Tuple[str, int], ...]] = {}
        while _HEADER.fullmatch(self.peek()):
            type_name = self.match(_HEADER)[1]
            fields = []
            while self.peek() != "}":
                width, field = self.match(_FIELD).groups()
                fields.append((field, int(width)))
            self.expect("}", "")
            if type_name in types or len(dict(fields)) != len(fields):
                raise self.refuse(f"{type_name} is declared twice or has a"
                                  " field twice", self.at - 3)
            types[type_name] = tuple(fields)
        self.expect("struct headers_t {")
        while self.peek() != "}":
            type_name, member = self.match(_MEMBER).groups()
            if type_name not in types:
                raise self.refuse(f"no header {type_name}", self.at - 1)
            for field, width in types[type_name]:
                self.headers[f"hdr.{member}.{field}"] = width
        self.expect("}", "", "struct metadata_t {")
        if self.peek() != "}":
            self.scratch_bits = int(self.match(re.compile(
                r"bit<(\d+)> scratch;"))[1])
        self.expect("}", "")
        self.verbatim(_PARSER)
        self.expect("")
        self.expect(_INGRESS)
        tables: Dict[str, Table] = {}
        while self.peek().startswith("action "):
            table, spec = self.table()
            tables[table] = spec
        registers: Dict[str, int] = {}
        while self.peek().startswith("register<"):
            width, kind, register = self.match(_REGISTER).groups()
            if kind != "reg" or register in registers:
                raise self.refuse("a register of no state, or declared twice",
                                  self.at - 1)
            registers[register] = int(width)
        if registers:
            self.expect("")
        self.expect("apply {",
                    f"if ({INGRESS} == {SERVER_PORT}) {{",
                    "/* returning from the middlebox server */")
        verdicts: Dict[int, Tuple[Statement, ...]] = {}
        while _VERDICT.fullmatch(self.peek()):
            if self.peek().startswith("else") is not bool(verdicts):
                raise self.refuse("an if chain opens with if")
            flag = int(self.match(_VERDICT)[1])
            verdicts[flag] = tuple(
                statement for _, _, statement in self.body(0, ALWAYS))
            self.expect("}")
        self.expect("else {")
        post = self.pipeline()
        self.expect("}", "}", "else {")
        pre = self.pipeline()
        self.expect("}", "}", "}", "")
        self.verbatim(_FIXUPS)
        if self.at != len(self.lines):
            raise self.refuse("text after the program")
        return Printed(
            name=name,
            headers=tuple(self.headers.items()),
            scratch_bits=self.scratch_bits,
            tables=tables,
            registers=registers,
            pipelines={"pre": pre, "post": post},
            verdicts=verdicts,
        )

    def table(self) -> Tuple[str, Table]:
        name, width = self.match(re.compile(
            r"action set_val_(\w+)\(bit<(\d+)> value\) \{")).groups()
        self.in_action = True
        hit = self.assignments()
        self.in_action = False
        self.expect(f"action miss_{name}() {{")
        miss = self.assignments()
        keys, size = self.match_table(f"tbl_{name}", name)
        companion = None
        if self.peek() == f"register<bit<1>>(1) wb_bit_{name};":
            self.take()
            companion = self.match_table(f"tbl_wb_{name}", name)
        self.expect("")
        return name, Table(keys, int(width), size, hit, miss, companion)

    def assignments(self) -> Tuple[Statement, ...]:
        """An action's body, to its closing brace."""
        out = []
        while self.peek() != "}":
            target, value = self.match(_SET).groups()
            out.append(("set", self.target(target), self.expression(value)))
        self.expect("}")
        return tuple(out)

    def match_table(self, table: str, name: str):
        self.expect(f"table {table} {{", "key = {")
        keys = []
        while self.peek() != "}":
            keys.append(self.expression(
                self.match(re.compile(r"(.*): exact;"))[1]))
        self.expect(
            "}", "actions = {", f"set_val_{name};", f"miss_{name};", "}",
            f"default_action = miss_{name}();",
        )
        size = int(self.match(re.compile(r"size = (\d+);"))[1])
        self.expect("}")
        return tuple(keys), size

    def pipeline(self) -> Pipeline:
        """One side's statements, to the brace that closes its branch."""
        blocks: List[int] = []
        ops: List[Tuple[int, Guard, Statement]] = []
        while self.peek() != "}":
            opened = _STAGE.fullmatch(self.peek())
            if opened is None:
                ops.extend(self.run(0))
                continue
            self.take()
            stage = int(opened[1])
            blocks.append(stage)
            while self.peek() != "}":
                ops.extend(self.run(stage))
            self.expect("}")
        return Pipeline(tuple(blocks), tuple(ops))

    def run(self, stage: int) -> List[Tuple[int, Guard, Statement]]:
        """A statement, or a run of them under one ``if``."""
        opened = _IF.fullmatch(self.peek())
        if opened is None or _COMPANION.fullmatch(self.peek()):
            return self.body(stage, ALWAYS, one=True)
        self.take()
        guard = self.expression(opened[1])
        try:
            guard = _guard(guard)
        except ValueError as exc:
            raise self.refuse(str(exc), self.at - 1) from None
        ops = self.body(stage, guard)
        self.expect("}")
        return ops

    def body(self, stage: int, guard: Guard, one: bool = False):
        """Statements to the closing brace (not taken), or just one."""
        out = []
        while self.peek() != "}":
            if self.peek() in _NOTES:
                self.take()
            out.append((stage, guard, self.statement()))
            if one:
                break
        return out

    def statement(self) -> Statement:
        text = self.take()
        if text == "mark_to_drop(standard_metadata);":
            return ("drop",)
        for pattern in (_READ, _WRITE, _APPLY, _COMPANION, _VALID, _SET):
            found = pattern.fullmatch(text)
            if found is not None:
                break
        else:
            raise self.refuse("no statement of the grammar", self.at - 1)
        if pattern is _READ:
            return ("read", found[1], self.expression(found[2]))
        if pattern is _WRITE:
            return ("write", found[1], self.expression(found[2]))
        if pattern is _APPLY:
            return ("apply", found[1], False)
        if pattern is _COMPANION:
            self.expect(f"tbl_{found[1]}.apply();", "}")
            return ("apply", found[1], True)
        if pattern is _VALID:
            if not any(key.startswith(found[1] + ".") for key in self.headers):
                raise self.refuse(f"no header {found[1]}", self.at - 1)
            return ("valid", found[1], found[2] == "setValid")
        return ("set", self.target(found[1]), self.expression(found[2]))


def read(text: str) -> Printed:
    """The program ``text`` prints; :class:`P4ReadError` on any line the
    emitter's grammar does not have."""
    return _Reader(text).program()


# -- what the program should print ------------------------------------------------


def _operand(offsets, operand, width: Optional[int] = None) -> Expr:
    if isinstance(operand, Const):
        return const(operand.value, width or operand.bits)
    return scratch(offsets, operand.name, operand.bits)


def _field(row, ingress: Expr) -> Expr:
    """A header field read whole: its path, or its parts joined."""
    if row.region == "meta":
        return ingress
    parts = [path(part) for part, _, _ in row.p4_slices()] or [path(row.p4)]
    tree = parts[0]
    for part in parts[1:]:
        tree = ("binary", "++", tree, part)
    return tree


#: The instructions that write one expression to their register.
_EXPRESSIONS = (
    irin.Assign, irin.Cast, irin.LoadPacketField, irin.UnOp, irin.BinOp
)


class _Expected:
    """Figure 6's rows over one pipeline's allocation."""

    def __init__(self, program: SwitchProgram, side: str):
        self.program = program
        self.side = side
        self.staged, allocation = program.stages(side)
        self.offsets = allocation.offsets
        self.bytes = allocation.total_bytes
        # The post pipeline runs for the packet the server returns: its
        # ingress is the one the switch received it on, carried back.
        self.ingress = path(
            INGRESS if side == "pre" else f"{TO_SWITCH}.{INGRESS_PORT_FIELD}"
        )

    def operand(self, operand, width: Optional[int] = None) -> Expr:
        return _operand(self.offsets, operand, width)

    def slot(self, reg) -> Expr:
        return scratch(self.offsets, reg.name, reg.bits)

    def egress(self, port) -> Expr:
        """Where a SEND to ``port`` leaves (a constant port is known to
        be 0 or not here)."""
        if not isinstance(port, Const):
            return leaves(self.slot(port), self.ingress)
        if port.value:
            return ("cast", 9, self.operand(port))
        return pair(self.ingress)

    def statements(self, inst) -> List[Statement]:
        if isinstance(inst, irin.StorePacketField):
            row = BY_KEY[(inst.region, inst.field)]
            if not row.p4_widths:
                return [("set", path(row.p4), self.operand(inst.src))]
            src = inst.src
            out = []
            for part, high, low in row.p4_slices():
                bits = high - low + 1
                if isinstance(src, Const):
                    value = const(src.value >> low & (1 << bits) - 1, bits)
                else:
                    base = self.offsets[src.name][0] * 8
                    value = ("slice", base + high, base + low)
                out.append(("set", path(part), value))
            return out
        if isinstance(inst, (irin.MapFind, irin.VectorGet)):
            if not self.program.tables[inst.state].replicated:
                return [("apply", identifier(inst.state), False)]
            return [
                ("read", f"wb_bit_{identifier(inst.state)}",
                 _visible(self.offsets, inst)),
                ("apply", identifier(inst.state), True),
            ]
        if isinstance(inst, (irin.LoadState, irin.RegisterRMW)):
            register = f"reg_{identifier(inst.state)}"
            dst = self.slot(inst.dst)
            out = [("read", register, dst)]
            if isinstance(inst, irin.RegisterRMW):
                out.append(("write", register, (
                    "binary", inst.op.value, dst, self.operand(inst.operand)
                )))
            return out
        if isinstance(inst, irin.SendTo):
            return [("set", path(EGRESS), self.egress(inst.port))]
        if isinstance(inst, irin.Send):
            return [("set", path(EGRESS), pair(self.ingress))]
        if isinstance(inst, irin.Drop):
            return [("drop",)]
        if isinstance(inst, irin.Return):
            return self.punt()
        if isinstance(inst, _EXPRESSIONS):
            return [("set", self.slot(inst.dst), self.expression(inst))]
        raise NotImplementedError(f"no P4 for {inst!r}")

    def expression(self, inst) -> Expr:
        if isinstance(inst, irin.Assign):
            return self.operand(inst.src, inst.dst.bits)
        if isinstance(inst, irin.Cast):
            return ("cast", inst.dst.bits, self.operand(inst.src))
        if isinstance(inst, irin.LoadPacketField):
            row = BY_KEY[(inst.region, inst.field)]
            return ("cast", inst.dst.bits, _field(row, self.ingress))
        if isinstance(inst, irin.UnOp):
            src = self.operand(inst.src)
            if inst.op is irin.UnOpKind.LNOT:
                return _boolean(("binary", "==", src, const(0)))
            return ("unary", "~" if inst.op is irin.UnOpKind.NOT else "-", src)
        op = inst.op.value
        lhs, rhs = self.operand(inst.lhs), self.operand(inst.rhs)
        if inst.op in (irin.BinOpKind.LAND, irin.BinOpKind.LOR):
            return _boolean(("binary", op, _is_true(lhs), _is_true(rhs)))
        if inst.op.is_comparison:
            return _boolean(("binary", op, lhs, rhs))
        return ("binary", op, lhs, rhs)

    def punt(self) -> List[Statement]:
        """Pre's exit: the to-server shim made valid and filled, the
        packet sent to the server's port."""
        out = [
            ("valid", TO_SERVER, True),
            ("set", path(f"{TO_SERVER}.innerEtherType"),
             path("hdr.ethernet.etherType")),
            ("set", path("hdr.ethernet.etherType"), const(ETHERTYPE_GALLIUM)),
        ]
        for field in self.program.shim_to_server.fields:
            target = path(f"{TO_SERVER}.{identifier(field.name)}")
            if field.name == INGRESS_PORT_FIELD:
                value = ("cast", field.width_bits, self.ingress)
            else:
                value = scratch(self.offsets, field.name, field.width_bits)
            out.append(("set", target, value))
        out.append(("set", path(EGRESS), const(SERVER_PORT)))
        return out

    def guard(self, guard) -> Guard:
        return tuple(
            tuple((self.operand(cond, 1), arm) for cond, arm in conjunction)
            for conjunction in guard
        )

    def pipeline(self) -> Pipeline:
        ops: List[Tuple[int, Guard, Statement]] = []
        post = self.side == "post"
        if post:  # the returning shim's registers, before the first op
            for field in self.program.shim_to_switch.fields:
                if field.name not in RESERVED_FIELDS:
                    ops.append((0, ALWAYS, (
                        "set", scratch(self.offsets, field.name,
                                       field.width_bits),
                        path(f"{TO_SWITCH}.{identifier(field.name)}"),
                    )))
        for inst, stage, guard in self.staged:
            # A branch's condition is the guards'; post ends by falling
            # out of its branch.
            if isinstance(inst, (irin.Branch, irin.Jump)) or (
                post and isinstance(inst, irin.Return)
            ):
                continue
            printed = self.guard(guard)
            ops.extend((stage, printed, s) for s in self.statements(inst))
        if post:
            ops.append((0, ALWAYS, ("valid", TO_SWITCH, False)))
        blocks = tuple(sorted({stage for _, stage, _ in self.staged} - {0}))
        return Pipeline(blocks, tuple(ops))


def _visible(offsets, lookup) -> Expr:
    """The write-back visibility bit's slice: the low bit of the
    lookup's first result, which either table's action then writes."""
    first = lookup.found if isinstance(lookup, irin.MapFind) else lookup.dst
    return scratch(offsets, first.name, 1)


def _table(program: SwitchProgram, name: str, lookup, offsets) -> Table:
    spec = program.tables[name]
    if isinstance(lookup, irin.MapFind):
        keys, found, value = lookup.keys, lookup.found, lookup.value
    else:
        keys, found, value = (lookup.index,), None, lookup.dst
    key_slices = tuple(
        _operand(offsets, key, bits) if isinstance(key, Const)
        or key.bits == bits else ("cast", bits, _operand(offsets, key))
        for key, bits in zip(keys, spec.key_widths)
    )
    width = max(spec.value_width, 1)  # P4 has no bit<0>
    hit, miss = [], []
    if found is not None:
        hit.append(("set", _operand(offsets, found), const(1)))
        miss.append(("set", _operand(offsets, found), const(0)))
    if value is not None:
        param = path("value")
        hit.append(("set", _operand(offsets, value), param if value.bits
                    == width else ("cast", value.bits, param)))
    companion = None
    if spec.replicated:
        # A sixteenth of the table, at least 16 entries, keyed on the
        # visibility bit: a cleared bit matches nothing.
        companion = (
            (_visible(offsets, lookup), *key_slices),
            max(spec.size // 16, 16),
        )
    return Table(key_slices, width, max(spec.size, 1), tuple(hit),
                 tuple(miss), companion)


def expected(program: SwitchProgram) -> Printed:
    """What :func:`read` should return for ``program``'s P4 text."""
    sides = {side: _Expected(program, side) for side in ("pre", "post")}
    headers = []
    for member, _ in MEMBERS:
        if member.startswith("shim_"):
            layout = (program.shim_to_server if member == "shim_to_server"
                      else program.shim_to_switch)
            fields = [(identifier(f.name), f.width_bits)
                      for f in layout.fields]
            pad = layout.byte_size * 8 - layout.total_bits
            fields += [("_pad", pad)] * (pad > 0) + [("innerEtherType", 16)]
        else:
            fields = WIRE_HEADERS[member]
        headers += [(f"hdr.{member}.{name}", width) for name, width in fields]
    lookups = {
        inst.state: (inst, expect.offsets)
        for expect in sides.values() for inst, _, _ in expect.staged
        if isinstance(inst, (irin.MapFind, irin.VectorGet))
    }
    post = sides["post"]
    return Printed(
        name=program.name,
        headers=tuple(headers),
        # pre and post overlay one scratch area: a packet runs one of them
        scratch_bits=8 * max(expect.bytes for expect in sides.values()),
        tables={
            identifier(name): _table(program, name, *lookups[name])
            for name in sorted(program.tables)
        },
        registers={
            identifier(name): spec.width_bits
            for name, spec in program.registers.items()
        },
        pipelines={side: expect.pipeline() for side, expect in sides.items()},
        verdicts={
            FLAG_VERDICT_DROP: (("drop",),),
            FLAG_VERDICT_SEND: (
                ("set", path(EGRESS), leaves(
                    path(f"{TO_SWITCH}.{EGRESS_PORT_FIELD}"), post.ingress)),
                ("valid", TO_SWITCH, False),
            ),
        },
    )
