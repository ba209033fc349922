"""Seeded random middlebox-program generator.

Programs are built as a small statement tree (not raw text) so the
shrinker can drop statements, unwrap branches, and rewrite constants
structurally; ``GenProgram.source()`` renders the tree to the ``repro.lang``
C++ subset.

The generated space deliberately covers the corners the hand-written
middleboxes avoid: 8/16-bit header fields (``ttl``, ``tos``, ``flags``),
UDP headers, 1-3 hash maps with hit/miss/insert/erase arms, nested
conditionals, arithmetic wrap-around, constants wider than 16 bits,
``drop``/``send``/``send_to`` verdicts, register read-modify-writes, and
long dependent ALU chains that straddle ``SwitchResources.pipeline_depth``.

Generation is fully deterministic given a ``random.Random`` seed: the same
seed always yields the same program, which is what makes a gauntlet
failure reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.fields import FIELD_WIDTHS

# -- the field universe ------------------------------------------------------

# FIELD_WIDTHS ((region, field) -> bit width) leaves out the 4-bit fields
# (version/ihl/doff): the subset has no masked sub-byte stores, so writing
# them is not meaningful middlebox code.  The lists below keep its order —
# the seeded draws index them.


def _fields(region: str, *unwritten: str) -> List[str]:
    return [
        name for field_region, name in FIELD_WIDTHS
        if field_region == region and name not in unwritten
    ]


IP_READ = _fields("ip")
# What fixes the packet's shape (its L4 protocol, its lengths) is read,
# never written.
IP_WRITE = _fields("ip", "protocol", "tot_len")
TCP_READ = TCP_WRITE = _fields("tcp")
UDP_READ = _fields("udp")
UDP_WRITE = _fields("udp", "len")

# Boundary-heavy constant pool; wider-than-16-bit values included on purpose.
INTERESTING_CONSTANTS = [
    0, 1, 2, 3, 5, 7, 8, 15, 16, 63, 64, 127, 128, 255, 256,
    4095, 32768, 65535, 65536, 0xDEAD, 0xDEADBEEF, 0x7FFFFFFF,
    0x80000000, 0xFFFFFFFF, 0x100000000,
]

ARITH_OPS = ["+", "-", "*", "&", "|", "^"]
COMPARE_OPS = ["==", "!=", "<", "<=", ">", ">="]
SEND_TO_PORTS = [0, 1, 2, 4, 7]
MAP_SIZES = [2, 4, 64, 4096, 65536, 1 << 20]

_INDENT = "  "


# -- program tree ------------------------------------------------------------


@dataclass
class MapSpec:
    name: str
    key_width: int
    value_width: int
    max_entries: int
    # Canonical key derivation shared by most lookups/inserts so keys
    # collide across packets (otherwise every lookup would miss).
    recipe: str = "0"


class Stmt:
    """Base statement node; subclasses carry expression-string slots."""

    EXPR_ATTRS: Tuple[str, ...] = ()

    def lines(self, indent: int) -> List[str]:
        raise NotImplementedError

    def blocks(self) -> List[List["Stmt"]]:
        """Nested statement lists, for shrinker traversal."""
        return []

    def terminates(self) -> bool:
        """True when every path through this statement reaches a verdict."""
        return False


def _block_terminates(stmts: Sequence[Stmt]) -> bool:
    return bool(stmts) and stmts[-1].terminates()


def _render_block(stmts: Sequence[Stmt], indent: int) -> List[str]:
    out: List[str] = []
    for stmt in stmts:
        out.extend(stmt.lines(indent))
    return out


@dataclass
class Let(Stmt):
    name: str
    width: int
    expr: str

    EXPR_ATTRS = ("expr",)

    def lines(self, indent: int) -> List[str]:
        return [f"{_INDENT * indent}uint{self.width}_t {self.name} = {self.expr};"]


@dataclass
class SetField(Stmt):
    region: str  # "ip" | "tcp" | "udp"
    field_name: str
    expr: str

    EXPR_ATTRS = ("expr",)

    def lines(self, indent: int) -> List[str]:
        return [f"{_INDENT * indent}{self.region}->{self.field_name} = {self.expr};"]


@dataclass
class ScalarUpdate(Stmt):
    name: str
    op: str  # "=", "+=", "-=", "^=", "&=", "|="
    expr: str

    EXPR_ATTRS = ("expr",)

    def lines(self, indent: int) -> List[str]:
        return [f"{_INDENT * indent}{self.name} {self.op} {self.expr};"]


@dataclass
class MapInsert(Stmt):
    map_name: str
    key_width: int
    value_width: int
    key_expr: str
    value_expr: str
    uid: int

    EXPR_ATTRS = ("key_expr", "value_expr")

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        return [
            f"{pad}uint{self.key_width}_t k{self.uid} = (uint{self.key_width}_t)({self.key_expr});",
            f"{pad}uint{self.value_width}_t v{self.uid} = (uint{self.value_width}_t)({self.value_expr});",
            f"{pad}{self.map_name}.insert(&k{self.uid}, &v{self.uid});",
        ]


@dataclass
class MapErase(Stmt):
    map_name: str
    key_width: int
    key_expr: str
    uid: int

    EXPR_ATTRS = ("key_expr",)

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        return [
            f"{pad}uint{self.key_width}_t k{self.uid} = (uint{self.key_width}_t)({self.key_expr});",
            f"{pad}{self.map_name}.erase(&k{self.uid});",
        ]


@dataclass
class MapLookup(Stmt):
    map_name: str
    key_width: int
    value_width: int
    key_expr: str
    uid: int
    hit: List[Stmt] = field(default_factory=list)
    miss: List[Stmt] = field(default_factory=list)

    EXPR_ATTRS = ("key_expr",)

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        out = [
            f"{pad}uint{self.key_width}_t k{self.uid} = (uint{self.key_width}_t)({self.key_expr});",
            f"{pad}uint{self.value_width}_t *h{self.uid} = {self.map_name}.find(&k{self.uid});",
            f"{pad}if (h{self.uid} != NULL) {{",
        ]
        out.extend(_render_block(self.hit, indent + 1))
        out.append(f"{pad}}} else {{")
        out.extend(_render_block(self.miss, indent + 1))
        out.append(f"{pad}}}")
        return out

    def blocks(self) -> List[List[Stmt]]:
        return [self.hit, self.miss]

    def terminates(self) -> bool:
        return _block_terminates(self.hit) and _block_terminates(self.miss)


@dataclass
class If(Stmt):
    cond: str
    then: List[Stmt] = field(default_factory=list)
    els: List[Stmt] = field(default_factory=list)

    EXPR_ATTRS = ("cond",)

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        out = [f"{pad}if ({self.cond}) {{"]
        out.extend(_render_block(self.then, indent + 1))
        if self.els:
            out.append(f"{pad}}} else {{")
            out.extend(_render_block(self.els, indent + 1))
        out.append(f"{pad}}}")
        return out

    def blocks(self) -> List[List[Stmt]]:
        return [self.then, self.els]

    def terminates(self) -> bool:
        return _block_terminates(self.then) and _block_terminates(self.els)


@dataclass
class ForLoop(Stmt):
    var: str
    trips: int
    body: List[Stmt] = field(default_factory=list)

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        out = [
            f"{pad}for (uint32_t {self.var} = 0; {self.var} < {self.trips};"
            f" {self.var} = {self.var} + 1) {{"
        ]
        out.extend(_render_block(self.body, indent + 1))
        out.append(f"{pad}}}")
        return out

    def blocks(self) -> List[List[Stmt]]:
        return [self.body]


@dataclass
class Verdict(Stmt):
    kind: str  # "send" | "drop" | "send_to"
    port: int = 0

    def lines(self, indent: int) -> List[str]:
        pad = _INDENT * indent
        if self.kind == "send_to":
            return [f"{pad}pkt->send_to({self.port});"]
        return [f"{pad}pkt->{self.kind}();"]

    def terminates(self) -> bool:
        return True


@dataclass
class GenProgram:
    """A generated middlebox: class members plus the ``process`` body."""

    name: str = "DiffTestBox"
    maps: List[MapSpec] = field(default_factory=list)
    scalars: List[str] = field(default_factory=list)
    use_tcp: bool = True
    use_udp: bool = False
    body: List[Stmt] = field(default_factory=list)
    seed: Optional[int] = None
    #: declared width per scalar (bits); absent -> 32.  Narrow counters
    #: pin the width-wrap semantics (stores mask to the member width).
    scalar_widths: Dict[str, int] = field(default_factory=dict)

    def source(self) -> str:
        lines: List[str] = []
        if self.seed is not None:
            lines.append(f"// generated by repro.difftest (seed={self.seed})")
        lines.append(f"class {self.name} {{")
        for spec in self.maps:
            lines.append(f"{_INDENT}// @gallium: max_entries={spec.max_entries}")
            lines.append(
                f"{_INDENT}HashMap<uint{spec.key_width}_t,"
                f" uint{spec.value_width}_t> {spec.name};"
            )
        for scalar in self.scalars:
            width = self.scalar_widths.get(scalar, 32)
            lines.append(f"{_INDENT}uint{width}_t {scalar};")
        lines.append("")
        lines.append(f"{_INDENT}void process(Packet *pkt) {{")
        lines.append(f"{_INDENT * 2}iphdr *ip = pkt->network_header();")
        if self.use_tcp:
            lines.append(f"{_INDENT * 2}tcphdr *tcp = pkt->tcp_header();")
        if self.use_udp:
            lines.append(f"{_INDENT * 2}udphdr *udp = pkt->udp_header();")
        lines.extend(_render_block(self.body, 2))
        lines.append(f"{_INDENT}}}")
        lines.append("};")
        return "\n".join(lines) + "\n"

    def all_blocks(self) -> List[List[Stmt]]:
        """Every statement list in the tree, outermost first."""
        found: List[List[Stmt]] = [self.body]
        frontier = [self.body]
        while frontier:
            block = frontier.pop(0)
            for stmt in block:
                for child in stmt.blocks():
                    found.append(child)
                    frontier.append(child)
        return found


# -- generation --------------------------------------------------------------


@dataclass
class _Ctx:
    """Lexical scope during generation."""

    vars: List[Tuple[str, int]] = field(default_factory=list)  # (name, width)
    derefs: List[Tuple[int, int]] = field(default_factory=list)  # (uid, value_width)

    def child(self) -> "_Ctx":
        return _Ctx(list(self.vars), list(self.derefs))


class ProgramGenerator:
    """Derives one random program from a ``random.Random`` stream."""

    MAX_DEPTH = 3

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._uid = 0
        self.program = GenProgram()

    def _next_uid(self) -> int:
        self._uid += 1
        return self._uid

    # -- expressions ---------------------------------------------------------

    def _read_fields(self) -> List[Tuple[str, str]]:
        fields = [("ip", f) for f in IP_READ]
        if self.program.use_tcp:
            fields += [("tcp", f) for f in TCP_READ]
        if self.program.use_udp:
            fields += [("udp", f) for f in UDP_READ]
        return fields

    def _write_fields(self) -> List[Tuple[str, str]]:
        fields = [("ip", f) for f in IP_WRITE]
        if self.program.use_tcp:
            fields += [("tcp", f) for f in TCP_WRITE]
        if self.program.use_udp:
            fields += [("udp", f) for f in UDP_WRITE]
        return fields

    def _constant(self) -> str:
        rng = self.rng
        if rng.random() < 0.75:
            value = rng.choice(INTERESTING_CONSTANTS)
        else:
            value = rng.getrandbits(rng.choice([8, 16, 32]))
        if value > 0xFFFF and rng.random() < 0.5:
            return hex(value)
        return str(value)

    def _atom(self, ctx: _Ctx, no_calls: bool = False) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.30 and ctx.vars:
            return rng.choice(ctx.vars)[0]
        if roll < 0.60:
            region, fname = rng.choice(self._read_fields())
            return f"{region}->{fname}"
        if roll < 0.66 and self.program.scalars:
            return rng.choice(self.program.scalars)
        if roll < 0.70 and ctx.derefs:
            uid, _ = rng.choice(ctx.derefs)
            return f"(*h{uid})"
        if roll < 0.74 and not no_calls:
            return rng.choice(["pkt->ingress_port()", "pkt->length()"])
        return self._constant()

    def expr(self, ctx: _Ctx, depth: int = 0, no_calls: bool = False) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.40:
            return self._atom(ctx, no_calls)
        if roll < 0.82:
            op = rng.choice(ARITH_OPS)
            return (
                f"({self.expr(ctx, depth + 1, no_calls)} {op}"
                f" {self.expr(ctx, depth + 1, no_calls)})"
            )
        if roll < 0.88:
            op = rng.choice(["<<", ">>"])
            return f"({self.expr(ctx, depth + 1, no_calls)} {op} {rng.randrange(0, 32)})"
        if roll < 0.92:
            op = rng.choice(["/", "%"])
            return (
                f"({self.expr(ctx, depth + 1, no_calls)} {op}"
                f" {self.expr(ctx, depth + 1, no_calls)})"
            )
        if roll < 0.96:
            return f"(~{self.expr(ctx, depth + 1, no_calls)})"
        width = rng.choice([8, 16, 32])
        return f"(uint{width}_t)({self.expr(ctx, depth + 1, no_calls)})"

    def condition(self, ctx: _Ctx) -> str:
        rng = self.rng

        def compare(no_calls: bool = False) -> str:
            op = rng.choice(COMPARE_OPS)
            return (
                f"{self.expr(ctx, 1, no_calls)} {op}"
                f" {self.expr(ctx, 1, no_calls)}"
            )

        if rng.random() < 0.15:
            # The subset forbids calls inside short-circuit operands.
            joiner = rng.choice(["&&", "||"])
            return f"({compare(True)}) {joiner} ({compare(True)})"
        return compare()

    # -- statements ----------------------------------------------------------

    def _verdict(self) -> Verdict:
        roll = self.rng.random()
        if roll < 0.55:
            return Verdict("send")
        if roll < 0.85:
            return Verdict("drop")
        return Verdict("send_to", self.rng.choice(SEND_TO_PORTS))

    def _map_key_expr(self, spec: MapSpec, ctx: _Ctx) -> str:
        if self.rng.random() < 0.75:
            return spec.recipe
        return self.expr(ctx)

    def _gen_map_lookup(self, ctx: _Ctx, depth: int, terminate: bool) -> MapLookup:
        rng = self.rng
        spec = rng.choice(self.program.maps)
        node = MapLookup(
            map_name=spec.name,
            key_width=spec.key_width,
            value_width=spec.value_width,
            key_expr=self._map_key_expr(spec, ctx),
            uid=self._next_uid(),
        )
        hit_ctx = ctx.child()
        hit_ctx.derefs.append((node.uid, spec.value_width))
        if terminate:
            node.hit = self.block(hit_ctx, depth + 1, terminate=True)
            node.miss = self.block(ctx.child(), depth + 1, terminate=True)
        else:
            # At most one arm may terminate, else following statements
            # become unreachable (a lowering error, not a middlebox).
            arm = rng.randrange(3)  # 0: neither, 1: hit, 2: miss
            node.hit = self.block(hit_ctx, depth + 1, terminate=arm == 1)
            node.miss = self.block(ctx.child(), depth + 1, terminate=arm == 2)
        return node

    def _gen_if(self, ctx: _Ctx, depth: int, terminate: bool) -> If:
        rng = self.rng
        node = If(cond=self.condition(ctx))
        if terminate:
            node.then = self.block(ctx.child(), depth + 1, terminate=True)
            node.els = self.block(ctx.child(), depth + 1, terminate=True)
        else:
            arm = rng.randrange(4)  # 0/1: neither, 2: then, 3: else
            node.then = self.block(ctx.child(), depth + 1, terminate=arm == 2)
            node.els = (
                self.block(ctx.child(), depth + 1, terminate=arm == 3)
                if (arm == 3 or rng.random() < 0.6)
                else []
            )
        return node

    def _gen_alu_chain(self, ctx: _Ctx) -> List[Stmt]:
        """A long dependent ALU chain to straddle the pipeline-depth limit."""
        rng = self.rng
        name = f"acc{self._next_uid()}"
        out: List[Stmt] = [Let(name, 32, self._atom(ctx))]
        for _ in range(rng.randrange(15, 40)):
            op = rng.choice(ARITH_OPS)
            out.append(ScalarUpdate(name, "=", f"({name} {op} {self._constant()})"))
        ctx.vars.append((name, 32))
        return out

    def statement(self, ctx: _Ctx, depth: int) -> List[Stmt]:
        """One non-terminating statement (possibly rendered as a few lines)."""
        rng = self.rng
        program = self.program
        roll = rng.random()
        if roll < 0.25:
            name = f"x{self._next_uid()}"
            width = rng.choice([8, 16, 32, 32])
            stmt = Let(name, width, self.expr(ctx))
            ctx.vars.append((name, width))
            return [stmt]
        if roll < 0.45:
            region, fname = rng.choice(self._write_fields())
            return [SetField(region, fname, self.expr(ctx))]
        if roll < 0.55 and program.scalars:
            name = rng.choice(program.scalars)
            op = rng.choice(["=", "+=", "-=", "^=", "&=", "|="])
            expr = self._constant() if rng.random() < 0.5 else self.expr(ctx)
            return [ScalarUpdate(name, op, expr)]
        if roll < 0.70 and program.maps:
            spec = rng.choice(program.maps)
            if rng.random() < 0.70:
                return [
                    MapInsert(
                        spec.name,
                        spec.key_width,
                        spec.value_width,
                        self._map_key_expr(spec, ctx),
                        self.expr(ctx),
                        self._next_uid(),
                    )
                ]
            return [
                MapErase(
                    spec.name, spec.key_width, self._map_key_expr(spec, ctx),
                    self._next_uid(),
                )
            ]
        if roll < 0.80 and program.maps and depth < self.MAX_DEPTH:
            return [self._gen_map_lookup(ctx, depth, terminate=False)]
        if roll < 0.92 and depth < self.MAX_DEPTH:
            return [self._gen_if(ctx, depth, terminate=False)]
        if roll < 0.95 and depth == 0:
            var = f"i{self._next_uid()}"
            body_ctx = ctx.child()
            body_ctx.vars.append((var, 32))
            body: List[Stmt] = []
            for _ in range(rng.randrange(1, 3)):
                region, fname = rng.choice(self._write_fields())
                if rng.random() < 0.5 and program.scalars:
                    body.append(
                        ScalarUpdate(rng.choice(program.scalars), "+=", var)
                    )
                else:
                    body.append(SetField(region, fname, self.expr(body_ctx)))
            return [ForLoop(var, rng.randrange(2, 5), body)]
        name = f"x{self._next_uid()}"
        stmt = Let(name, 32, self.expr(ctx))
        ctx.vars.append((name, 32))
        return [stmt]

    def terminator(self, ctx: _Ctx, depth: int) -> Stmt:
        rng = self.rng
        roll = rng.random()
        if depth >= self.MAX_DEPTH or roll < 0.55 or not self.program.maps:
            return self._verdict()
        if roll < 0.75:
            return self._gen_map_lookup(ctx, depth, terminate=True)
        return self._gen_if(ctx, depth, terminate=True)

    def block(self, ctx: _Ctx, depth: int, terminate: bool) -> List[Stmt]:
        rng = self.rng
        if depth == 0:
            count = rng.randrange(3, 9)
        else:
            count = rng.randrange(0, 4)
        out: List[Stmt] = []
        for _ in range(count):
            out.extend(self.statement(ctx, depth))
        if depth == 0 and rng.random() < 0.10:
            out.extend(self._gen_alu_chain(ctx))
        if terminate:
            out.append(self.terminator(ctx, depth))
        return out

    # -- whole programs ------------------------------------------------------

    def _make_map(self, index: int) -> MapSpec:
        rng = self.rng
        key_width = rng.choice([8, 16, 32])
        spec = MapSpec(
            name=f"m{index}",
            key_width=key_width,
            value_width=rng.choice([16, 32]),
            max_entries=rng.choice(MAP_SIZES),
        )
        # Keys derive from a masked header field so streams actually hit.
        region, fname = rng.choice(self._read_fields())
        mask = rng.choice([0x1, 0x3, 0x7, 0xF])
        spec.recipe = f"({region}->{fname} & {mask})"
        return spec

    def generate(self) -> GenProgram:
        rng = self.rng
        program = self.program
        program.use_tcp = rng.random() < 0.75
        program.use_udp = rng.random() < (0.8 if not program.use_tcp else 0.3)
        for index in range(rng.choice([0, 1, 1, 1, 2, 2, 3])):
            program.maps.append(self._make_map(index))
        for index in range(rng.choice([0, 0, 1, 1, 2])):
            name = f"ctr{index}"
            program.scalars.append(name)
            # Mostly 32-bit, but narrow counters keep the width-wrap
            # (store masks to member width) semantics under test.
            program.scalar_widths[name] = rng.choice([8, 16, 32, 32, 32])
        program.body = self.block(_Ctx(), 0, terminate=True)
        return program


def generate_program(seed: int) -> GenProgram:
    """The gauntlet entry point: seed -> program (deterministic)."""
    generator = ProgramGenerator(random.Random(seed))
    program = generator.generate()
    program.seed = seed
    return program

