"""DESIGN.md's Click-API table is held to the code that decides.

The paper's §4.1 annotation table (what each Click API reads, writes and
whether P4 can do it) has no copy in this repository: the compiler
consults ``reads()`` / ``writes()`` / ``p4_supported()`` of the IR
instruction each API lowers to, and ``EXTERN_SPECS`` for host functions.
DESIGN.md says so with a table; in the manner of
``tests/verify/test_code_registry.py`` this file keeps it true:

* every row's API lowers (a probe per API, below) to the instruction the
  row names, and that instruction reads and writes the non-register
  locations the row lists and answers ``p4_supported()`` as its last
  column says ("server only" or a P4 construct);
* every API the lowering accepts — the method names ``_lower_packet_call``
  and ``_lower_state_call`` compare against, read off their source, and
  every extern — has a row;
* no row names an API the lowering rejects (its probe would not lower).
"""

import ast
import inspect
import re
from pathlib import Path
from typing import List, NamedTuple, Set

import pytest

from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.externs import EXTERN_SPECS
from repro.ir.lowering import LoweringError, _MethodLowering
from repro.ir.values import ALL_PACKET_REGIONS, LocKind, Location
from repro.lang import parse_program

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

MEMBERS = """
  HashMap<uint16_t, uint32_t> m;
  Vector<uint32_t> v;
  uint32_t s;
"""

#: API (as the table's first column spells it) -> (process body, the
#: member it is called on, the region it touches)
PROBES = {
    "Packet::network_header":
        ("iphdr *h = pkt->network_header(); uint8_t x = h->ttl;", "", "ip"),
    "Packet::transport_header":
        ("tcphdr *h = pkt->transport_header(); uint16_t x = h->sport;",
         "", "tcp"),
    "Packet::tcp_header":
        ("tcphdr *h = pkt->tcp_header(); uint16_t x = h->sport;", "", "tcp"),
    "Packet::udp_header":
        ("udphdr *h = pkt->udp_header(); uint16_t x = h->len;", "", "udp"),
    "Packet::ether_header":
        ("ethhdr *h = pkt->ether_header(); uint16_t x = h->h_proto;",
         "", "eth"),
    "h->f": ("iphdr *h = pkt->network_header(); uint8_t x = h->ttl;",
             "", "ip"),
    "h->f = v": ("udphdr *h = pkt->udp_header(); h->sport = 7;", "", "udp"),
    "Packet::ingress_port": ("uint8_t x = pkt->ingress_port();", "", ""),
    "Packet::length": ("uint32_t x = pkt->length();", "", ""),
    "Packet::send": ("", "", ""),
    "Packet::send_to": ("pkt->send_to(2);", "", ""),
    "Packet::drop": ("pkt->drop();", "", ""),
    "HashMap::find": ("uint16_t k = 1; uint32_t *p = m.find(&k);", "m", ""),
    "HashMap::contains": ("uint16_t k = 1; bool b = m.contains(&k);",
                          "m", ""),
    "HashMap::insert": ("uint16_t k = 1; uint32_t x = 2; m.insert(&k, &x);",
                        "m", ""),
    "HashMap::erase": ("uint16_t k = 1; m.erase(&k);", "m", ""),
    "Vector::at": ("uint32_t x = v.at(0);", "v", ""),
    "Vector::operator[]": ("uint32_t x = v[0];", "v", ""),
    "Vector::size": ("uint32_t x = v.size();", "v", ""),
    "Vector::push_back": ("v.push_back(3);", "v", ""),
    "m": ("uint32_t x = s;", "s", ""),
    "m = v": ("s = 5;", "s", ""),
    "m += c": ("s += 1;", "s", ""),
    "payload_len": ("uint32_t x = payload_len(pkt);", "", ""),
    "payload_byte": ("uint8_t x = payload_byte(pkt, 0);", "", ""),
    "now_sec": ("uint32_t x = now_sec();", "", ""),
    "config_len": ("uint32_t x = config_len(0);", "", ""),
    "config_u32": ("uint32_t x = config_u32(0, 0);", "", ""),
    "log_event": ("log_event(1);", "", ""),
}

#: what the lowering refuses although a Click element could call it (the
#: deleted annotation table listed the first three as annotated)
REJECTED = {
    "Packet::payload": "uint8_t *p = pkt->payload();",
    "HashMap::size": "uint32_t x = m.size();",
    "Vector::set": "v.set(0, 1);",
    "Packet::frobnicate": "pkt->frobnicate();",
}


def lower(body: str):
    """``body`` as a whole ``process``: it ends in ``send()`` unless it
    brought its own verdict."""
    if not body.startswith(("pkt->send_to(", "pkt->drop(")):
        body += "\n    pkt->send();"
    source = (f"class Probe {{{MEMBERS}  void process(Packet *pkt) {{\n"
              f"    {body}\n  }}\n}};")
    return lower_program(parse_program(source)).process


class Row(NamedTuple):
    apis: List[str]
    #: the back-ticked names of the second column: instruction classes,
    #: or for the header accessors the region each one names
    names: List[str]
    reads: List[str]
    writes: List[str]
    switch: str


def _ticked(cell: str) -> List[str]:
    return re.findall(r"`([^`]+)`", cell)


def table() -> List[Row]:
    lines = DESIGN.read_text(encoding="utf-8").splitlines()
    start = lines.index("### Where the §4.1 annotations live")
    rows = []
    for line in lines[start:]:
        if line.startswith("## "):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 5:
            api, inst, reads, writes, switch = cells
            rows.append(Row(_ticked(api), _ticked(inst), _ticked(reads),
                            _ticked(writes), switch))
    return rows


ROWS = table()
CASES = [(api, row) for row in ROWS for api in row.apis]


def _locations(tokens: List[str], member: str, region: str) -> Set[str]:
    """The row's location tokens, spelled for one probe."""
    out: Set[str] = set()
    for token in tokens:
        if token == "packet:*":
            out |= {str(Location.packet(r)) for r in ALL_PACKET_REGIONS}
        elif token == "packet:R":
            out.add(str(Location.packet(region)))
        else:
            out.add(token.replace("state:M", f"state:{member}"))
    return out


def _non_register(locations) -> Set[str]:
    return {str(loc) for loc in locations if loc.kind is not LocKind.VAR}


def test_the_table_is_there():
    assert len(ROWS) >= 15 and {api for api, _ in CASES} == set(PROBES)


@pytest.mark.parametrize("api, row", CASES, ids=[api for api, _ in CASES])
def test_row_says_what_the_instruction_answers(api, row):
    body, member, region = PROBES[api]
    function = lower(body)
    # One name per API of the row, in order (`Send`, `SendTo`, `Drop`),
    # or one for all of them (`MapFind`).
    name = row.names[row.apis.index(api) if len(row.names) > 1 else 0]
    if not hasattr(irin, name):
        # A header accessor: no instruction of its own; the region it
        # names shows in the access made through the pointer.
        loads = [inst.region for inst in function.instructions()
                 if isinstance(inst, irin.LoadPacketField)]
        assert loads == [name] == [region]
        return
    inst = next(inst for inst in function.instructions()
                if type(inst).__name__ == name)
    assert _non_register(inst.reads()) == _locations(row.reads, member, region)
    assert _non_register(inst.writes()) == _locations(
        row.writes, member, region)
    assert inst.p4_supported() == (not row.switch.startswith("server only"))


def _compared_names(node: ast.AST) -> Set[str]:
    """Every string ``name`` is compared with under ``node``."""
    found: Set[str] = set()
    for compare in ast.walk(node):
        if (isinstance(compare, ast.Compare)
                and isinstance(compare.left, ast.Name)
                and compare.left.id == "name"):
            for comparator in compare.comparators:
                elements = (comparator.elts
                            if isinstance(comparator, ast.Tuple)
                            else [comparator])
                found |= {e.value for e in elements
                          if isinstance(e, ast.Constant)}
    return found


def _method(name: str) -> ast.FunctionDef:
    source = inspect.getsource(getattr(_MethodLowering, name))
    return ast.parse(inspect.cleandoc("\n" + source)).body[0]


def accepted_by_the_lowering() -> Set[str]:
    accepted = {f"Packet::{name}"
                for name in _compared_names(_method("_lower_packet_call"))}
    for branch in _method("_lower_state_call").body:
        if isinstance(branch, ast.If):
            kind = branch.test.comparators[0].value  # member.kind == "..."
            owner = {"map": "HashMap", "vector": "Vector"}[kind]
            accepted |= {f"{owner}::{name}"
                         for name in _compared_names(branch)}
    return accepted | set(EXTERN_SPECS)


def test_every_api_the_lowering_accepts_has_a_row():
    accepted = accepted_by_the_lowering()
    assert {"Packet::ingress_port", "HashMap::find", "Vector::size",
            "now_sec"} <= accepted  # the extraction found the ladders
    assert accepted <= set(PROBES)


@pytest.mark.parametrize("api", sorted(REJECTED))
def test_no_row_for_what_the_lowering_rejects(api):
    assert api not in PROBES
    with pytest.raises(LoweringError):
        lower(REJECTED[api])


# -- what tests/click/test_substrate.py::TestAnnotations asserted ------------


def _row_of(api: str) -> Row:
    return next(row for name, row in CASES if name == api)


def test_find_is_a_table_lookup():
    assert "table.apply()" in _row_of("HashMap::find").switch
    find = next(inst for inst in lower(PROBES["HashMap::find"][0])
                .instructions() if isinstance(inst, irin.MapFind))
    assert find.p4_supported()
    assert not any(loc.is_global for loc in find.writes())


def test_insert_is_server_side_and_writes_the_map():
    assert _row_of("HashMap::insert").switch.startswith("server only")
    insert = next(inst for inst in lower(PROBES["HashMap::insert"][0])
                  .instructions() if isinstance(inst, irin.MapInsert))
    assert not insert.p4_supported()
    assert Location.state("m") in insert.writes()


def test_payload_is_not_offloadable():
    """The pointer accessor is outside the subset; the byte accessors
    are externs no switch runs."""
    with pytest.raises(LoweringError):
        lower(REJECTED["Packet::payload"])
    for api in ("payload_len", "payload_byte"):
        call = next(inst for inst in lower(PROBES[api][0]).instructions()
                    if isinstance(inst, irin.ExternCall))
        assert not call.p4_supported()
        assert Location.packet("payload") in call.reads()
