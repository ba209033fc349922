"""The decoded evaluator's edges, held to what the per-instruction ladder
it replaced did.

Each digest or text below was recorded on the ladder, before the
evaluator decoded an instruction once and cached the result on it.  The
edges are the ones a latency model, a tracer or a prover reads:

* the deep-trace JSON bytes of ``repro trace <mb> --packets 4 --deep
  --json`` for every bundled middlebox (``exec`` records by position,
  ``packet_write`` events, state events, in order; the switch's
  re-recorded when it came to run its stage order);
* a runaway loop stopped by the step limit: the same exception at the
  same step, with the same partial state and journal, in both domains;
* the ``collect_ids`` order, in both domains;
* the undefined-register message, in both domains;
* the per-operator table against the ladder's ``_apply_binop`` over a
  value grid with DIV and MOD by 0 and shifts of 64 and more.

Three more tests hold the cache itself: the op stays on the instruction
and makes no cycle, a block edited in place runs its new instruction, and
runs that alternate domains decode an instruction once per domain.

Run as a module to print the values this tree computes::

    PYTHONPATH=src python -m tests.ir.test_decoded_evaluator
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
from collections import Counter
from itertools import islice
from typing import Dict, List

import pytest

from repro.cli import main as cli_main
from repro.ir import instructions as irin
from repro.ir import interp, lower_program
from repro.ir.builder import FunctionBuilder
from repro.ir.externs import ExternHost
from repro.ir.instructions import BinOpKind, UnOpKind
from repro.ir.interp import (
    BINOPS,
    UNOPS,
    IntDomain,
    Interpreter,
    InterpreterError,
    PacketView,
    StateStore,
    _apply_binop,
    _apply_unop,
)
from repro.ir.values import Const, Reg
from repro.lang import parse_program
from repro.lang.types import UINT32
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.verify.symbolic.engine import (
    BudgetExhausted,
    SymExecError,
    SymExternHost,
    SymStateStore,
    TermDomain,
)
from repro.verify.symbolic.terms import const
from repro.workloads.iperf import IperfWorkload, middlebox_stream
from repro.workloads.packets import make_tcp_packet
from tests.verify.test_mirror_lockstep import symbolic_world

#: sha256 of each middlebox's ``repro trace --packets 4 --deep --json``
#: stdout.  The ladder printed the server's events; the switch's are the
#: staged run's since the interpreted switch runs its stage order (its
#: ``exec`` events in that order, each with its ``stage``).
DEEP_TRACES = {
    "minilb": "a1ebb848fd59ad6ade2a72ccd3bfbd1fea07273b5db0d78273016feb461b4a12",
    "mazunat": "1b87f1de7d81cff75338b39838b5ee0b8a71f6c1d9edbeca295e9a22226035db",
    "lb": "f320afc76001feaf444b8ba2dae35f2e71a93f81fd0a41f33a663cdcd6b023a4",
    "firewall": "e698d822867234c8b41aa2a2f4e8042d87bdcd7a581af69cf709c8c955182238",
    "proxy": "cb10810fccae764d27b354ab22b6f5e04110a0a170049eae73a1d626babb71bf",
    "trojan": "26602123571fdaa55f3154072d679b2baa2dc9111719e068a3e4e8ee8f89d763",
}

#: What the ladder computed for every operator over ``GRID`` x ``GRID``
#: (and every unary one over ``GRID``).
BINOP_GRID = "324a6440658122010964b540bbb2bc434a9453a07a26ef343ed877decdcbfd0b"
UNOP_GRID = "2cca01b98a40755fed51a5a1f94bf2a126b5d7c624f464d84292f97eb07ad618"
GRID = [0, 1, 2, 3, 7, 63, 64, 65, 255, 2**31, 2**32 - 1, 2**63, 2**64 - 1,
        2**64, -1, -5]

#: A loop the step limit must stop mid-body, after it has written state
#: and a header field.
RUNAWAY_MEMBERS = "uint32_t count; HashMap<uint32_t, uint32_t> seen;"
RUNAWAY = (
    "iphdr *ip = pkt->network_header();"
    " while (1) { count = count + 1; uint32_t k = count & 3;"
    " uint32_t v = count * 3; seen.insert(&k, &v);"
    " ip->ttl = (uint8_t)count; }"
    " pkt->send();"
)
#: Not a multiple of the loop's length, so the limit falls inside it.
RUNAWAY_STEPS = 97

#: The other edges as the ladder left them: digests of what the runaway
#: runs left behind and of the ``collect_ids`` orders, and the two texts.
EDGES = {
    "runaway_int":
        "e9af837e6a93b0d5617677191208fb9505a0cd5dbbae2dc8fcdc3adb594e1abb",
    "runaway_term":
        "8bfb1cfb43a68defbef9af569767a45d9dde45ebeeb838143de220293973d9b7",
    "ids_int":
        "d80f8f1672f84af0dfebb2cbbbc3ef570aab83ea85a46ecb8d85bb9e2a267e73",
    "ids_term":
        "fe41c73b8b7c4ed9d436b0e223042fb1bb48d79a4df4dd1b3e2e25631e7c7492",
    "undefined_int": "broken: read of undefined register %ghost",
    "undefined_term": "broken: read of undefined register %ghost",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def deep_trace(middlebox: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["trace", middlebox, "--packets", "4", "--deep", "--json"])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def binop_grid(apply=_apply_binop) -> str:
    h = hashlib.sha256()
    for op in BinOpKind:
        for a in GRID:
            for b in GRID:
                h.update(repr((op.name, a, b, apply(op, a, b))).encode())
    return h.hexdigest()


def unop_grid(apply=_apply_unop) -> str:
    h = hashlib.sha256()
    for op in UnOpKind:
        for a in GRID:
            h.update(repr((op.name, a, apply(op, a))).encode())
    return h.hexdigest()


def lower(statements: str, members: str = ""):
    return lower_program(parse_program(
        f"class T {{ {members} void process(Packet *pkt) {{ {statements} }} }};"
    ))


def _packet():
    return make_tcp_packet("10.0.0.1", "10.9.0.2", 1000, 80)


def _symbolic(packet, members):
    """A term-domain world for ``packet``: its view, store and chooser."""
    scenario, view, chooser = symbolic_world(packet, 1, {}, members, {})
    return view, SymStateStore(scenario.state, chooser), chooser


def runaway_int() -> str:
    class Short(IntDomain):
        max_steps = RUNAWAY_STEPS

    lowered = lower(RUNAWAY, RUNAWAY_MEMBERS)
    state = StateStore(lowered.state)
    packet = _packet()
    with pytest.raises(InterpreterError) as raised:
        Interpreter(lowered.process, state, domain=Short).run(
            PacketView(packet))
    return digest((type(raised.value).__name__, str(raised.value),
                   state.snapshot(), state.journal, bytes(packet.pack())))


def runaway_term() -> str:
    lowered = lower(RUNAWAY, RUNAWAY_MEMBERS)
    view, store, chooser = _symbolic(_packet(), lowered.state)
    with pytest.raises(BudgetExhausted) as raised:
        Interpreter(
            lowered.process, store, SymExternHost({}, chooser),
            TermDomain(chooser, RUNAWAY_STEPS),
        ).run(view)
    return digest((
        type(raised.value).__name__, str(raised.value),
        {name: [(tuple(map(str, keys)), str(value))
                for keys, value in entries]
         for name, entries in store.maps.items()},
        {name: str(value) for name, value in store.scalars.items()},
        [tuple(map(str, entry)) for entry in store.journal],
        sorted((key, str(term)) for key, term in view.fields.items()),
    ))


def _positions(function) -> Dict[int, tuple]:
    return {
        inst.id: (block.name, position)
        for block in function.blocks.values()
        for position, inst in enumerate(block.instructions)
    }


def ids_int() -> str:
    order: List[tuple] = []
    for name in MIDDLEBOX_NAMES:
        bundle = load(name)
        lowered = bundle.lowered
        state = StateStore(lowered.state)
        externs = ExternHost(config=bundle.config)
        if lowered.configure is not None:
            Interpreter(lowered.configure, state, externs).run()
        where = _positions(lowered.process)
        for packet, ingress in islice(
                middlebox_stream(name, IperfWorkload()), 4):
            packet.ingress_port = ingress
            result = Interpreter(lowered.process, state, externs).run(
                PacketView(packet), collect_ids=True)
            order.append((name, result.instructions_executed,
                          [where[i] for i in result.executed_ids]))
    return digest(order)


def ids_term() -> str:
    order: List[tuple] = []
    for name in MIDDLEBOX_NAMES:
        bundle = load(name)
        lowered = bundle.lowered
        state = StateStore(lowered.state)
        if lowered.configure is not None:
            Interpreter(lowered.configure, state,
                        ExternHost(config=bundle.config)).run()
        where = _positions(lowered.process)
        packet, ingress = next(middlebox_stream(name, IperfWorkload()))
        packet.ingress_port = ingress
        scenario, view, chooser = symbolic_world(
            packet, ingress, state.snapshot(), lowered.state, {})
        result = Interpreter(
            lowered.process, SymStateStore(scenario.state, chooser),
            SymExternHost(bundle.config, chooser),
            TermDomain(chooser, IntDomain.max_steps),
        ).run(view, collect_ids=True)
        order.append((name, result.instructions_executed,
                      [where[i] for i in result.executed_ids]))
    return digest(order)


def _ghost_reader():
    """``%t = 1 + %ghost``: the second operand was never written."""
    builder = FunctionBuilder("broken")
    dst = builder.fresh_temp(UINT32)
    builder.emit(irin.BinOp(dst, BinOpKind.ADD, Const(1, UINT32),
                            Reg("ghost", UINT32)))
    builder.emit(irin.Return())
    return builder.function


def undefined_int() -> str:
    with pytest.raises(InterpreterError) as raised:
        Interpreter(_ghost_reader(), StateStore({})).run()
    return str(raised.value)


def undefined_term() -> str:
    view, store, chooser = _symbolic(_packet(), {})
    with pytest.raises(SymExecError) as raised:
        Interpreter(_ghost_reader(), store, SymExternHost({}, chooser),
                    TermDomain(chooser, IntDomain.max_steps)).run(view)
    return str(raised.value)


EDGE_FUNCTIONS = {
    "runaway_int": runaway_int,
    "runaway_term": runaway_term,
    "ids_int": ids_int,
    "ids_term": ids_term,
    "undefined_int": undefined_int,
    "undefined_term": undefined_term,
}


@pytest.mark.parametrize("middlebox", sorted(DEEP_TRACES))
def test_deep_trace_bytes_unchanged(middlebox):
    assert deep_trace(middlebox) == DEEP_TRACES[middlebox]


@pytest.mark.parametrize("edge", sorted(EDGES))
def test_edge_unchanged(edge):
    assert EDGE_FUNCTIONS[edge]() == EDGES[edge]


def test_ops_are_kept_on_the_instruction_and_make_no_cycle():
    """What a run decodes stays on the instructions it ran — for the
    domain it ran in — and a finished run leaves nothing for the cycle
    collector: an op holds names and functions, never its instruction."""
    gc.collect()

    def run_once():
        lowered = lower("iphdr *ip = pkt->network_header();"
                        " ip->ttl = ip->ttl + 1; pkt->send();")
        Interpreter(lowered.process, StateStore(lowered.state)).run(
            PacketView(_packet()))
        return [
            inst._decoded_for for block in lowered.process.blocks.values()
            for inst in block.instructions
        ]

    assert set(run_once()) == {IntDomain}
    assert gc.collect() == 0


def test_a_block_edited_in_place_runs_its_new_instruction():
    """Nothing to invalidate: an edit puts another instruction in the
    block, and that one is decoded on its first run."""
    lowered = lower("iphdr *ip = pkt->network_header(); ip->ttl = 7;"
                    " pkt->send();")

    def ttl() -> int:
        packet = _packet()
        Interpreter(lowered.process, StateStore(lowered.state)).run(
            PacketView(packet))
        return packet.ip.ttl

    assert ttl() == 7
    for block in lowered.process.blocks.values():
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, irin.StorePacketField):
                block.instructions[index] = irin.StorePacketField(
                    inst.region, inst.field, Const(9, UINT32))
    assert ttl() == 9


def test_alternating_domains_decode_once_per_domain(monkeypatch):
    """A concolic check runs one function over ints, then terms, then ints
    again: each instruction it executes is decoded once per domain, and
    the third run decodes nothing."""
    decoded: Counter = Counter()

    def counting(decoder):
        def decode(inst, domain):
            decoded[inst.id, domain] += 1
            return decoder(inst, domain)
        return decode

    for cls, decoder in list(interp._DECODERS.items()):
        monkeypatch.setitem(interp._DECODERS, cls, counting(decoder))
    lowered = lower("iphdr *ip = pkt->network_header();"
                    " ip->ttl = ip->ttl + 1; pkt->send();")

    def over_ints():
        packet = _packet()
        result = Interpreter(lowered.process, StateStore(lowered.state)).run(
            PacketView(packet), collect_ids=True)
        return result.executed_ids, result.verdict, bytes(packet.pack())

    def over_terms():
        view, store, chooser = _symbolic(_packet(), lowered.state)
        return Interpreter(
            lowered.process, store, SymExternHost({}, chooser),
            TermDomain(chooser, IntDomain.max_steps),
        ).run(view, collect_ids=True).executed_ids

    first = over_ints()
    symbolic = over_terms()
    expected = Counter({(i, IntDomain): 1 for i in first[0]})
    expected.update({(i, TermDomain): 1 for i in symbolic})
    assert decoded == expected
    assert over_ints() == first
    assert decoded == expected


def test_operator_tables_are_the_ladder():
    """``_apply_binop`` is a lookup into the one table; the table and the
    prover's (which folds constants through it) compute what the ladder
    did, DIV and MOD by 0 and shifts of 64 and more included."""
    assert binop_grid() == BINOP_GRID
    assert binop_grid(lambda op, a, b: BINOPS[op](a, b)) == BINOP_GRID
    assert binop_grid(
        lambda op, a, b: TermDomain.binops[op](const(a), const(b)).value
    ) == BINOP_GRID
    assert unop_grid() == UNOP_GRID
    assert unop_grid(lambda op, a: UNOPS[op](a)) == UNOP_GRID
    assert unop_grid(
        lambda op, a: TermDomain.unops[op](const(a)).value
    ) == UNOP_GRID


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(
        {"deep": {name: deep_trace(name) for name in DEEP_TRACES},
         "binops": binop_grid(),
         "unops": unop_grid(),
         **{name: run() for name, run in EDGE_FUNCTIONS.items()}},
        indent=1,
    ))
