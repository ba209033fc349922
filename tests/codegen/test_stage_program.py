"""The staged switch program: what the allocation scans and the P4 text
prints (``SwitchProgram.stages``).

``stage_hazards`` (``tests/partition/compile_pins.py``) holds every
compiled row of the pin sweep to it; here it is shown to catch three
seeded mutants of the stage order, each applied with ``monkeypatch`` to a
fresh compile:

* m1 — the allocation scans program order (the rule before the stage
  order was the one order): registers that share bytes hold values
  together in stage order;
* m2 — the schedule drops ANTI (write-after-read) edges: a write moves
  before a read of the old value;
* m3 — the schedule drops CONTROL edges: a guarded op moves before the
  condition it is guarded by is computed.

Also: the printed program needs no more stages than the lint counts
(:func:`printed_depth`), a condition written again after its branch is
refused (PART007), and the emitter refuses an op it cannot print.  Run as
a script, it prints each bundled pipeline's scratch bytes and printed
depth under the program-order allocation (m1, the rule before) and under
the stage order::

    PYTHONPATH=src python -m tests.codegen.test_stage_program
"""

import dataclasses
from typing import Dict, List, Optional, Sequence

import pytest

from repro.analysis import depgraph
from repro.analysis.depgraph import DependencyKind
from repro.analysis.distance import _stage_cost
from repro.analysis.reachability import compute_reachability
from repro.codegen.p4.emit import emit_p4_program
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.function import Function
from repro.ir.values import LocKind, Reg, const_int
from repro.lang import parse_program
from repro.lang.types import IntType
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition import constraints
from repro.partition.partitioner import PartitionError
from repro.switchsim.program import SwitchProgram
from tests.partition.compile_pins import sources, stage_hazards


MEASURE = constraints.measure_pipeline


def program_order(function: Function) -> constraints.PipelineUsage:
    """m1: the pipeline as the allocation saw it before the stage order —
    its ops in program order, their guards unseen."""
    return dataclasses.replace(
        MEASURE(function),
        staged=tuple((inst, 0, ((),)) for inst in function.instructions()),
    )


def without(kind: DependencyKind):
    """m2 / m3: the projection's graph with every edge that is only
    ``kind`` dropped, so the schedule never sees it."""
    build = depgraph.build_dependency_graph

    def built(function: Function) -> depgraph.DependencyGraph:
        graph = build(function)
        edges = {
            pair: kinds for pair, kinds in graph.edges.items()
            if kinds != {kind}
        }
        ids = [inst.id for inst in graph.instructions]
        dependents = {inst_id: set() for inst_id in ids}
        dependencies = {inst_id: set() for inst_id in ids}
        for src, dst in edges:
            dependents[src].add(dst)
            dependencies[dst].add(src)
        return depgraph.DependencyGraph(
            graph.reachability, graph.instructions, edges, dependents,
            dependencies,
        )

    return built


MUTANTS = {
    "m1": ("measure_pipeline", program_order),
    "m2": ("build_dependency_graph", without(DependencyKind.ANTI)),
    "m3": ("build_dependency_graph", without(DependencyKind.CONTROL)),
}


def printed_depth(
    program: SwitchProgram,
    side: str,
    order: Optional[Sequence[irin.Instruction]] = None,
) -> int:
    """The stages the printed ``side`` pipeline needs, read off its ops
    in ``order`` (its staged order unless given) over scratch bytes, not
    registers: an op sits a stage after a write it reads at a cost and
    after a branch it is guarded by, and no earlier than a write to, or
    a read of, a byte it writes; ops no one traversal runs together do
    not wait on each other."""
    staged, allocation = program.stages(side)
    after = compute_reachability(getattr(program, side)).can_happen_after
    guard_of = {inst.id: guard for inst, _, guard in staged}
    punted = program.shim_to_server.carried() if side == "pre" else ()

    def touched(names, locations):
        return {
            byte for name in names for byte in range(
                allocation.offsets[name][0], sum(allocation.offsets[name])
            )
        } | {loc for loc in locations if loc.kind is not LocKind.VAR}

    ops = []
    for inst in order or [inst for inst, _, _ in staged]:
        guard = {
            cond.name for conjunction in guard_of[inst.id]
            for cond, _ in conjunction if isinstance(cond, Reg)
        }
        operands = [reg.name for reg in inst.uses()]
        if isinstance(inst, irin.Return):
            operands += punted
        ops.append((
            inst, guard, touched([*operands, *guard], inst.reads()),
            touched([reg.name for reg in inst.defs()], inst.writes()),
        ))
    depth: List[int] = []
    for later, (inst, guard, reads, writes) in enumerate(ops):
        stage = cost = _stage_cost(inst)
        for at, (first, _, first_reads, first_writes) in enumerate(
            ops[:later]
        ):
            if not (after(first, inst) or after(inst, first)):
                continue
            if first_writes & reads or (
                isinstance(first, irin.Branch)
                and getattr(first.cond, "name", None) in guard
            ):
                stage = max(stage, depth[at] + cost)
            elif first_writes & writes or first_reads & writes:
                stage = max(stage, depth[at])
        depth.append(stage)
    return max(depth, default=0)


def hazards_under(monkeypatch, mutant: str) -> Dict[str, List[str]]:
    """Program of the compile-pin sweep -> what ``stage_hazards`` finds in
    it, compiled afresh with ``mutant`` applied."""
    monkeypatch.setattr(constraints, *MUTANTS[mutant])
    found = {}
    for label, source in sources():
        program = compile_source(source, verify=False).switch_program
        found[label] = stage_hazards(program, "pre") + stage_hazards(
            program, "post"
        )
    return found


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_caught(monkeypatch, mutant):
    found = hazards_under(monkeypatch, mutant)
    assert [label for label, problems in found.items() if problems], mutant


def test_m1_shares_mazunat_pre_ticket_and_t12(monkeypatch):
    """The pair the stage order was found breaking: both written in stage
    6 and read in stage 7, on one path, over bytes the program-order
    allocation gives both."""
    found = hazards_under(monkeypatch, "m1")["mazunat"]
    assert any(
        "ticket.5" in problem and "t12" in problem and problem.startswith(
            "pre:"
        )
        for problem in found
    ), found


def test_the_printed_program_is_no_deeper_than_its_schedule(
    middlebox_name, compiled
):
    """The depth the lint checks (P4L006) bounds the depth of the text:
    over the bytes the allocation shares, the printed ops need no stage
    more than the schedule gave them (fewer where the schedule charges a
    stage for a write after a read or an output commit, which the text
    runs in one)."""
    program = compiled.switch_program
    for side in ("pre", "post"):
        depth = constraints.measure_pipeline(getattr(program, side)).depth
        assert printed_depth(program, side) <= depth, side


def test_the_program_order_text_was_deeper(monkeypatch):
    """Before the stage order, the text was printed in program order over
    the program-order allocation: lb's pre pipeline read that way needs a
    stage more than the 14 the lint checked."""
    monkeypatch.setattr(constraints, *MUTANTS["m1"])
    program = compile_source(load("lb").source, verify=False).switch_program
    assert constraints.measure_pipeline(program.pre).depth == 14
    assert printed_depth(program, "pre", program.pre.instructions()) == 15


def test_ops_are_in_stage_then_program_order(middlebox_name, compiled):
    for function in (compiled.switch_program.pre, compiled.switch_program.post):
        usage = constraints.measure_pipeline(function)
        position = {
            inst.id: at for at, inst in enumerate(function.instructions())
        }
        keys = [(stage, position[inst.id]) for inst, stage, _ in usage.staged]
        assert keys == sorted(keys)
        assert len(keys) == len(position)
        assert max(stage for stage, _ in keys) == usage.depth


def test_guards_are_the_branches_an_op_sits_under():
    """An op in an arm runs under that arm's polarity; the join runs
    under its branch's own guard again; a block two arms reach runs under
    either conjunction."""
    source = (
        "class T { void process(Packet *pkt) {"
        " iphdr *ip = pkt->network_header();"
        " if (ip->ttl > 1) { ip->ttl = 1; } else { ip->tos = 2; }"
        " if (ip->saddr == 1) { if (ip->daddr == 2) { pkt->drop(); } }"
        " ip->id = 3; pkt->send(); } };"
    )
    function = lower_program(parse_program(source)).process
    staged = constraints.measure_pipeline(function).staged
    guard = {
        (inst.region, inst.field): guard for inst, _, guard in staged
        if isinstance(inst, irin.StorePacketField)
    }
    (((ttl, polarity),),) = guard[("ip", "ttl")]
    assert polarity == 1
    assert guard[("ip", "tos")] == (((ttl, 0),),)
    (saddr_false,), (saddr_true, daddr_false) = sorted(
        guard[("ip", "id")], key=len
    )
    assert saddr_false[1] == 0 and saddr_true[1] == 1
    assert saddr_false[0] is saddr_true[0] and daddr_false[1] == 0


def test_a_condition_written_after_its_branch_is_refused():
    """A guard reads its condition where its op runs; a bool rewritten
    inside the branch it decides would be read back changed."""
    source = (
        "class T { void process(Packet *pkt) {"
        " iphdr *ip = pkt->network_header(); bool f = ip->ttl > 1;"
        " if (f) { f = false; ip->ttl = 1; } pkt->send(); } };"
    )
    with pytest.raises(PartitionError, match="PART007: %f.1 "):
        compile_source(source, verify=False)


def test_the_emitter_refuses_an_op_it_cannot_print():
    """Once a comment saying ``unsupported``; the lint refuses such an op
    (P4L001) first, so only an unvalidated program gets here."""
    program = compile_source(load("minilb").source, verify=False)
    program = program.switch_program
    entry = program.pre.blocks[program.pre.entry]
    entry.instructions.insert(
        0, irin.StoreState("counter", Reg("bad", IntType(32)))
    )
    entry.instructions.insert(
        0, irin.Assign(Reg("bad", IntType(32)), const_int(1))
    )
    with pytest.raises(NotImplementedError, match="no P4 for <state.counter"):
        emit_p4_program(program)


def main() -> None:
    """Each bundled pipeline: its depth, then scratch bytes and printed
    depth with the program-order allocation printed in program order (the
    rule before the stage order) and with the stage order."""
    print(f"{'pipeline':14} depth  before: bytes depth  now: bytes depth")
    for name in MIDDLEBOX_NAMES:
        source = load(name).source
        constraints.measure_pipeline = program_order
        try:
            before = compile_source(source, verify=False).switch_program
        finally:
            constraints.measure_pipeline = MEASURE
        now = compile_source(source, verify=False).switch_program
        for side in ("pre", "post"):
            function = getattr(before, side)
            rows = [
                (program.stages(side)[1].total_bytes,
                 printed_depth(program, side, order))
                for program, order in (
                    (before, function.instructions()), (now, None)
                )
            ]
            depth = constraints.measure_pipeline(function).depth
            print(f"{name + ' ' + side:14} {depth:5}  "
                  + "  ".join(f"{b:6} {d:5}" for b, d in rows))


if __name__ == "__main__":
    main()
