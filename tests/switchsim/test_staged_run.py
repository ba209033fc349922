"""The interpreted switch runs the staged program the P4 text prints
(:class:`~repro.switchsim.pipeline.PipelineExecutor` over
``SwitchProgram.stages``): its ops in stage order, under their guards,
out of the allocation's bytes."""

import contextlib
import io
import json
from itertools import groupby

import pytest

from repro.cli import main as cli_main
from repro.codegen.headers import ShimLayout
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.values import Const, Reg
from repro.lang.types import UINT8
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition.constraints import MetadataAllocation
from repro.switchsim.pipeline import DataPlaneViolation
from repro.switchsim.program import SwitchProgram
from repro.switchsim.switch_model import SwitchModel
from repro.workloads.packets import TcpFlags, make_tcp_packet
from tests.codegen.p4_reader import path, read


def deep_trace(middlebox: str) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["trace", middlebox, "--packets", "6", "--deep", "--json"])
    return json.loads(out.getvalue())["events"]


@pytest.mark.parametrize("middlebox", MIDDLEBOX_NAMES)
def test_switch_exec_events_carry_a_stage_that_never_goes_back(middlebox):
    """Within one traversal (a packet's run of one pipeline) the switch's
    ``exec`` events come in stage order, each naming its stage; the
    server's have none."""
    execs = [event for event in deep_trace(middlebox)
             if event["kind"] == "exec"]
    switch = [event for event in execs
              if event["component"].startswith("switch.")]
    assert switch
    assert all("stage" not in event["detail"] for event in execs
               if not event["component"].startswith("switch."))
    for _, traversal in groupby(
        switch, key=lambda event: (event["packet"], event["component"])
    ):
        stages = [event["detail"]["stage"] for event in traversal]
        assert stages == sorted(stages), middlebox


SOURCE = (
    "class T { void process(Packet *pkt) {"
    " iphdr *ip = pkt->network_header();"
    " uint8_t a = ip->ttl; uint8_t b = ip->tos;"
    " ip->id = a + b; pkt->send(); } };"
)


def test_a_register_read_after_another_took_its_bytes_names_both(
        monkeypatch):
    """Registers live in the allocation's bytes: give every register of
    the pipeline byte 0 and the first read of an overwritten one
    raises, naming it and the register written over it."""
    program = compile_source(SOURCE, verify=False).switch_program
    stages = type(program).stages

    def sharing_byte_0(self, side):
        staged, allocation = stages(self, side)
        offsets = allocation.offsets
        return staged, MetadataAllocation(
            {name: (0, size) for name, (_, size) in offsets.items()},
            max((size for _, size in offsets.values()), default=0),
        )

    monkeypatch.setattr(type(program), "stages", sharing_byte_0)
    switch = SwitchModel(program)
    with pytest.raises(DataPlaneViolation,
                       match=r"reads %(\S+), whose bytes the write of %\S+"
                             r" took"):
        switch.receive(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), 1)


def test_a_clobbered_register_written_again_holds_its_new_value(
        monkeypatch):
    """``y`` takes ``x``'s byte while ``x`` still has a read ahead, then
    ``x`` is written again before that read: the read and the ``env``
    the traversal returns both see the new value."""
    x, y = Reg("x", UINT8), Reg("y", UINT8)
    pre = FunctionBuilder("pre")
    for inst in (irin.Assign(x, Const(1, UINT8)),
                 irin.Assign(y, Const(2, UINT8)),
                 irin.Assign(x, Const(3, UINT8)),
                 irin.StorePacketField("ip", "ttl", x), irin.Send()):
        pre.emit(inst)
    post = FunctionBuilder("post")
    post.emit(irin.Send())
    program = SwitchProgram(
        name="handbuilt", pre=pre.function, post=post.function, tables={},
        registers={}, shim_to_server=ShimLayout("to_server", []),
        shim_to_switch=ShimLayout("to_switch", []),
        needs_server_reg="__needs_server",
    )
    stages = SwitchProgram.stages
    monkeypatch.setattr(SwitchProgram, "stages", lambda self, side: (
        stages(self, side)[0],
        MetadataAllocation({"x": (0, 1), "y": (0, 1)}, 1),
    ))
    packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    verdict, _, env, steps = SwitchModel(program)._pre(packet, None)
    assert (verdict, packet.ip.ttl, env, steps) == (
        "send", 3, {"x": 3, "y": 2}, 5)


def unwritten_at_the_punt(program: SwitchProgram) -> set:
    """The to-server shim registers some path through pre reaches its
    punt without writing: the fields the staged run sends as 0 and the
    printed punt copies out of whatever its bytes hold."""
    pre = program.pre
    carried = set(program.shim_to_server.carried())
    found = set()

    def walk(name, written):
        block = pre.blocks[name]
        written = written | {
            reg.name for inst in block.instructions for reg in inst.defs()
        }
        if isinstance(block.terminator, irin.Return):
            found.update(carried - written)
        for successor in block.successors():
            walk(successor, written)

    walk(pre.entry, frozenset())
    return found


def test_a_punt_field_its_path_never_wrote_is_sent_as_0():
    """The one read the byte model lets through: trojan's SYN path punts
    without computing ``c23`` (the flow-table miss), and ``proto.1``
    holds its byte.  The staged run sends the field as 0, as the IR walk
    did; the printed punt copies the byte out, so the text sends the
    protocol there.  The server reads ``c23`` on no path that leaves it
    unwritten, so no packet can tell the two apart.  Every field a punt
    sends unwritten is one a path through pre leaves unwritten."""
    result = compile_source(load("trojan").source, verify=False)
    program = result.switch_program
    offsets = program.stages("pre")[1].offsets
    assert offsets["c23"] == offsets["proto.1"]
    low = offsets["c23"][0] * 8
    assert ("set", path("hdr.shim_to_server.c23"), ("slice", low, low)) in {
        statement
        for _, _, statement in read(result.p4_source).pipelines["pre"].ops
    }
    switch = SwitchModel(program)
    layout = program.shim_to_server
    unwritten = set()
    for flags in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN):
        verdict, _, env, _ = switch._pre(
            make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 22, flags=flags), None)
        if verdict is None:
            unwritten |= set(layout.carried()) - env.keys()
            if "c23" not in env:
                assert layout.decode(layout.encode(env))["c23"] == 0
    assert "c23" in unwritten <= unwritten_at_the_punt(program)
