"""The specialization boundary: what the compiled switch may never skip.

A ``fast_path=True`` switch runs generated code bound to its own tables
and registers instead of an interpreter over a
:class:`~repro.switchsim.pipeline.SwitchStateAdapter`.  The run-time
restrictions the adapter enforces must come out of both engines as the
same exception with the same message, and the bookkeeping the rest of the
system reads (table counters, the simulated clock, the metrics) must not
tell the engines apart.
"""

import pytest

from repro.codegen.headers import (
    FLAG_VERDICT_DROP,
    FLAG_VERDICT_NONE,
    FLAG_VERDICT_SEND,
    ShimLayout,
    synthesize_shim_layouts,
)
from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.values import Const
from repro.lang.types import UINT16, UINT32
from repro.switchsim.pipeline import DataPlaneViolation
from repro.switchsim.program import (
    SERVER_PORT,
    RegisterSpec,
    SwitchProgram,
    TableSpec,
)
from repro.partition.plan import TransferSpec
from repro.switchsim.switch_model import SHIM_KEY, SwitchModel, SwitchOutput
from repro.workloads.packets import make_tcp_packet

ENGINES = pytest.mark.parametrize("fast_path", [False, True],
                                  ids=["interpreted", "specialized"])


def program_of(build) -> SwitchProgram:
    """A hand-built switch program whose pre pipeline ``build`` fills
    (nothing validates it: these are the programs validation refuses)."""
    pre = FunctionBuilder("pre")
    build(pre)
    post = FunctionBuilder("post")
    post.emit(irin.Send())
    return SwitchProgram(
        name="handbuilt", pre=pre.function, post=post.function,
        tables={"t": TableSpec("t", [32], 32, 16, replicated=False)},
        registers={"r": RegisterSpec("r", 16)},
        shim_to_server=ShimLayout("to_server", []),
        shim_to_switch=ShimLayout("to_switch", []),
        needs_server_reg="__needs_server",
    )


def failure_of(build, fast_path, error):
    packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
    with pytest.raises(error) as raised:
        SwitchModel(program_of(build), fast_path=fast_path).receive(packet, 1)
    return type(raised.value), str(raised.value)


def lookup(builder, table="t"):
    builder.emit(irin.MapFind(
        builder.fresh_bool("found"), builder.fresh_temp(UINT32, "val"),
        table, [Const(7, UINT32)],
    ))


def table_touched_twice(builder):
    lookup(builder)
    lookup(builder)
    builder.emit(irin.Send())


def rmw_of_the_wrong_width(builder):
    # The register is 16 bits wide; the destination says 32.
    builder.emit(irin.RegisterRMW(
        builder.fresh_temp(UINT32), "r", irin.BinOpKind.ADD,
        Const(1, UINT32),
    ))
    builder.emit(irin.Send())


def runaway_loop(builder):
    builder.emit(irin.Jump("entry"))


def unknown_table(builder):
    lookup(builder, table="ghost")
    builder.emit(irin.Send())


def table_write(builder):
    builder.emit(irin.MapInsert("t", [Const(1, UINT32)], Const(2, UINT32)))
    builder.emit(irin.Send())


class TestSameRefusalFromBothEngines:
    @pytest.mark.parametrize("build, error, says", [
        (table_touched_twice, DataPlaneViolation,
         "stateful element 't' accessed twice in one traversal"),
        (rmw_of_the_wrong_width, DataPlaneViolation,
         "RMW width 32 does not match register 'r' width 16"),
        (unknown_table, DataPlaneViolation,
         "lookup on unknown table 'ghost'"),
        (table_write, DataPlaneViolation,
         "map_insert('t') in a switch pipeline — table writes must go"
         " through the control plane"),
        (runaway_loop, DataPlaneViolation,
         "pre: a pipeline with a loop has no stage schedule"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_type_and_message(self, build, error, says):
        interpreted = failure_of(build, False, error)
        specialized = failure_of(build, True, error)
        assert interpreted == specialized == (error, says)

    @ENGINES
    def test_a_fresh_traversal_may_touch_the_table_again(self, fast_path):
        def once(builder):
            lookup(builder)
            builder.emit(irin.Send())

        switch = SwitchModel(program_of(once), fast_path=fast_path)
        for _ in range(3):
            packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
            assert switch.receive(packet, 1).fast_path
        assert switch.tables["t"].lookup_count == 3

    @ENGINES
    def test_an_rmw_of_the_right_width_wraps_at_the_register(self, fast_path):
        def bump(builder):
            builder.emit(irin.RegisterRMW(
                builder.fresh_temp(UINT16), "r", irin.BinOpKind.ADD,
                Const(0xFFFF, UINT32),
            ))
            builder.emit(irin.Send())

        switch = SwitchModel(program_of(bump), fast_path=fast_path)
        switch.registers["r"].control_write(2)
        switch.receive(make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), 1)
        assert switch.registers["r"].value == 1

    @ENGINES
    def test_an_extern_sees_the_packet(self, fast_path):
        def sized(builder):
            length = builder.fresh_temp(UINT32)
            builder.emit(irin.ExternCall(length, "payload_len", []))
            builder.emit(irin.SendTo(length))

        switch = SwitchModel(program_of(sized), fast_path=fast_path)
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2,
                                 payload=b"12345")
        assert switch.receive(packet, 1).emitted[0][0] == 5


class TestSameBookkeepingFromBothEngines:
    def test_counters_clock_and_trace(self):
        from repro.telemetry import Telemetry

        def branchy(builder):
            found = builder.fresh_bool("found")
            builder.emit(irin.MapFind(
                found, builder.fresh_temp(UINT32, "val"), "t",
                [Const(7, UINT32)],
            ))
            hit, miss = builder.fresh_block(), builder.fresh_block()
            builder.emit(irin.Branch(found, hit.name, miss.name))
            builder.enter_block(hit)
            builder.emit(irin.LoadState(builder.fresh_temp(UINT16), "r"))
            builder.emit(irin.Send())
            builder.enter_block(miss)
            builder.emit(irin.Drop())

        seen = []
        for fast_path in (False, True):
            telemetry = Telemetry(tracing=True)
            switch = SwitchModel(program_of(branchy), fast_path=fast_path,
                                 telemetry=telemetry)
            outputs = []
            for installed in (False, True):
                if installed:
                    switch.control_plane.install_entries("t", {(7,): 9})
                telemetry.tracer.begin_packet(int(installed))
                packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
                output = switch.receive(packet, 1)
                outputs.append((output.dropped, output.fast_path,
                                output.pipeline_instructions,
                                [port for port, _ in output.emitted]))
            table = switch.tables["t"]
            seen.append((
                outputs, table.lookup_count, table.hit_count,
                switch.registers["r"].read_count, telemetry.clock.now_us,
                telemetry.metrics.to_dict(), telemetry.tracer.to_dicts(),
            ))
        assert seen[0] == seen[1]
        outputs, lookups, hits, reads = seen[0][:4]
        assert outputs == [(True, True, 3, []), (False, True, 4, [2])]
        assert (lookups, hits, reads) == (2, 1, 1)


class TestReturnLegExits:
    """``receive`` on the server port leaves through five exits, each an
    answer built without the constructor; both engines, every field."""

    POSTS = {"send": irin.Send(), "send_to": irin.SendTo(Const(9, UINT32)),
             "drop": irin.Drop(), "none": irin.Return()}

    def switch(self, post_kind, fast_path):
        pre, post = FunctionBuilder("pre"), FunctionBuilder("post")
        pre.emit(irin.Return())  # every packet punts
        post.emit(self.POSTS[post_kind])
        to_server, to_switch = synthesize_shim_layouts(
            TransferSpec([]), TransferSpec([])
        )
        program = SwitchProgram(
            name="handbuilt", pre=pre.function, post=post.function,
            tables={}, registers={}, shim_to_server=to_server,
            shim_to_switch=to_switch, needs_server_reg="__needs_server",
        )
        return SwitchModel(program, fast_path=fast_path)

    @ENGINES
    @pytest.mark.parametrize("flag, egress, post_kind, port, dropped, ran", [
        (FLAG_VERDICT_DROP, 0, "send", None, True, 0),
        (FLAG_VERDICT_SEND, 0, "drop", 2, False, 0),  # the port pair's
        (FLAG_VERDICT_SEND, 7, "drop", 7, False, 0),  # the server's
        (FLAG_VERDICT_NONE, 0, "send", 2, False, 1),
        (FLAG_VERDICT_NONE, 0, "send_to", 9, False, 1),
        (FLAG_VERDICT_NONE, 0, "drop", None, True, 1),
        (FLAG_VERDICT_NONE, 0, "none", None, True, 1),  # defensive
    ])
    def test_every_exit_is_whole(self, fast_path, flag, egress, post_kind,
                                 port, dropped, ran):
        switch = self.switch(post_kind, fast_path)
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        punt = switch.receive(packet, 1)
        assert punt == SwitchOutput(
            emitted=[(SERVER_PORT, packet)], punted=True,
            pipeline_instructions=1,
        )
        assert packet.metadata[SHIM_KEY] == b"\x01"  # the ingress port
        packet.metadata[SHIM_KEY] = switch.program.shim_to_switch.encode({
            "__verdict": flag, "__egress_port": egress, "__ingress_port": 1,
        })
        answer = switch.receive(packet, SERVER_PORT)
        assert answer == SwitchOutput(
            emitted=[] if dropped else [(port, packet)], dropped=dropped,
            pipeline_instructions=ran,
        )
        assert SHIM_KEY not in packet.metadata
        assert switch.counters() == {
            "fast_path": 0, "punted": 1, "post": 1, "dropped": int(dropped),
        }
        again = switch.receive(
            make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2), 1)
        assert again.emitted is not punt.emitted
