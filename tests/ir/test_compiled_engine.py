"""The compiled fast-path engine vs. the IR interpreter (the oracle).

``repro.ir.compile`` specializes each lowered function into per-block
Python closures; these tests pin its contract: byte-identical results —
verdict, egress, step counts, executed instruction ids, final register
environment, packet bytes, and state journal — on every program, plus
the edge semantics (undefined registers, step limits, deep-trace
fallback) that are easy to lose in specialization.
"""

import pytest

from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.compile import CompiledFunction, compile_function
from repro.ir.externs import ExternHost
from repro.ir.interp import (
    Interpreter,
    InterpreterError,
    PacketView,
    StateStore,
)
from repro.ir.values import Const, Reg
from repro.lang.types import UINT16, UINT32
from repro.workloads import IperfWorkload, middlebox_stream
from tests.conftest import get_bundle
from tests.ir.test_interp import lower


def both_ways(lowered, packets, collect_ids=True):
    """Run ``lowered.process`` through interpreter and compiled engine on
    the same stream with independent state; return the paired results."""
    states = [StateStore(lowered.state), StateStore(lowered.state)]
    for state in states:
        if lowered.configure is not None:
            Interpreter(lowered.configure, state, ExternHost()).run()
        state.drain_journal()
    compiled = compile_function(lowered.process)
    pairs = []
    for packet, port in packets:
        left, right = packet.copy(), packet.copy()
        left.ingress_port = right.ingress_port = port
        a = Interpreter(lowered.process, states[0], ExternHost()).run(
            PacketView(left), collect_ids=collect_ids
        )
        b = compiled.run(
            states[1], ExternHost(), packet=PacketView(right),
            collect_ids=collect_ids,
        )
        pairs.append((a, b, left, right))
    return pairs, states


class TestBundledMiddleboxEquivalence:
    def test_byte_identical_on_stream(self, middlebox_name):
        lowered = get_bundle(middlebox_name).lowered
        from itertools import islice

        stream = list(
            islice(middlebox_stream(middlebox_name, IperfWorkload()), 60)
        )
        pairs, states = both_ways(lowered, stream)
        for a, b, left, right in pairs:
            assert a.verdict == b.verdict
            assert a.egress_port == b.egress_port
            assert a.instructions_executed == b.instructions_executed
            assert a.executed_ids == b.executed_ids
            assert a.env == b.env
            assert left.pack() == right.pack()
        assert states[0].drain_journal() == states[1].drain_journal()
        assert states[0].snapshot() == states[1].snapshot()


class TestCompiledEdgeSemantics:
    def test_undefined_register_message_matches(self):
        builder = FunctionBuilder("broken")
        dst = builder.fresh_temp(UINT32)
        builder.emit(irin.Assign(dst, Reg("ghost", UINT32)))
        builder.emit(irin.Return())
        with pytest.raises(InterpreterError) as interp_err:
            Interpreter(builder.function, StateStore({})).run()
        with pytest.raises(InterpreterError) as compiled_err:
            compile_function(builder.function).run(StateStore({}))
        assert str(interp_err.value) == str(compiled_err.value)

    def test_step_limit_message_matches(self):
        lowered = lower("while (1) { } pkt->send();")
        state = StateStore(lowered.state)
        with pytest.raises(InterpreterError) as interp_err:
            Interpreter(lowered.process, state).run()
        with pytest.raises(InterpreterError) as compiled_err:
            compile_function(lowered.process).run(StateStore(lowered.state))
        assert "step limit" in str(compiled_err.value)
        assert str(interp_err.value) == str(compiled_err.value)

    def test_packet_access_without_packet_raises(self):
        lowered = lower(
            "iphdr *ip = pkt->network_header(); ip->ttl = 1; pkt->send();"
        )
        with pytest.raises(InterpreterError, match="without a packet"):
            compile_function(lowered.process).run(StateStore(lowered.state))

    def test_compile_cache_reuses_object(self):
        lowered = lower("pkt->send();")
        assert compile_function(lowered.process) is compile_function(
            lowered.process
        )
        assert isinstance(compile_function(lowered.process), CompiledFunction)

    def test_fused_jump_chain_keeps_step_accounting(self):
        # if/else reconverges through jumps: superblock fusion must not
        # change the executed-id sequence or the step count.
        lowered = lower(
            "iphdr *ip = pkt->network_header();"
            " if (ip->ttl > 3) { ip->ttl = ip->ttl - 1; }"
            " else { ip->tos = 7; }"
            " ip->id = 99; pkt->send();"
        )
        from repro.net.addresses import ip as ip_addr
        from repro.net.headers import EthernetHeader, Ipv4Header, TcpHeader
        from repro.net.packet import RawPacket

        packet = RawPacket.make_tcp(
            EthernetHeader(),
            Ipv4Header(saddr=ip_addr("10.0.0.1"), daddr=ip_addr("10.0.0.2")),
            TcpHeader(sport=1, dport=2),
            b"x",
        )
        pairs, _ = both_ways(lowered, [(packet, 1)])
        a, b, _, _ = pairs[0]
        assert a.executed_ids == b.executed_ids
        assert a.instructions_executed == b.instructions_executed

    def test_deep_tracer_falls_back_to_interpreter(self):
        from repro.telemetry import Telemetry

        lowered = lower("pkt->drop();")
        telemetry = Telemetry(tracing=True, deep=True)
        state = StateStore(lowered.state)
        state.tracer = telemetry.tracer
        telemetry.tracer.begin_packet(0)
        result = compile_function(lowered.process).run(state)
        assert result.verdict == "drop"
        # Deep tracing demands one event per executed instruction — only
        # the interpreter emits those, so the fallback must have run.
        assert any(
            event.kind == "exec" for event in telemetry.tracer.events
        )


class TestGeneratedProgramEquivalence:
    def test_compiled_gauntlet_slice_is_clean(self):
        from repro.difftest import run_compiled_gauntlet

        stats, failures = run_compiled_gauntlet(runs=12, seed=101, packets=15)
        assert failures == []
        assert stats.diverge == 0
        assert stats.crash == 0
        assert stats.agree == 12


def hand_built(build):
    """A function ``build(builder)`` fills, with blocks ``entry`` .. as
    the builder names them (nothing validates it)."""
    builder = FunctionBuilder("hand")
    build(builder)
    return builder.function


def outcome(run):
    """``("ok", env, verdict)`` or ``("raised", type, message)``."""
    try:
        result = run()
    except Exception as exc:  # noqa: BLE001 - the identity is compared
        return ("raised", type(exc), str(exc))
    return ("ok", result.env, result.verdict)


def both_outcomes(function, initial_env=None, externs=None):
    state = StateStore({})
    interpreted = outcome(lambda: Interpreter(function, state, externs).run(
        None, initial_env))
    compiled = outcome(lambda: compile_function(function).run(
        StateStore({}), externs, None, initial_env))
    return interpreted, compiled


X = Reg("x", UINT32)
Y = Reg("y", UINT32)


def one_armed(taken):
    """``if (taken) x = 5;`` then ``y = x`` after the join."""
    def build(builder):
        arm, join = builder.fresh_block("arm"), builder.fresh_block("join")
        builder.emit(irin.Branch(Const(taken, UINT32), arm.name, join.name))
        builder.enter_block(arm)
        builder.emit(irin.Assign(X, Const(5, UINT32)))
        builder.emit(irin.Jump(join.name))
        builder.enter_block(join)
        builder.emit(irin.Assign(Y, X))
        builder.emit(irin.Send())
    return hand_built(build)


def defined_in_the_loop():
    """A loop head reading ``x``, which only the loop body (entered after
    the head) defines: the first pass reads it unbound."""
    def build(builder):
        head, body = builder.fresh_block("head"), builder.fresh_block("body")
        builder.emit(irin.Assign(Y, Const(0, UINT32)))
        builder.emit(irin.Jump(head.name))
        builder.enter_block(head)
        builder.emit(irin.BinOp(Y, irin.BinOpKind.ADD, Y, X))
        builder.emit(irin.Jump(body.name))
        builder.enter_block(body)
        builder.emit(irin.Assign(X, Const(1, UINT32)))
        builder.emit(irin.Jump(head.name))
    return hand_built(build)


class TestRegistersAreLocals:
    """What moving registers from a dict into Python locals could change,
    each held to the interpreter's message or value."""

    def test_read_after_a_one_armed_join(self):
        interpreted, compiled = both_outcomes(one_armed(0))
        assert interpreted[0] == "raised"
        assert compiled == interpreted
        assert "read of undefined register %x" in interpreted[2]
        interpreted, compiled = both_outcomes(one_armed(1))
        assert compiled == interpreted == ("ok", {"x": 5, "y": 5}, "send")

    def test_read_at_a_loop_head_before_the_body_defines_it(self):
        interpreted, compiled = both_outcomes(defined_in_the_loop())
        assert interpreted[0] == "raised"
        assert compiled == interpreted

    def test_live_in_comes_from_the_environment(self):
        interpreted, compiled = both_outcomes(one_armed(0), {"x": 9})
        assert compiled == interpreted == (
            "ok", {"x": 9, "y": 9}, "send")

    def test_names_the_function_never_reads_come_back(self):
        initial = {"x": 7, "unread": 3, "__ingress_port": 2}
        interpreted, compiled = both_outcomes(one_armed(1), initial)
        assert compiled == interpreted
        assert compiled[1] == {"x": 5, "unread": 3, "__ingress_port": 2,
                               "y": 5}

    def test_an_externs_name_error_is_not_relabelled(self):
        class Raising(ExternHost):
            def call(self, name, args, packet=None):
                # Quotes the local the generated code keeps ``x`` in.
                raise NameError("name 'r_x' is not defined")

        def build(builder):
            builder.emit(irin.Assign(X, Const(1, UINT32)))
            builder.emit(irin.ExternCall(Y, "now_sec", []))
            builder.emit(irin.Send())

        interpreted, compiled = both_outcomes(hand_built(build),
                                              externs=Raising())
        assert compiled == interpreted == (
            "raised", NameError, "name 'r_x' is not defined")


class TestNoDeadMasks:
    """A copy keeps its mask unless every definition of its source fits
    the destination; either way the value is the interpreter's."""

    @staticmethod
    def copy_of(define, dst_type):
        dst = Reg("dst", dst_type)

        def build(builder):
            define(builder)
            builder.emit(irin.Assign(dst, Reg("src", UINT32)))
            builder.emit(irin.Send())
        return hand_built(build)

    def test_copy_from_a_narrower_wrapped_register_is_bare(self):
        function = self.copy_of(lambda b: b.emit(irin.Assign(
            Reg("src", UINT16), Const(0x1234, UINT16))), UINT32)
        assert "r_dst = r_src\n" in compile_function(function).source
        interpreted, compiled = both_outcomes(function)
        assert compiled == interpreted

    def test_narrowing_copy_keeps_its_mask(self):
        function = self.copy_of(lambda b: b.emit(irin.Assign(
            Reg("src", UINT32), Const(0x12345, UINT32))), UINT16)
        assert "r_dst = (r_src & 0xffff)" in compile_function(
            function).source
        interpreted, compiled = both_outcomes(function)
        assert compiled == interpreted
        assert compiled[1]["dst"] == 0x2345

    @pytest.mark.parametrize("initial", [{"src": 1 << 40}, {"src": -1}])
    def test_live_in_source_keeps_its_mask(self, initial):
        # ``src`` is read before any definition: it comes from the caller,
        # who may hand over any integer.
        function = self.copy_of(lambda b: None, UINT16)
        interpreted, compiled = both_outcomes(function, initial)
        assert compiled == interpreted
        assert 0 <= compiled[1]["dst"] <= 0xFFFF

    def test_map_value_source_keeps_its_mask(self):
        state = StateStore({})
        state.maps["m"] = {(1,): 1 << 40}

        def define(builder):
            builder.emit(irin.MapFind(builder.fresh_bool("f"),
                                      Reg("src", UINT16), "m",
                                      [Const(1, UINT32)]))
        function = self.copy_of(define, UINT16)
        assert "r_dst = (r_src & 0xffff)" in compile_function(
            function).source
        a = Interpreter(function, state).run()
        b = compile_function(function).run(state)
        assert a.env == b.env and b.env["dst"] == 0

    def test_comparison_into_a_bool_is_wrapped_once(self):
        def build(builder):
            builder.emit(irin.BinOp(builder.fresh_bool("c"),
                                    irin.BinOpKind.LT, Const(1, UINT32),
                                    Const(2, UINT32)))
            builder.emit(irin.Send())
        function = hand_built(build)
        assert "r_c0 = (1 if 1 < 2 else 0)\n" in compile_function(
            function).source
        interpreted, compiled = both_outcomes(function)
        assert compiled == interpreted == ("ok", {"c0": 1}, "send")

    def test_literals_fold(self):
        def build(builder):
            builder.emit(irin.Assign(Reg("small", UINT16),
                                     Const(0x12345, UINT32)))
            builder.emit(irin.BinOp(Reg("shifted", UINT32),
                                    irin.BinOpKind.SHL, Const(1, UINT32),
                                    Const(65, UINT32)))
            builder.emit(irin.Send())
        function = hand_built(build)
        source = compile_function(function).source
        assert "r_small = 9029\n" in source
        assert "(1 << 1)" in source
        interpreted, compiled = both_outcomes(function)
        assert compiled == interpreted
