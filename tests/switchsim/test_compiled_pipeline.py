"""The switch specialized to its program and fast-path deployments vs.
the interpreted originals — same traversals, same journeys, same state."""

import re
from itertools import islice
from unittest import mock

import pytest

from repro.codegen.headers import RESERVED_FIELDS
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.switchsim import compiled as switch_compiled
from repro.switchsim.pipeline import PipelineExecutor
from repro.switchsim.switch_model import SwitchModel
from repro.telemetry import Telemetry
from repro.net.headers import TcpFlags
from repro.workloads import IperfWorkload, middlebox_stream
from repro.workloads.packets import make_tcp_packet, make_udp_packet
from tests.conftest import get_bundle


def _switch_pair(name):
    lowered = get_bundle(name).lowered
    plan, program = compile_middlebox(lowered)
    return (
        SwitchModel(program, seed=0),
        SwitchModel(program, seed=0, fast_path=True),
    )


class TestFactory:
    """Which engine a ``SwitchModel`` is built around."""

    def test_fast_path_selects_compiled_executor(self, middlebox_name):
        lowered = get_bundle(middlebox_name).lowered
        _, program = compile_middlebox(lowered)
        interpreted = SwitchModel(program, seed=0)
        compiled = SwitchModel(program, seed=0, fast_path=True)
        assert isinstance(interpreted._pre.__self__, PipelineExecutor)
        for run, function in ((compiled._pre, program.pre),
                              (compiled._post, program.post)):
            assert run.func is (
                switch_compiled.compile_switch_function(function).entry
            )

    def test_generated_code_is_shared_and_bound_per_switch(self):
        lowered = get_bundle("minilb").lowered
        _, program = compile_middlebox(lowered)
        one = SwitchModel(program, seed=0, fast_path=True)
        other = SwitchModel(program, seed=0, fast_path=True)
        assert one._pre.func is other._pre.func
        bound = list(one._pre.args[0])
        assert bound and all(
            any(element is mine for mine in
                (*one.tables.values(), *one.registers.values()))
            for element in bound
        )
        assert not any(
            element is theirs for element in bound for theirs in
            (*other.tables.values(), *other.registers.values())
        )

    def test_interpreted_switch_compiles_nothing(self):
        lowered = get_bundle("firewall").lowered
        _, program = compile_middlebox(lowered)
        from repro.ir import compile as ir_compile

        with mock.patch.object(
            ir_compile, "CompiledFunction"
        ) as server_side, mock.patch.object(
            switch_compiled, "SwitchFunction"
        ) as switch_side:
            SwitchModel(program, seed=0)
        assert not server_side.called and not switch_side.called

    def test_deep_trace_keeps_the_interpreter(self):
        lowered = get_bundle("minilb").lowered
        _, program = compile_middlebox(lowered)
        model = SwitchModel(
            program, seed=0, fast_path=True,
            telemetry=Telemetry(tracing=True, deep=True),
        )
        assert isinstance(model._pre.__self__, PipelineExecutor)


class TestSwitchTraversalEquivalence:
    def test_identical_switch_outputs(self, middlebox_name):
        interpreted, compiled = _switch_pair(middlebox_name)
        stream = islice(
            middlebox_stream(middlebox_name, IperfWorkload()), 50
        )
        for packet, port in stream:
            a = interpreted.receive(packet.copy(), port)
            b = compiled.receive(packet.copy(), port)
            assert a.dropped == b.dropped
            assert a.punted == b.punted
            assert [
                (p, bytes(pkt.pack())) for p, pkt in a.emitted
            ] == [(p, bytes(pkt.pack())) for p, pkt in b.emitted]
        assert interpreted.counters() == compiled.counters()
        assert {
            name: reg.value
            for name, reg in interpreted.registers.items()
        } == {name: reg.value for name, reg in compiled.registers.items()}


class TestDeploymentEquivalence:
    def test_fast_path_journeys_match(self, middlebox_name):
        lowered = get_bundle(middlebox_name).lowered
        plan, program = compile_middlebox(lowered)
        interpreted = GalliumMiddlebox(plan, program, seed=0)
        compiled = GalliumMiddlebox(plan, program, seed=0, fast_path=True)
        interpreted.install()
        compiled.install()
        stream = islice(
            middlebox_stream(middlebox_name, IperfWorkload()), 80
        )
        for packet, port in stream:
            a = interpreted.process_packet(packet.copy(), port)
            b = compiled.process_packet(packet.copy(), port)
            assert a.verdict == b.verdict
            assert a.fast_path == b.fast_path
            assert a.punted == b.punted
            assert [
                (p, bytes(pkt.pack())) for p, pkt in a.emitted
            ] == [(p, bytes(pkt.pack())) for p, pkt in b.emitted]
        assert interpreted.state.snapshot() == compiled.state.snapshot()


class TestWhatTheGeneratedPipelineKeeps:
    """Registers live in locals; ``env`` is built only where read."""

    def test_punt_exit_env_carries_the_shim(self, middlebox_name):
        interpreted, compiled = _switch_pair(middlebox_name)
        slots = [name for name, _, _ in
                 compiled.program.shim_to_server.slots
                 if name not in RESERVED_FIELDS]
        punts = 0
        for packet, port in _probes(middlebox_name):
            a_packet, b_packet = packet.copy(), packet.copy()
            a_packet.ingress_port = b_packet.ingress_port = port
            a = interpreted._pre(a_packet, None)
            b = compiled._pre(b_packet, None)
            assert (a[0], a[1], a[3]) == (b[0], b[1], b[3])
            if b[0] is None:
                punts += 1
                # A name the path never bound is absent from both (the
                # codec encodes it as 0).
                assert {name: b[2].get(name, "absent") for name in slots} == {
                    name: a[2].get(name, "absent") for name in slots}
                assert b[2] == a[2]
            else:
                assert b[2] is None  # an answered packet builds no env
        source = switch_compiled.compile_switch_function(
            compiled.program.pre).source
        assert bool(punts) == ("env = initial_env.copy()" in source)

    def test_loop_free_pipeline_touches_env_only_at_its_exits(
            self, middlebox_name):
        lowered = get_bundle(middlebox_name).lowered
        _, program = compile_middlebox(lowered)
        for function in (program.pre, program.post):
            source = switch_compiled.compile_switch_function(function).source
            for line in source.splitlines():
                if "env" in line:
                    assert _TOUCHES_ENV.fullmatch(line.strip()), line


def _probes(name):
    """The middlebox's iperf stream, then packets of every direction,
    address pair, port pair and TCP flag the bundled sources test."""
    yield from islice(middlebox_stream(name, IperfWorkload()), 50)
    hosts = ("192.168.1.1", "10.0.0.1", "8.8.4.4", "10.9.9.9")
    for port in (1, 2):
        for saddr, daddr in zip(hosts, hosts[1:] + hosts[:1]):
            for sport, dport in ((1000, 80), (10000, 5001), (6667, 6667)):
                for flags in (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN):
                    yield make_tcp_packet(saddr, daddr, sport, dport,
                                          flags=flags), port
                yield make_udp_packet(saddr, daddr, sport, dport), port


#: every line of a generated pipeline allowed to name ``env`` /
#: ``initial_env``: the signature, the live-in copy, the exits
_TOUCHES_ENV = re.compile(
    r"def _entry\(.*\):"
    r"|if initial_env is None:|initial_env = _NO_ENV|env = None"
    r"|if '[^']+' in initial_env:|r_\w+ = initial_env\['[^']+'\]"
    r"|env = initial_env.copy\(\)"
    r"|env\['[^']+'\] = r_\w+"
    r"|return verdict, port, env, steps"
)
