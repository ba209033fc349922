"""The switch specialized to its program and fast-path deployments vs.
the interpreted originals — same traversals, same journeys, same state."""

from itertools import islice
from unittest import mock

import pytest

from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.switchsim import compiled as switch_compiled
from repro.switchsim.pipeline import PipelineExecutor
from repro.switchsim.switch_model import SwitchModel
from repro.telemetry import Telemetry
from repro.workloads import IperfWorkload, middlebox_stream
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
