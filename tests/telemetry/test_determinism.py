"""Trace determinism: tracing consumes no randomness and timestamps come
only from the simulated clock, so the same seed (and the same fault plan)
must reproduce a byte-identical ``--json`` trace."""

import pytest

from repro.cli import main
from repro.faults.corpus import load_corpus
from repro.faults.oracle import FaultScenario
from repro.runtime.deployment import compile_middlebox
from repro.telemetry import Telemetry


def corpus_scenario() -> FaultScenario:
    """The historical fault-corpus scenario on freshly compiled
    artifacts: two deployment factories (each takes the telemetry bundle
    its side reports into) and the check that drives them."""
    entry = load_corpus()[0]
    plan, program = compile_middlebox(entry.source)
    return FaultScenario(
        plan, program, entry.stream, entry.fault_plan, entry.policy,
        entry.injector_seed, entry.deployment_seed,
        deployment=entry.deployment,
    )


def capture(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


class TestCliDeterminism:
    @pytest.mark.parametrize("deployment", ["gallium", "baseline"])
    def test_trace_json_byte_identical(self, capsys, deployment):
        argv = ["trace", "mazunat", "--packets", "10", "--seed", "7",
                "--deployment", deployment, "--json"]
        assert capture(capsys, argv) == capture(capsys, argv)

    def test_cached_trace_json_byte_identical(self, capsys):
        argv = ["trace", "minilb", "--packets", "10", "--seed", "7",
                "--deployment", "cached", "--cache-entries", "2", "--json"]
        assert capture(capsys, argv) == capture(capsys, argv)

    def test_deep_trace_json_byte_identical(self, capsys):
        argv = ["trace", "minilb", "--packets", "4", "--deep", "--json"]
        assert capture(capsys, argv) == capture(capsys, argv)

    def test_metrics_json_byte_identical(self, capsys):
        argv = ["metrics", "mazunat", "--packets", "10", "--json"]
        assert capture(capsys, argv) == capture(capsys, argv)

    def test_different_seed_may_differ_but_still_validates(self, capsys):
        import json

        from repro.telemetry.schema import load_schema, validate

        one = capture(capsys, ["trace", "mazunat", "--packets", "5",
                               "--seed", "1", "--json"])
        two = capture(capsys, ["trace", "mazunat", "--packets", "5",
                               "--seed", "2", "--json"])
        for text in (one, two):
            assert validate(json.loads(text), load_schema("trace")) == []
        assert json.loads(one)["seed"] != json.loads(two)["seed"]


class TestFaultPlanDeterminism:
    def test_same_fault_plan_reproduces_identical_traces(self):
        """The fault-side provenance re-run relies on this: same seeds +
        same fault plan => the traced scenario replays event-for-event."""
        import json

        scenario = corpus_scenario()

        def run():
            telemetry = Telemetry(tracing=True)
            reference = Telemetry(tracing=True)
            scenario.check(
                scenario.deploy_reference(reference),
                scenario.deploy_dut(telemetry),
            )
            return (
                json.dumps(telemetry.tracer.to_dicts(), sort_keys=True),
                json.dumps(reference.tracer.to_dicts(), sort_keys=True),
            )

        assert run() == run()
