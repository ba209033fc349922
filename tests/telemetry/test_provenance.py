"""Divergence provenance on historical corpus bugs.

Each difftest corpus entry is a minimized reproducer of a real compiler
bug (now fixed).  These tests re-introduce two of those bugs by deleting
the server-side instruction whose mishandling caused them, then assert
the provenance machinery — ``check_artifacts``, the compiled-artifact
entry ``run_oracle`` itself goes through — re-runs the scenario with
tracing and pinpoints the first divergent semantic event.
"""

import pytest

from repro.difftest.corpus import CorpusEntry, load_corpus
from repro.difftest.oracle import Outcome, check_artifacts
from repro.ir import instructions as irin
from repro.runtime.deployment import compile_middlebox
from repro.telemetry import TraceDiff


@pytest.fixture(scope="module")
def corpus():
    entries = {entry.name: entry for entry in load_corpus()}
    assert len(entries) >= 2, "historical difftest corpus missing"
    return entries


def reintroduce_bug(entry, instruction_type):
    """Compile the reproducer, then delete the first server-side
    instruction of ``instruction_type`` — recreating the class of bug
    where the compiler stranded that effect on the wrong side."""
    plan, program = compile_middlebox(entry.source)
    for block in plan.non_offloaded.blocks.values():
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, instruction_type):
                del block.instructions[index]
                return plan, program
    raise AssertionError(
        f"no {instruction_type.__name__} in {entry.name}'s server partition"
    )


def diverge_and_collect(entry, plan, program):
    result = check_artifacts(plan, program, entry.stream, check_cached=False)
    assert result.outcome is Outcome.DIVERGE, result.error
    assert isinstance(result.trace_diff, TraceDiff), result.trace_diff
    return result, result.trace_diff


class TestStrandedRegisterWrite:
    """Historical bug: an offloaded register RMW was dropped from the
    server partition, so baseline and deployment disagree on final
    state."""

    @pytest.fixture(scope="class")
    def diverged(self, corpus):
        entry = corpus["stranded_offloaded_register_write"]
        plan, program = reintroduce_bug(entry, irin.RegisterRMW)
        return diverge_and_collect(entry, plan, program)

    def test_divergence_detected_as_state(self, diverged):
        result, _ = diverged
        assert result.divergence.kind == "state"

    def test_diff_pinpoints_first_state_effect(self, diverged):
        _, diff = diverged
        assert diff.divergent
        assert diff.stream.startswith("state member")
        assert diff.position == 0
        assert diff.lhs_event["kind"] == "register_rmw"
        member = diff.stream.split("'")[1]
        assert diff.lhs_event["detail"]["name"] == member

    def test_render_shows_both_sides(self, diverged):
        _, diff = diverged
        rendered = diff.render()
        assert "first divergent effect" in rendered
        assert "baseline" in rendered and "gallium" in rendered


class TestAliasedFieldWrite:
    """Historical bug: an L4 header-field store vanished from the server
    partition, so one packet leaves with the wrong field value."""

    @pytest.fixture(scope="class")
    def diverged(self, corpus):
        entry = corpus["l4_alias_hoist"]
        plan, program = reintroduce_bug(entry, irin.StorePacketField)
        return diverge_and_collect(entry, plan, program)

    def test_divergence_is_packet_indexed(self, diverged):
        result, _ = diverged
        assert result.divergence.kind == "field"
        assert result.divergence.packet_index is not None

    def test_diff_isolates_failing_packet(self, diverged):
        result, diff = diverged
        assert diff.divergent
        assert diff.stream.startswith(
            f"packet {result.divergence.packet_index} field"
        )
        # The deployment never wrote the field at all.
        assert diff.rhs_event is None
        assert diff.lhs_event["kind"] == "packet_write"
        assert "<no such event>" in diff.render()

    def test_only_packet_restricted_the_traces(self, diverged):
        result, diff = diverged
        for event in diff.lhs_context + diff.rhs_context:
            assert event["packet"] in (None, result.divergence.packet_index)


class TestCorpusAttachment:
    def test_trace_diff_rides_on_corpus_entries(self, corpus):
        entry = corpus["stranded_offloaded_register_write"]
        plan, program = reintroduce_bug(entry, irin.RegisterRMW)
        _, diff = diverge_and_collect(entry, plan, program)
        stored = CorpusEntry(
            name="regression",
            source=entry.source,
            stream=entry.stream,
            expect=Outcome.DIVERGE.value,
            trace_diff=diff.to_dict(),
        )
        clone = CorpusEntry.from_dict(stored.to_dict())
        assert clone.trace_diff == diff.to_dict()
        assert TraceDiff.from_dict(clone.trace_diff).render() == diff.render()

    def test_entries_without_provenance_stay_compact(self, corpus):
        entry = next(iter(corpus.values()))
        assert entry.trace_diff is None or isinstance(entry.trace_diff, dict)
        data = CorpusEntry(
            name="x", source="", stream=entry.stream
        ).to_dict()
        assert "trace_diff" not in data


class TestFaultProvenance:
    def test_fault_scenario_rerun_produces_a_diff(self):
        """The fault-side provenance machinery replays a fully seeded
        scenario with tracing on both the deployment and its fault-free
        reference; on the (healthy) historical corpus scenario the two
        traces must agree."""
        from repro.faults.corpus import (
            FaultCorpusEntry,
            load_corpus as load_fault_corpus,
        )
        from tests.telemetry.test_determinism import corpus_scenario

        entries = load_fault_corpus()
        assert entries, "historical fault corpus missing"
        entry = entries[0]
        diff = corpus_scenario().provenance()
        assert diff is not None
        assert not diff.divergent
        assert diff.lhs_events_total > 0
        # And the serialized form rides on fault corpus entries too.
        stored = FaultCorpusEntry(
            name="x", source=entry.source, stream=entry.stream,
            fault_plan=entry.fault_plan, policy=entry.policy,
            trace_diff=diff.to_dict(),
        )
        clone = FaultCorpusEntry.from_dict(stored.to_dict())
        assert clone.trace_diff == diff.to_dict()
