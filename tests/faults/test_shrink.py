"""Unit tests for the fault-plan delta-debugger (``faults --shrink``)."""

import pytest

from repro.difftest.generator import generate_program
from repro.difftest.oracle import StreamSpec
from repro.faults import (
    BatchFault,
    FaultPlan,
    LinkFault,
    ServerCrash,
    shrink_fault_case,
    shrink_plan,
)
from repro.faults.plan import (
    CrashDuringBatch,
    PoolMemberCrash,
    PoolMemberDrain,
    PrimarySwitchCrash,
    window_length,
)
from repro.faults.shrink import _spec_variants

PROGRAM = generate_program(1)
STREAM = StreamSpec(seed=1, count=20)


def test_spec_variants_are_strictly_smaller():
    spec = LinkFault(probability=0.4, start=2, stop=18)
    variants = _spec_variants(spec, STREAM.count)
    assert variants
    assert spec not in variants
    assert any(v.probability == 0.2 for v in variants)
    assert any(v.stop - v.start < 16 for v in variants)


def test_spec_variants_respect_probability_floor():
    spec = LinkFault(probability=0.015)
    assert all(
        v.probability >= 0.01 or v.probability == spec.probability
        for v in _spec_variants(spec, STREAM.count)
    )


def test_spec_variants_bound_open_windows():
    spec = BatchFault(probability=0.5, start=0, stop=None)
    variants = _spec_variants(spec, STREAM.count)
    assert any(v.stop == STREAM.count for v in variants)


def test_spec_variants_halve_outage():
    spec = ServerCrash(at_packet=4, outage=8)
    variants = _spec_variants(spec, STREAM.count)
    assert any(v.outage == 4 for v in variants)


WINDOWED = [
    PrimarySwitchCrash(at_packet=4, promotion_window=8),
    CrashDuringBatch(promotion_window=8),
    PoolMemberCrash(member="srv1", at_packet=4, migration_window=8),
    PoolMemberDrain(member="srv1", at_packet=4, drain_window=8),
]


@pytest.mark.parametrize("spec", WINDOWED, ids=lambda spec: spec.kind)
def test_every_windowed_kind_shrinks(spec):
    """Promotion, migration and drain windows used to be invisible to
    both passes (they knew ``outage`` / ``duration`` by name)."""
    from repro.difftest.shrink import ShrinkHints
    from repro.faults.shrink import _hint_variants

    assert any(
        window_length(v) == 4 for v in _spec_variants(spec, STREAM.count)
    )
    if hasattr(spec, "at_packet"):
        hinted = _hint_variants(spec, ShrinkHints(packet=5), STREAM.count)
        assert any(window_length(v) == 2 for v in hinted)
    # ... and a whole shrink halves an oversized window down to the
    # shortest one the predicate still accepts.
    plan = shrink_plan(
        PROGRAM, STREAM, FaultPlan((spec,)),
        lambda _p, _s, plan: bool(plan.faults)
        and window_length(plan.faults[0]) >= 2,
    )
    assert window_length(plan.faults[0]) == 2


def test_hint_variants_snap_window_to_divergent_packet():
    from repro.difftest.shrink import ShrinkHints
    from repro.faults.shrink import _hint_variants

    spec = LinkFault(probability=0.4, start=2, stop=18)
    variants = _hint_variants(spec, ShrinkHints(packet=5), STREAM.count)
    # Most aggressive candidate first: the one-packet window.
    assert variants[0].start == 5 and variants[0].stop == 6
    assert any(v.start == 2 and v.stop == 6 for v in variants)
    assert any(v.start == 5 and v.stop == 18 for v in variants)
    # A spec inactive at the divergent packet gets no snap candidates
    # (the snapped window could not reproduce the failure), and empty
    # hints degrade to blind behaviour.
    assert _hint_variants(spec, ShrinkHints(packet=1), STREAM.count) == []
    assert _hint_variants(spec, ShrinkHints(), STREAM.count) == []


def test_hint_variants_shorten_one_shot_effects():
    from repro.difftest.shrink import ShrinkHints
    from repro.faults.shrink import _hint_variants

    spec = ServerCrash(at_packet=2, outage=8)
    variants = _hint_variants(spec, ShrinkHints(packet=3), STREAM.count)
    # Just long enough for the outage to still cover the divergence.
    assert any(v.outage == 2 for v in variants)
    # A divergence index outside the stream is a stale hint: ignore it.
    assert _hint_variants(spec, ShrinkHints(packet=25), STREAM.count) == []


def test_shrink_plan_drops_irrelevant_specs():
    plan = FaultPlan(faults=(
        LinkFault(probability=0.3),
        ServerCrash(at_packet=5, outage=6),
        BatchFault(probability=0.4),
    ))

    def crash_matters(program, stream, candidate):
        return any(spec.kind == "crash" for spec in candidate.faults)

    shrunk = shrink_plan(PROGRAM, STREAM, plan, crash_matters)
    assert [spec.kind for spec in shrunk.faults] == ["crash"]
    # and the surviving spec was narrowed as far as the predicate allows
    assert shrunk.by_kind("crash")[0].outage == 1


def test_shrink_fault_case_requires_failing_start():
    def never(program, stream, plan):
        return False

    with pytest.raises(ValueError):
        shrink_fault_case(PROGRAM, STREAM, FaultPlan(), never)


def test_shrink_fault_case_minimizes_all_three_axes():
    plan = FaultPlan(faults=(
        LinkFault(probability=0.4),
        BatchFault(probability=0.4),
    ))

    def link_survives(program, stream, candidate):
        return any(spec.kind == "link" for spec in candidate.faults)

    program, stream, shrunk = shrink_fault_case(
        PROGRAM, STREAM, plan, link_survives
    )
    assert [spec.kind for spec in shrunk.faults] == ["link"]
    # the difftest shrinker ran too: the program/stream only got smaller
    assert stream.count <= STREAM.count
    assert len(program.source()) <= len(PROGRAM.source())
    assert link_survives(program, stream, shrunk)


class TestTraceGuidedShrinking:
    """The first-divergent-event stream orders shrink candidates."""

    @staticmethod
    def _historical_entry():
        from repro.faults.corpus import load_corpus

        entries = {e.name: e for e in load_corpus()}
        return entries["timeout_then_fail_exhaustion"]

    @staticmethod
    def _historical_trace_diff():
        """The entry's provenance: the divergence was packet 0's update
        batch (see its description) — the minimal diff dict the campaign
        would have attached."""
        return {
            "divergent": True,
            "stream": "state member 'nat_out'",
            "rhs_event": {
                "seq": 4, "time_us": 1.0, "component": "control_plane",
                "kind": "map_insert", "packet": 0,
                "detail": {"name": "nat_out"},
            },
        }

    def test_guided_converges_in_fewer_oracle_calls(self):
        """Replaying the historical corpus scenario (plus the kind of
        late-window bystander spec the campaign generator attaches),
        the guided plan shrink reaches the same minimum with strictly
        fewer oracle invocations than blind ddmin order."""
        from repro.faults.oracle import FaultOutcome, run_fault_oracle

        entry = self._historical_entry()
        # The un-minimized shape: the two culprit batch specs plus an
        # irrelevant fault active long after the packet-0 divergence.
        plan = FaultPlan(faults=entry.fault_plan.faults + (
            LinkFault(direction="to_server", mode="loss",
                      probability=0.3, start=10, stop=14),
        ))

        class _Source:
            @staticmethod
            def source():
                return entry.source

        def count_calls(counter):
            def predicate(program, stream, candidate):
                counter.append(1)
                replay = run_fault_oracle(
                    entry.source, stream, candidate,
                    policy=entry.policy,
                    injector_seed=entry.injector_seed,
                    deployment_seed=entry.deployment_seed,
                    provenance=False,
                )
                if replay.outcome is not FaultOutcome.DEGRADED_OK:
                    return False
                # Both batch faults must still be firing.
                return (replay.injected.get("batch_timeout", 0) > 0
                        and replay.injected.get("batch_fail", 0) > 0)
            return predicate

        blind_calls, guided_calls = [], []
        blind = shrink_plan(
            _Source, entry.stream, plan, count_calls(blind_calls)
        )
        guided = shrink_plan(
            _Source, entry.stream, plan, count_calls(guided_calls),
            trace_diff=self._historical_trace_diff(),
        )
        assert blind == guided  # same minimum either way
        assert all(spec.kind == "batch" for spec in guided.faults)
        assert len(guided_calls) < len(blind_calls)

    def test_guided_narrowing_snaps_windows_in_fewer_oracle_calls(self):
        """Widen the historical culprit windows to the full stream; the
        guided shrink snaps each straight back onto the packet-0
        divergence while blind binary narrowing pays O(log window)
        predicate calls per window end."""
        import dataclasses

        from repro.faults.oracle import FaultOutcome, run_fault_oracle

        entry = self._historical_entry()
        plan = FaultPlan(faults=tuple(
            dataclasses.replace(spec, start=0, stop=None)
            for spec in entry.fault_plan.faults
        ))

        def count_calls(counter):
            def predicate(program, stream, candidate):
                counter.append(1)
                replay = run_fault_oracle(
                    entry.source, stream, candidate,
                    policy=entry.policy,
                    injector_seed=entry.injector_seed,
                    deployment_seed=entry.deployment_seed,
                    provenance=False,
                )
                if replay.outcome is not FaultOutcome.DEGRADED_OK:
                    return False
                return (replay.injected.get("batch_timeout", 0) > 0
                        and replay.injected.get("batch_fail", 0) > 0)
            return predicate

        blind_calls, guided_calls = [], []
        blind = shrink_plan(
            entry.source, entry.stream, plan, count_calls(blind_calls)
        )
        guided = shrink_plan(
            entry.source, entry.stream, plan, count_calls(guided_calls),
            trace_diff=self._historical_trace_diff(),
        )
        # Delta debugging only promises *a* local minimum: blind halving
        # wanders (its seeded faults can keep firing in some off-center
        # window at a tiny probability), while the snap recovers exactly
        # the corpus entry's one-packet windows at the divergence...
        assert [(s.start, s.stop) for s in guided.faults] == [
            (s.start, s.stop) for s in entry.fault_plan.faults
        ]
        assert all(len(b.faults) == 2 for b in (blind, guided))
        # ...with strictly fewer oracle invocations.
        assert len(guided_calls) < len(blind_calls)

    def test_specs_not_covering_divergent_packet_dropped_first(self):
        plan = FaultPlan(faults=(
            BatchFault(probability=1.0, start=0, stop=1),
            LinkFault(probability=0.5, start=10, stop=15),
        ))
        tried = []

        def record_first_candidate(program, stream, candidate):
            tried.append(tuple(spec.kind for spec in candidate.faults))
            return False  # nothing droppable; we only observe the order

        from repro.faults.shrink import _drop_one_spec
        from repro.difftest.shrink import ShrinkHints

        _drop_one_spec(PROGRAM, STREAM, plan, record_first_candidate,
                       ShrinkHints(packet=0))
        # First candidate drops the link spec (inactive at packet 0).
        assert tried[0] == ("batch",)


def test_shrink_predicate_exception_propagates():
    """The fault oracle classifies every DUT and reference crash itself,
    so a predicate that *raises* is a harness bug: it propagates instead
    of being swallowed as "candidate rejected" (and, through the campaign
    loop, surfaces as ``HarnessBug`` with the reproduce line)."""
    plan = FaultPlan(faults=(LinkFault(probability=0.4),))
    calls = []

    def explosive(program, stream, candidate):
        calls.append(candidate)
        if len(calls) == 1:
            return True  # initial case holds
        raise RuntimeError("oracle blew up")

    with pytest.raises(RuntimeError, match="oracle blew up"):
        shrink_fault_case(PROGRAM, STREAM, plan, explosive)
