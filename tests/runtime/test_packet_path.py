"""The short packet path: what it hands out, and who can still watch it.

``GalliumMiddlebox.process_packet`` answers a fast-path packet without
building its journey through the dataclass constructor and without a call
per clock / histogram update.  These tests hold the two things that makes
easy to break: journeys are still whole, private objects on every exit,
and a layer boundary that is still crossed is still a late-bound
attribute the benchmark's span recorder can wrap.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.faults.injector import FaultInjector
from repro.runtime.deployment import PacketJourney
from repro.switchsim.switch_model import SwitchOutput
from repro.telemetry.metrics import Histogram
from tests.runtime import golden_pins
from tests.runtime.golden_pins import build, churn_stream

FIELDS = dataclasses.fields(PacketJourney)
DEFAULTS = {
    field.name: ([] if field.default_factory is not dataclasses.MISSING
                 else field.default)
    for field in FIELDS if field.name != "verdict"
}


def rebuilt(journey: PacketJourney) -> PacketJourney:
    """The same journey through the dataclass constructor."""
    return PacketJourney(**{
        field.name: getattr(journey, field.name) for field in FIELDS
    })


class TestJourneysAreWholeAndPrivate:
    def test_consecutive_fast_path_journeys_share_nothing(self):
        box = build("base", "proxy", None)  # forwards every packet
        sends = churn_stream("proxy")[:2]
        first, second = (
            box.process_packet(packet.copy(), port) for packet, port in sends
        )
        assert first.verdict == second.verdict == "send"
        assert first is not second
        assert first.emitted is not second.emitted
        assert first.emitted[0] is not second.emitted[0]
        expected = rebuilt(second)
        expected.emitted = list(second.emitted)
        # Mutating the first reaches neither the second nor the class
        # defaults every later journey starts from.
        first.emitted.clear()
        first.verdict, first.punted, first.sync_tables = "drop", True, 9
        first.degraded_reason = "scribbled"
        assert second == expected
        third = box.process_packet(sends[0][0].copy(), sends[0][1])
        assert third == rebuilt(third)
        assert (third.punted, third.sync_tables, third.degraded_reason) == (
            False, 0, None)
        assert len(third.emitted) == 1

    def test_dropped_journeys_do_not_share_their_empty_list(self):
        box = build("base", "firewall", None)
        first, second, third = [
            journey for journey in (
                box.process_packet(packet.copy(), port)
                for packet, port in churn_stream("firewall")[:200]
            ) if journey.verdict == "drop"
        ][:3]
        assert first.emitted is not second.emitted
        first.emitted.append("scribble")
        assert second.emitted == third.emitted == []

    def test_switch_outputs_are_whole(self):
        box = build("base", "firewall", None)
        for packet, port in churn_stream("firewall")[:50]:
            output = box.switch.receive(packet.copy(), port)
            assert output == SwitchOutput(
                emitted=output.emitted, fast_path=True,
                dropped=not output.emitted,
                pipeline_instructions=output.pipeline_instructions,
            )

    def test_answers_built_without_the_constructor_set_every_bare_field(self):
        """``object.__new__`` skips ``__init__``: a field is there only
        if the class holds its default or the short path assigns it."""
        box = build("base", "firewall", None)
        stream = churn_stream("firewall")[:200]
        outputs = [box.switch.receive(packet.copy(), port)
                   for packet, port in stream]
        journeys = [box.process_packet(packet.copy(), port)
                    for packet, port in stream]
        for answers in (outputs, journeys):
            assert {bool(answer.emitted) for answer in answers} == {
                True, False}  # both shapes: sent and dropped
            kind = type(answers[0])
            bare = {field.name for field in dataclasses.fields(kind)
                    if field.name not in vars(kind)}
            assert bare  # ``emitted`` at least: a default_factory
            for answer in answers:
                assert bare <= set(vars(answer))

    def test_inlined_histogram_updates_are_observe(self):
        """``receive`` and ``process_packet`` apply ``Histogram.observe``'s
        four updates themselves; fed the same values through the method,
        a fresh histogram ends bit-identical."""
        box = build("base", "proxy", None)
        mine = {
            "pre": box.switch._h_pre, "latency": box._h_latency,
        }
        fresh = {key: Histogram(histogram.name, histogram.bounds)
                 for key, histogram in mine.items()}
        sizes = set()
        for index, (packet, port) in enumerate(churn_stream("proxy")):
            packet = packet.copy()
            packet.payload = packet.payload * (1 + index % 3)
            sizes.add(packet.wire_length())
            journey = box.process_packet(packet, port)
            assert journey.fast_path
            fresh["pre"].observe(journey.pre_instructions)
            fresh["latency"].observe(
                box._latency_model.fast_path_us(packet.wire_length()))
        assert len(sizes) > 2
        for key, histogram in mine.items():
            assert histogram.count > 0
            assert histogram.to_dict() == fresh[key].to_dict()
            assert histogram.sum == fresh[key].sum
            assert histogram.max_observed == fresh[key].max_observed

    @pytest.mark.parametrize("flavour, name", [
        ("base", "mazunat"), ("cached", "minilb"), ("failover-phi", "lb"),
        ("pooled", "trojan"),
    ])
    def test_every_exit_yields_every_field(self, flavour, name):
        """Clean and faulted runs between them leave ``process_packet``
        through every exit: answered on the switch, punted and served,
        queued, lost, degraded open or closed, fallback.  Each journey
        has all 17 fields, the ones its exit does not set at their
        documented defaults."""
        exits = set()
        for faulted in (False, True):
            injector = FaultInjector(
                golden_pins.FAULT_PLANS[flavour], seed=3
            ) if faulted else None
            box = build(flavour, name, injector)
            journeys = []
            for packet, port in churn_stream(name):
                journeys.append(box.process_packet(packet.copy(), port))
                journeys.extend(box.drain_deferred())
            box.recover()
            journeys.extend(box.drain_deferred())
            for journey in journeys:
                assert journey == rebuilt(journey)
                set_here = {
                    key for key, default in DEFAULTS.items()
                    if getattr(journey, key) != default
                }
                exits.add((
                    journey.fast_path, journey.punted, journey.queued,
                    journey.fallback, journey.degraded,
                ))
                if journey.fast_path:
                    assert set_here <= {
                        "emitted", "fast_path", "pre_instructions",
                        "packet_index",
                    }
                if not journey.degraded:
                    assert journey.degraded_reason is None
                if not faulted:
                    assert journey.packet_index is None
                    assert set_here.isdisjoint({
                        "degraded", "queued", "fallback", "retries",
                        "retry_wait_us", "stale_wait_us",
                    })
        assert len(exits) >= 4, exits


# -- the benchmark's span recorder ------------------------------------------------

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """``perfbench/spans.py`` and ``packet_path.instrument`` themselves:
    the benchmark wraps instance attributes after construction, and this
    is the code that does it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import packet_path
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return packet_path, spans


def spanned_run(perfbench, name, packets):
    packet_path, spans = perfbench
    plain = build("base", name, None)
    watched = build("base", name, None)
    recorder = spans.SpanRecorder(packet_path.ROOT_SPAN)
    packet_path.instrument(recorder, watched)
    stream = churn_stream(name)[:packets]
    for box in (plain, watched):
        journeys = [
            golden_pins._journey_row(box.process_packet(packet.copy(), port))
            for packet, port in stream
        ]
        box.journeys = journeys
    summary = recorder.summary()
    recorder.unwrap_all()
    # Watching changes nothing the simulation can see.
    assert watched.journeys == plain.journeys
    assert (watched.telemetry.metrics.to_dict()
            == plain.telemetry.metrics.to_dict())
    assert watched.telemetry.clock.now_us == plain.telemetry.clock.now_us
    calls = {layer: stats["calls"]
             for layer, stats in summary["layers"].items()}
    return watched, summary, calls


class TestSpanRecorderStillSeesTheLayers:
    def test_boundaries_still_crossed_fire_their_wrappers(self, perfbench):
        packets = 400
        box, summary, calls = spanned_run(perfbench, "mazunat", packets)
        punts = box.switch.punted_packets
        assert 0 < punts < packets
        assert calls["runtime.deployment.process_packet"] == packets
        # One crossing per packet, one more for each punt's return leg.
        assert calls["switchsim.receive"] == packets + punts
        assert calls["runtime.server.handle"] == punts
        batches = box.telemetry.metrics.counter_value(
            "control_plane.batches_applied")
        assert calls["switchsim.control_plane.apply_batch"] == batches > 0
        # The punt path still advances the clock and observes through
        # the methods; the fast path folds both into the loop.
        assert 0 < calls["sim.clock.advance"] <= 8 * punts
        assert 0 < calls["telemetry.histogram.observe"] <= 8 * punts
        assert summary["closure_error"] <= 0.05

    def test_a_pure_fast_path_crosses_two_boundaries(self, perfbench):
        packets = 200
        box, summary, calls = spanned_run(perfbench, "firewall", packets)
        assert box.switch.punted_packets == 0
        assert calls == {
            "runtime.deployment.process_packet": packets,
            "switchsim.receive": packets,
        }
        assert summary["closure_error"] <= 0.05
