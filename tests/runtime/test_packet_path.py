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

from repro.codegen.headers import ShimDecodeError
from repro.faults.injector import FaultInjector
from repro.runtime.cache import CacheConfigurationError
from repro.runtime.deployment import PacketJourney, PuntCompletion
from repro.runtime.server import ServerResult
from repro.switchsim.control_plane import UpdateBatchResult
from repro.switchsim.program import SERVER_PORT
from repro.switchsim.switch_model import SHIM_DIR_KEY, SHIM_KEY, SwitchOutput
from repro.telemetry.metrics import Histogram
from tests.runtime import golden_pins
from tests.runtime.golden_pins import (
    MIDDLEBOXES,
    PUNT_PATH_FLAVOURS,
    build,
    churn_stream,
)

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

    def test_punt_answers_set_every_bare_field(self):
        """The punt path's answers skip the constructor too: the switch's
        punt exit and return leg (``test_specialization.py`` walks all
        five of its exits), the batch result, the punt completion, the
        journey; the server's result is whole too."""
        seen = {kind: [] for kind in (
            SwitchOutput, ServerResult, UpdateBatchResult, PuntCompletion,
            PacketJourney,
        )}
        for name in ("mazunat", "trojan", "lb"):
            box = build("base", name, None)
            for owner, attribute in (
                (box.switch, "receive"), (box.server, "handle"),
                (box.switch.control_plane, "apply_batch"),
                (box, "complete_punt"), (box, "process_packet"),
            ):
                def watched(*args, _call=getattr(owner, attribute)):
                    answer = _call(*args)
                    seen[type(answer)].append(answer)
                    return answer
                setattr(owner, attribute, watched)
            for packet, port in churn_stream(name)[:600]:
                box.process_packet(packet.copy(), port)
        # Answered, punted, and back from the server.
        assert {(output.fast_path, output.punted)
                for output in seen[SwitchOutput]} == {
            (True, False), (False, True), (False, False)}
        for kind, answers in seen.items():
            assert answers, kind
            bare = {field.name for field in dataclasses.fields(kind)
                    if field.name not in vars(kind)}
            for answer in answers:
                assert bare <= set(vars(answer)), kind
                assert answer == kind(**{
                    field.name: getattr(answer, field.name)
                    for field in dataclasses.fields(kind)
                })

    def test_consecutive_punts_share_nothing(self):
        box = build("base", "mazunat", None)
        first, second = [
            journey for journey in (
                box.process_packet(packet.copy(), port)
                for packet, port in churn_stream("mazunat")[:200]
            ) if journey.punted
        ][:2]
        assert first is not second
        assert first.emitted is not second.emitted
        assert first.emitted[0] is not second.emitted[0]
        expected = rebuilt(second)
        expected.emitted = list(second.emitted)
        first.emitted.clear()
        first.verdict, first.sync_tables, first.retries = "drop", 9, 9
        assert second == expected
        third = next(
            journey for journey in (
                box.process_packet(packet.copy(), port)
                for packet, port in churn_stream("mazunat")[200:400]
            ) if journey.punted
        )
        assert third == rebuilt(third)
        assert (third.verdict, third.retries, len(third.emitted)) == (
            "send", 0, 1)

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
        # the methods; the fast path folds both into the loop, and a
        # fault-free batch its clock advance and zero queue wait.
        assert 0 < calls["sim.clock.advance"] <= 8 * punts
        assert 0 < calls["telemetry.histogram.observe"] <= 8 * punts
        assert summary["closure_error"] <= 0.05

    def test_each_punt_fires_its_wrappers(self, perfbench):
        """Per punt: both legs through ``receive``, one ``handle``, at
        most one ``apply_batch`` — the wrappers sit on instance
        attributes, so each boundary is still a lookup at call time."""
        packet_path, spans = perfbench
        box = build("base", "lb", None)
        recorder = spans.SpanRecorder(packet_path.ROOT_SPAN)
        packet_path.instrument(recorder, box)
        punts = 0
        for packet, port in churn_stream("lb")[:300]:
            before = len(recorder.names)
            journey = box.process_packet(packet.copy(), port)
            fired = recorder.names[before:]
            if not journey.punted:
                assert fired.count("switchsim.receive") == 1
                assert "runtime.server.handle" not in fired
                continue
            punts += 1
            assert fired.count("switchsim.receive") == 2
            assert fired.count("runtime.server.handle") == 1
            assert fired.count("switchsim.control_plane.apply_batch") == (
                1 if journey.sync_tables else 0)
        recorder.unwrap_all()
        assert punts > 10

    def test_a_pure_fast_path_crosses_two_boundaries(self, perfbench):
        packets = 200
        box, summary, calls = spanned_run(perfbench, "firewall", packets)
        assert box.switch.punted_packets == 0
        assert calls == {
            "runtime.deployment.process_packet": packets,
            "switchsim.receive": packets,
        }
        assert summary["closure_error"] <= 0.05


class TestShortShimsEndInADiagnostic:
    """A truncated or absent shim at either receiver is a
    ``ShimDecodeError`` naming the leg, never a bare error from inside."""

    def punt(self, name="mazunat"):
        box = build("base", name, None)
        for packet, port in churn_stream(name):
            output = box.switch.receive(packet.copy(), port)
            if output.punted:
                return box, output.emitted[0][1]
        raise AssertionError("no punt in the stream")

    @pytest.mark.parametrize("keep", [None, 0, 1])
    def test_server_side(self, keep):
        box, frame = self.punt()
        expected = box.program.shim_to_server.byte_size
        assert expected > 1
        if keep is None:
            del frame.metadata[SHIM_KEY]
        else:
            frame.metadata[SHIM_KEY] = frame.metadata[SHIM_KEY][:keep]
        with pytest.raises(ShimDecodeError) as caught:
            box.server.handle(frame)
        assert (caught.value.direction, caught.value.expected,
                caught.value.received) == ("to_server", expected, keep or 0)

    @pytest.mark.parametrize("keep", [None, 0, 2])
    def test_switch_side(self, keep):
        box, frame = self.punt()
        served = box.server.handle(frame)
        expected = box.program.shim_to_switch.byte_size
        assert expected > 2
        if keep is None:
            del served.packet.metadata[SHIM_KEY]
        else:
            served.packet.metadata[SHIM_KEY] = (
                served.packet.metadata[SHIM_KEY][:keep])
        with pytest.raises(ShimDecodeError) as caught:
            box.switch.receive(served.packet, SERVER_PORT)
        assert (caught.value.direction, caught.value.expected,
                caught.value.received) == ("to_switch", expected, keep or 0)


class TestTheAnnotationArea:
    """A packet's annotation area is made on first write: the fast path
    writes none, and what the punt path writes (the shim and its
    direction) never leaves the deployment on an emitted frame."""

    def test_a_fast_path_packet_allocates_no_annotation_area(self):
        box = build("base", "proxy", None)
        answered = 0
        for packet, port in churn_stream("proxy")[:200]:
            frame = packet.copy()
            journey = box.process_packet(frame, port)
            if not journey.punted:
                answered += 1
                assert frame._meta is None
                assert all(out._meta is None for _, out in journey.emitted)
        assert answered > 100

    @pytest.mark.parametrize("flavour", PUNT_PATH_FLAVOURS)
    def test_no_emitted_frame_carries_a_shim(self, flavour):
        punts = 0
        for name in MIDDLEBOXES:
            try:
                box = build(flavour, name, None)
            except CacheConfigurationError:
                continue  # not admitted in cache mode
            for packet, port in churn_stream(name)[:1000]:
                journey = box.process_packet(packet.copy(), port)
                punts += journey.punted
                for _, frame in journey.emitted:
                    assert SHIM_KEY not in frame.metadata, (name, journey)
                    assert SHIM_DIR_KEY not in frame.metadata, (name, journey)
        assert punts > 100
