"""Delta-debugging for fault-campaign failures.

A campaign failure is a triple ``(program, stream, fault_plan)``; the
difftest shrinker only knows the first two.  This module minimizes the
fault plan itself — drop whole specs, narrow activity windows, halve
probabilities — and then reuses :func:`repro.difftest.shrink.shrink_case`
with the plan held fixed, so the reproducer committed to
``tests/faults_corpus/`` is minimal along every axis.

The predicate contract mirrors the difftest shrinker:
``predicate(program, stream, fault_plan) -> bool``, True iff the
interesting behaviour (usually "the fault oracle still reports the same
violation kind") persists.  ``shrink_fault_case`` never returns a triple
that fails the predicate.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, List, Tuple

from repro.difftest.generator import GenProgram
from repro.difftest.oracle import StreamSpec
from repro.difftest.shrink import ShrinkHints, shrink_case
from repro.faults.plan import FaultPlan, window_length

FaultPredicate = Callable[[GenProgram, StreamSpec, FaultPlan], bool]

_NO_HINTS = ShrinkHints()

#: Probability floor below which halving stops (a fault that fires with
#: p < 1% on a 25-packet stream is effectively off, and the predicate
#: would reject it anyway).
_MIN_PROBABILITY = 0.01


def _drop_one_spec(
    program: GenProgram,
    stream: StreamSpec,
    plan: FaultPlan,
    predicate: FaultPredicate,
    hints: ShrinkHints = _NO_HINTS,
) -> Tuple[FaultPlan, bool]:
    order = list(range(len(plan.faults)))
    if hints.packet is not None:
        # Specs that were not even active at the divergent packet are the
        # likeliest dead weight — try dropping those first (stable sort
        # keeps the blind order within each class).
        order.sort(key=lambda i: plan.faults[i].active(hints.packet))
    for index in order:
        candidate = FaultPlan(
            faults=plan.faults[:index] + plan.faults[index + 1:]
        )
        if predicate(program, stream, candidate):
            return candidate, True
    return plan, False


def _spec_variants(spec, stream_len: int) -> List:
    """Strictly-smaller variants of one fault spec, most aggressive first."""
    variants: List = []

    def replace(**kwargs) -> None:
        candidate = dataclasses.replace(spec, **kwargs)
        if candidate != spec and candidate not in variants:
            variants.append(candidate)

    for name in ("probability", "doom_probability"):
        value = getattr(spec, name, None)
        if value and value / 2 >= _MIN_PROBABILITY:
            replace(**{name: value / 2})
    start = getattr(spec, "start", None)
    stop = getattr(spec, "stop", None)
    if start is not None:
        if stop is None:
            replace(stop=stream_len)
        elif stop - start > 1:
            mid = (start + stop + 1) // 2
            replace(stop=mid)
            replace(start=(start + stop) // 2)
    length = window_length(spec)
    if length is not None and length > 1:
        replace(**{spec.window_field: length // 2})
    return variants


def _hint_variants(spec, hints: ShrinkHints, stream_len: int) -> List:
    """Trace-guided variants: snap the spec's activity window to the
    divergent packet.

    Packets after the divergence cannot have caused it, and the window
    before it is usually dead weight too — so the single most promising
    candidate collapses the whole window onto that one packet.  The blind
    binary narrowing in :func:`_spec_variants` reaches the same plan
    eventually but needs O(log window) predicate (= oracle) calls per end;
    a correct hint gets there in one.
    """
    packet = hints.packet
    if packet is None or not 0 <= packet < stream_len:
        return []
    variants: List = []

    def replace(**kwargs) -> None:
        candidate = dataclasses.replace(spec, **kwargs)
        if candidate != spec and candidate not in variants:
            variants.append(candidate)

    start = getattr(spec, "start", None)
    stop = getattr(spec, "stop", None)
    if start is not None and packet >= start and (
        stop is None or packet < stop
    ):
        # Most aggressive first: the one-packet window, then each end
        # snapped separately (in case the fault needs lead-in or rampdown).
        replace(start=packet, stop=packet + 1)
        replace(stop=packet + 1)
        replace(start=packet)
    at_packet = getattr(spec, "at_packet", None)
    if at_packet is not None and at_packet <= packet:
        # One-shot specs: shorten the effect to just cover the divergence.
        needed = packet - at_packet + 1
        length = window_length(spec)
        if length is not None and needed < length:
            replace(**{spec.window_field: needed})
    return variants


def _shrink_one_spec(
    program: GenProgram,
    stream: StreamSpec,
    plan: FaultPlan,
    predicate: FaultPredicate,
    hints: ShrinkHints = _NO_HINTS,
) -> Tuple[FaultPlan, bool]:
    for index, spec in enumerate(plan.faults):
        variants = _hint_variants(spec, hints, stream.count)
        for blind in _spec_variants(spec, stream.count):
            if blind not in variants:
                variants.append(blind)
        for variant in variants:
            candidate = FaultPlan(
                faults=plan.faults[:index] + (variant,)
                + plan.faults[index + 1:]
            )
            if predicate(program, stream, candidate):
                return candidate, True
    return plan, False


def shrink_plan(
    program: GenProgram,
    stream: StreamSpec,
    plan: FaultPlan,
    predicate: FaultPredicate,
    trace_diff=None,
) -> FaultPlan:
    """Minimize the fault plan alone, program and stream held fixed."""
    hints = ShrinkHints.from_trace_diff(trace_diff)
    for _ in range(200):  # every round shrinks; the bound caps wall time
        plan, dropped = _drop_one_spec(program, stream, plan, predicate,
                                       hints)
        if dropped:
            continue
        plan, narrowed = _shrink_one_spec(program, stream, plan, predicate,
                                          hints)
        if not narrowed:
            break
    return plan


def shrink_fault_case(
    program: GenProgram,
    stream: StreamSpec,
    plan: FaultPlan,
    predicate: FaultPredicate,
    trace_diff=None,
) -> Tuple[GenProgram, StreamSpec, FaultPlan]:
    """Reduce ``(program, stream, fault_plan)`` while ``predicate`` holds.

    ``trace_diff`` (the failure's first-divergent-event provenance)
    orders candidates on every axis: fault specs inactive at the
    divergent packet are dropped first, the stream is truncated right
    after it, and statements never touching the divergent state members
    are deleted first.  Raises ``ValueError`` if the initial triple does
    not satisfy the predicate (nothing to shrink).
    """
    program = copy.deepcopy(program)
    if not predicate(program, stream, plan):
        raise ValueError(
            "shrink_fault_case: initial case does not satisfy the predicate"
        )
    # Plan first: fewer active faults usually lets far more of the program
    # be deleted in the second phase.
    plan = shrink_plan(program, stream, plan, predicate,
                       trace_diff=trace_diff)

    def fixed_plan_predicate(p: GenProgram, s: StreamSpec) -> bool:
        return predicate(p, s, plan)

    program, stream = shrink_case(
        program, stream, fixed_plan_predicate, trace_diff=trace_diff
    )
    # A shorter stream may admit narrower windows; one more plan pass.
    plan = shrink_plan(program, stream, plan, predicate,
                       trace_diff=trace_diff)
    return program, stream, plan
