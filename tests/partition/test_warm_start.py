"""A move of the budget search warm-starts the must-defined dataflow, and
the answer is the cold one.

``ProjectionStatics.decide`` starts a side's dataflow from its previous
solution when the move kept the side's branches (so its edges) and either
only took instructions away or left the edges without a cycle: fewer
definitions only lower the greatest fixpoint, so iterating down from the
old one lands on the new one, and an acyclic dataflow has one fixpoint,
which any start reaches.  Only the blocks whose definitions changed, and
what their exits reach, are revisited.  Over the six bundled middleboxes
and the 60 generated programs of ``make cpp-check``, under
``tofino_like`` and ``tiny``, every decision the search makes with a
previous one is made again from the top and must be equal — the
``Boundary`` and its ``MustDefined`` solution, block by block.

Three seeded mutants must fail it: a warm start across an edge change (a
branch that left ``kept``), one that takes a loop for acyclic, and a
worklist that does not follow a changed exit to its successors.
"""

import contextlib
import inspect
import re
import textwrap
from typing import Callable, Dict, Tuple
from unittest import mock

import pytest

from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition import partitioner, projection
from repro.partition.constraints import SwitchResources
from repro.partition.projection import ProjectionStatics
from tests.codegen.cpp_check import GENERATED, sources

LIMITS = (SwitchResources.tofino_like, SwitchResources.tiny)
SOURCES: Dict[str, str] = dict(sources(GENERATED))
_LOWERED: dict = {}
COLD = ProjectionStatics.decide


class Disagreement(AssertionError):
    pass


def lowered(label: str):
    if label not in _LOWERED:
        _LOWERED[label] = lower_program(parse_program(SOURCES[label]))
    return _LOWERED[label]


def search(label: str, decide: Callable = COLD) -> Tuple[int, int]:
    """Partition ``label`` under both limits with ``decide`` in the
    search, each decision that had a previous one made again cold;
    returns the decisions that had one and those that warm-started."""
    counts = [0, 0]

    def checked(self, assignment, partition, previous=None):
        boundary = decide(self, assignment, partition, previous)
        if previous is not None:
            counts[0] += 1
            if previous.kept == boundary.kept and (
                previous.flow.acyclic
                or not boundary.flow.present & ~previous.flow.present
            ):
                counts[1] += 1
            cold = COLD(self, assignment, partition)
            if boundary != cold:
                raise Disagreement(
                    f"{label} {partition.name}: the warm decision differs"
                )
        return boundary

    with mock.patch.object(ProjectionStatics, "decide", checked):
        for limits in LIMITS:
            try:
                partitioner.partition_middlebox(lowered(label), limits())
            except partitioner.PartitionError:
                pass
    return counts[0], counts[1]


def test_every_warm_decision_is_the_cold_one():
    again = warm = 0
    for label in SOURCES:
        had, started = search(label)
        again += had
        warm += started
    # Most moves keep a side's branches: nearly nine in ten decisions
    # made again start warm; the rest change the edges or grow a side
    # around a loop.
    assert warm > 3000 and warm < again


def rewritten(name: str, pattern: str, replacement: str) -> Callable:
    """``ProjectionStatics.<name>`` with one piece of its source
    rewritten."""
    source = textwrap.dedent(inspect.getsource(getattr(ProjectionStatics, name)))
    mutated, hits = re.subn(pattern, replacement, source)
    assert hits == 1, pattern
    namespace = dict(vars(projection))
    exec(mutated, namespace)
    return namespace[name]


MUTANTS = {
    "across an edge change": ("decide", r"previous\.kept == kept", "True"),
    "a loop taken for acyclic": (
        "_must_defined", r"if successor <= at:", "if False:"
    ),
    "no successors followed": (
        "_settle",
        r"for successor in successors\[at\]:",
        "for successor in ():",
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_caught(mutant):
    name, pattern, replacement = MUTANTS[mutant]
    broken = rewritten(name, pattern, replacement)
    if name == "decide":
        decide, patch = broken, contextlib.nullcontext()
    else:
        decide, patch = COLD, mock.patch.object(ProjectionStatics, name, broken)
    with patch, pytest.raises(Disagreement):
        for label in SOURCES:
            search(label, decide)
