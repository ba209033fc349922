"""Golden pins for the partitioner's refinement *moves*, not just its result.

``compile_pins`` shows that every compile still ends where it did; this
shows it got there the same way.  Each pin is the ordered list of
``"phase position label"`` the refinement passes of §4.2.2 pinned away
while partitioning one program — ``phase`` the pass that pinned
(``_enforce_memory``, ``_enforce_single_access``,
``_enforce_write_locality``, ``_enforce_budgets``, or ``driver`` for the
constraint-2 pruning and the stranded-writer re-check in
``partition_middlebox`` itself), ``position`` the instruction's index in
the source function (ids come from a process-wide counter), ``label`` the
label removed.  It was recorded on the commit *before* the label engine
went closed-form and ``_enforce_budgets`` started reusing its unchanged
side, over the programs and limits of the compile-pin sweep.

Nothing in ``src/`` is instrumented: the recorder watches the two pin
bitsets through the module globals the partitioner calls — at every
``run_label_removal`` (except inside ``_enforce_single_access``, whose rule
runs are trials) and at every pass's exit, on the pins of the assignment
the pass returns — and records the bits it has not seen yet.

The nine longest generated programs — the ones that do most of the
budget search — were recorded on the commit before that search stopped
projecting every iteration.  Tier-1 runs the whole sweep
(``test_refinement_moves.py``, ~3 s).

    PYTHONPATH=src python -m tests.partition.refinement_moves [--write]
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List
from unittest import mock

from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition import partitioner
from repro.partition.constraints import SwitchResources
from tests.partition import compile_pins

GOLDEN = Path(__file__).parent / "golden" / "refinement_moves.json"

PHASES = (
    "_enforce_memory",
    "_enforce_single_access",
    "_enforce_write_locality",
    "_enforce_budgets",
)


def record_moves(lowered, limits: SwitchResources) -> dict:
    """Partition ``lowered`` and return its ordered pin list and outcome."""
    position = {
        inst.id: index
        for index, inst in enumerate(lowered.process.instructions())
    }
    moves: List[str] = []
    #: the pins already recorded, per label
    committed = {"pre": 0, "post": 0}
    phase = ["driver"]

    def flush(graph, pinned_pre: int, pinned_post: int) -> None:
        fresh = []
        for label, pins in (("pre", pinned_pre), ("post", pinned_post)):
            new = pins & ~committed[label]
            committed[label] |= pins
            fresh += [
                (position[inst.id], label)
                for at, inst in enumerate(graph.instructions) if new >> at & 1
            ]
        moves.extend(f"{phase[0]} {at} {label}" for at, label in sorted(fresh))

    original = partitioner.run_label_removal

    def watched_rules(graph, pinned_pre, pinned_post):
        if phase[0] != "_enforce_single_access":
            flush(graph, pinned_pre, pinned_post)
        return original(graph, pinned_pre, pinned_post)

    def watched_pass(name):
        inner = getattr(partitioner, name)

        def run_pass(*args):
            phase[0] = name
            try:
                result = inner(*args)
                # _enforce_budgets returns it with its projections
                assignment = result[0] if isinstance(result, tuple) else result
                flush(assignment.graph, assignment.pinned_pre,
                      assignment.pinned_post)
                return result
            finally:
                phase[0] = "driver"

        return run_pass

    patches = [mock.patch.object(partitioner, "run_label_removal", watched_rules)]
    patches += [
        mock.patch.object(partitioner, name, watched_pass(name))
        for name in PHASES
    ]
    for patch in patches:
        patch.start()
    try:
        partitioner.partition_middlebox(lowered, limits)
        outcome = "partitioned"
    except partitioner.PartitionError:
        outcome = "PartitionError"
    finally:
        for patch in patches:
            patch.stop()
    return {"moves": moves, "outcome": outcome}


def move_pins(limits: SwitchResources) -> Dict[str, dict]:
    return {
        label: record_moves(lower_program(parse_program(source)), limits)
        for label, source in compile_pins.sources()
    }


#: group name -> ``pins()``
GROUPS = {
    "tofino_like": lambda: move_pins(SwitchResources.tofino_like()),
    "tiny": lambda: move_pins(SwitchResources.tiny()),
}


def compute() -> Dict[str, dict]:
    return {group: pins() for group, pins in GROUPS.items()}


def main(argv: List[str]) -> int:
    return compile_pins.run(argv, GOLDEN, compute, "refinement moves")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
