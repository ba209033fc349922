"""The refinement passes keep their pins in one representation.

Structural guard, in the manner of ``tests/verify/test_one_checker.py``:
a pin is a bit of the label engine's ``pinned_pre`` / ``pinned_post``, so
the label-set vocabulary the passes once kept beside it (the ``Label``
enum, a ``removed`` dictionary, per-instruction ``partition_of``) is gone
from ``src/repro/partition/``; every rule evaluation goes through the
partitioner's module global, which the benchmark's
``partition.label_removal_calls`` and the move recorder of
``refinement_moves.py`` wrap; and the compile-pin sweep evaluates the
rules exactly as often as it did before the pins became bits.
"""

import ast
from pathlib import Path
from unittest import mock

import repro.partition
from repro.ir import lower_program
from repro.lang import parse_program
from repro.partition import labels, partitioner
from repro.partition.constraints import SwitchResources
from tests.partition import compile_pins

PARTITION = Path(repro.partition.__file__).parent

#: what the pins used to be kept in
RETIRED = {
    "Label", "removed", "partition_of", "labels", "offloaded_count",
    "_OFFLOAD_LABELS", "_partitions",
}

#: ``run_label_removal`` calls over the compile-pin sweep (its 46 programs
#: under ``tofino_like`` and ``tiny``): 632 + 1 211 counted on the commit
#: before the pins became bits; ``tiny``'s 1 211 became 1 278 when
#: constraint 4 became the allocation held to the shim boundary, which
#: moves more of its programs' statements to the server, and 1 322 when
#: that allocation followed the stage order (eight ``tiny`` plans no
#: longer fit 16 B and move more)
RULE_EVALUATIONS = 1954


def identifiers(tree: ast.AST):
    """Every name the code of ``tree`` binds or reads (not its prose)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1]


def test_the_label_set_vocabulary_is_gone():
    found = {
        (path.name, name)
        for path in sorted(PARTITION.glob("*.py"))
        for name in identifiers(ast.parse(path.read_text()))
        if name in RETIRED
    }
    assert found == set()


def walks_the_instructions(node: ast.AST) -> bool:
    """``for … in <x>.instructions`` or ``enumerate(<x>.instructions)``."""
    loops = (ast.For, ast.comprehension)
    return isinstance(node, loops) and any(
        isinstance(part, ast.Attribute) and part.attr == "instructions"
        for part in ast.walk(node.iter)
    )


def test_the_passes_read_masks_not_instructions():
    """The partitioner walks the source function's instructions only where
    it builds something once: the masks, the distance orders and the
    constraint-2 pruning.  A pass reads bitsets; the plan's dictionary is
    built once, by ``LabelAssignment.assignment``."""
    tree = ast.parse((PARTITION / "partitioner.py").read_text())
    functions = [
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    walkers = {
        function.name
        for function in functions
        if any(walks_the_instructions(node) for node in ast.walk(function))
    }
    assert walkers == {"partition_middlebox", "__init__", "_by_distance"}
    readers = {
        function.name
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "assignment"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"partition_middlebox"}


def test_the_sweep_evaluates_the_rules_through_the_module_global():
    """Counted at the partitioner's global and inside the engine (every
    evaluation reads ``LabelStatics.of``): the two counts agree, so none
    bypasses the wrapper, and they equal the count before the pins became
    bits."""
    through_global = inside = 0
    run = partitioner.run_label_removal
    statics = labels.LabelStatics.of

    def counted_run(*args):
        nonlocal through_global
        through_global += 1
        return run(*args)

    def counted_statics(graph):
        nonlocal inside
        inside += 1
        return statics(graph)

    with mock.patch.object(
        partitioner, "run_label_removal", counted_run
    ), mock.patch.object(labels.LabelStatics, "of", counted_statics):
        for limits in (SwitchResources.tofino_like(), SwitchResources.tiny()):
            for _, source in compile_pins.sources():
                lowered = lower_program(parse_program(source))
                try:
                    partitioner.partition_middlebox(lowered, limits)
                except partitioner.PartitionError:
                    pass
    assert inside == through_global == RULE_EVALUATIONS
