"""One static-check layer on the compile path.

Structural guard, in the manner of ``tests/runtime/test_one_loop.py`` and
``tests/difftest/test_one_kernel.py``: every artifact is checked by one
checker, every constraint is measured by one function, and the fail-fast
validators are views — they refuse exactly what the diagnostic verifier
reports, and check nothing of their own.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.analysis import depgraph
from repro.compiler import compile_source
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program
from repro.ir.validate import IRValidationError, validate_function
from repro.partition import constraints
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.program import SwitchProgramError
from repro.verify import lint_switch_program
from repro.verify.diagnostics import first_error
from repro.verify.invariants import shim_budget
from repro.verify.ir_verifier import verify_structure
from tests.verify.test_ir_verifier import STRUCTURAL_FIXTURES
from tests.verify.test_p4lint import MUTATIONS, build_program

SRC = Path(repro.__file__).parent

#: the restatements this layer replaced
RETIRED = {
    "_projected_depth", "_measure", "_validate_pipeline",
    "_mutually_exclusive_accesses", "_mutually_exclusive",
    "constraint_violations", "admit_single", "_definitions",
    "_check_shim_budget", "transfer_variables", "_rematerializable_loads",
    "peak_live_bytes", "_collect_metadata",
}


@lru_cache(maxsize=None)
def modules():
    """``(module, text, its function defs)`` of every file under src/repro."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        defs = [
            node for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef)
        ]
        found.append((path.relative_to(SRC).as_posix(), text, defs))
    return found


def body(module: str, function: str) -> str:
    return next(
        ast.get_source_segment(text, node)
        for name, text, defs in modules() if name == module
        for node in defs if node.name == function
    )


def sites(needle: str, outside: str = ""):
    """``(module, innermost function)`` of every line holding ``needle``."""
    found = set()
    for module, text, defs in modules():
        if outside and module.startswith(outside):
            continue
        for number, line in enumerate(text.splitlines(), 1):
            if needle in line:
                enclosing = [
                    d.name for d in sorted(defs, key=lambda d: d.lineno)
                    if d.lineno <= number <= d.end_lineno
                ]
                found.add((module, enclosing[-1] if enclosing else None))
    return sorted(found)


def test_each_fact_is_written_once():
    # The must-defined equations: over a built function's name sets (what
    # the verifier reads), and over the source function's bitsets (what the
    # budget search decides on before it builds one) —
    # tests/partition/test_transfer_model.py holds the second to the first.
    assert sites("incoming &=") == [
        ("ir/validate.py", "_must_defined"),
        ("partition/projection.py", "_settle"),
    ]
    assert sites("can_happen_after(", outside="analysis/") == [
        ("partition/constraints.py", "_guards"),
        ("partition/constraints.py", "co_reachable"),
    ]
    # Constraint 1's state bytes: tests/test_one_definition.py.
    assert sites("transfer_bytes + 2") == [
        ("verify/invariants.py", "shim_budget")
    ]


def test_pipelines_are_measured_in_one_function():
    """``measure_pipeline`` for the projections; ``partition_middlebox``
    keeps the constraint-2 pruning over the *source* function.  Constraint
    4 is the allocation the budget search asks for with the transfer set
    it holds, and the program — its lint and its emitted ``metadata_t`` —
    with its shim layouts."""
    assert sites("allocate_metadata(", outside="partition/constraints") == [
        ("partition/partitioner.py", "over_budget"),
        ("switchsim/program.py", "stages"),
    ]
    assert sites("dependency_distances(", outside="analysis/") == [
        ("partition/partitioner.py", "partition_middlebox"),
    ]
    assert sites("distances_from_entry(", outside="analysis/") == [
        ("partition/constraints.py", "measure_pipeline"),
    ]


def test_the_restatements_are_gone():
    defined = {node.name for _, _, defs in modules() for node in defs}
    assert defined & RETIRED == set()
    assert not re.search(
        r"\bcheck_defs\b", "".join(text for _, text, _ in modules())
    )


def test_partition_does_not_load_tenancy():
    code = (
        "import sys, repro.partition;"
        "sys.exit('repro.tenancy' in sys.modules)"
    )
    assert subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(SRC.parent)}
    ).returncode == 0


def test_kernel_and_prover_do_not_read_the_program_generator():
    """The observed and the symbolic field sets come from the field table
    (``repro.net.fields``), not from the generator of test programs."""
    for module in ("difftest/kernel.py", "verify/symbolic/prover.py"):
        text = next(text for name, text, _ in modules() if name == module)
        assert not re.search(
            r"^\s*(from|import)\s+repro\.difftest(\.generator\b|\s+import"
            r"[^\n]*\bgenerator\b)", text, re.MULTILINE
        ), module


def test_the_validators_check_nothing_themselves():
    """Each is: ask the verifier, raise its first error."""
    for view in (
        body("ir/validate.py", "validate_function"),
        body("switchsim/program.py", "validate"),
    ):
        assert "first_error(" in view
        assert view.count("raise ") == 1 and view.count("if ") == 1
    compile_lowered = body("compiler.py", "compile_lowered")
    assert "compile_middlebox(" in compile_lowered
    assert "partition_middlebox(" not in compile_lowered


def _refused_by_validate_function(function) -> bool:
    try:
        validate_function(function)
    except IRValidationError:
        return True
    return False


def test_validate_function_is_the_structural_view(bundle):
    for function in (bundle.lowered.process, bundle.lowered.configure):
        if function is not None:
            assert first_error(verify_structure(function)) is None
            assert not _refused_by_validate_function(function)


@pytest.mark.parametrize("code", sorted(STRUCTURAL_FIXTURES))
def test_validate_function_refuses_each_structural_fixture(code):
    function = STRUCTURAL_FIXTURES[code]()
    assert first_error(verify_structure(function)).code == code
    with pytest.raises(IRValidationError, match=code):
        validate_function(function)


def _acceptability(program):
    found = lint_switch_program(program)
    for layout in (program.shim_to_server, program.shim_to_switch):
        found.extend(shim_budget(program.limits, layout))
    return first_error(found)


def _refused_by_validate(program) -> bool:
    try:
        program.validate()
    except SwitchProgramError as refusal:
        assert _acceptability(program).code in str(refusal)
        return True
    return False


def test_program_validate_is_the_lint_view(compiled):
    program = compiled.switch_program
    assert _acceptability(program) is None
    assert not _refused_by_validate(program)


@pytest.mark.parametrize("code", sorted(MUTATIONS))
def test_program_validate_refuses_each_mutation(code):
    program = build_program()
    MUTATIONS[code](program)
    assert _acceptability(program) is not None
    assert _refused_by_validate(program)


def _count_calls(action) -> Counter:
    """Calls of the two expensive analyses — the dependency graph and the
    metadata allocation's linear scan — through every name they are bound
    to under ``repro``."""
    counts: Counter = Counter()
    patches = []
    for original in (
        depgraph.build_dependency_graph, constraints._linear_scan
    ):
        def counted(*args, _original=original, **kwargs):
            counts[_original.__name__] += 1
            return _original(*args, **kwargs)

        patches.extend(
            mock.patch.object(module, original.__name__, counted)
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            and getattr(module, original.__name__, None) is original
        )
    for patch in patches:
        patch.start()
    try:
        action()
    finally:
        for patch in patches:
            patch.stop()
    return counts


def test_a_compile_measures_each_pipeline_once(bundle):
    """One graph for the source function, one measurement — a graph and an
    allocation — per accepted pipeline: the partitioner, the program's
    lint, the P4 emitter and the verify stage read the same answers (5 / 4
    and 8 / 6 before a function kept them; a budget search that measures a
    side it then rejects adds that side's).  Lowered afresh: the bundle's
    own function has been asked already."""
    lowered = lower_program(parse_program(bundle.source))
    front = _count_calls(lambda: compile_middlebox(lowered))
    assert front["_linear_scan"] <= 2
    assert front["build_dependency_graph"] <= 3
    whole = _count_calls(lambda: compile_source(bundle.source, verify=True))
    assert whole["_linear_scan"] == 2
    assert whole["build_dependency_graph"] == 3
