"""One oracle kernel, one typed failure boundary.

Structural guard, in the manner of ``tests/runtime/test_one_loop.py``:
every decision the oracles share is defined once, in
:mod:`repro.difftest.kernel`; the renditions it replaced are gone, not
kept beside it; and the only broad exception handlers left in the
harnesses are the ones whose job is to classify.
"""

import ast
import inspect
from functools import lru_cache
from pathlib import Path

import repro
from repro.difftest import kernel
from repro.faults.oracle import run_fault_oracle

SRC = Path(repro.__file__).parent
HARNESS_DIRS = ("difftest", "faults", "tenancy")

#: the kernel's decisions — each must be defined here and nowhere else
DECISIONS = {
    "observe", "observe_exact", "observe_fields",  # observation
    "Finding", "compare",  # finding
    "end_state", "diff_state", "check_convergence",  # state
    "compile_step", "Abort", "HarnessBug",  # failure boundary
    "collect_provenance",  # provenance
    "drive", "minimize", "render_report", "derive_seeds",  # campaigns
}
#: what those replaced
RETIRED = {
    "_journey_observation", "_switch_observation", "_completion_observation",
    "_journey_key", "_observe_fields", "_resolve_port", "_compare_packet",
    "Divergence", "FaultViolation", "CompiledDivergence",
    "_compare_state", "_normalized_state", "_check_final_state",
    "deployment_state_snapshot", "_check_replication", "_check_convergence",
    "_collect_provenance", "_collect_fault_provenance", "_drive_runtimes",
    "_shrink_failure", "_try", "_spec_covers",
}


@lru_cache(maxsize=None)
def modules():
    return [
        (path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
        for path in sorted(SRC.rglob("*.py"))
    ]


def definitions():
    """``(name, module)`` of every module-level def/class under
    ``src/repro`` (methods share names like ``observe`` freely)."""
    for module, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, module


def harness_modules():
    for module, tree in modules():
        if module.split("/")[0] in HARNESS_DIRS:
            yield module, tree


def test_each_decision_has_exactly_one_definition():
    owners = {}
    for name, module in definitions():
        if name in DECISIONS:
            owners.setdefault(name, []).append(module)
    assert owners == {name: ["difftest/kernel.py"] for name in DECISIONS}


def test_the_old_renditions_are_gone():
    assert {name for name, _ in definitions()} & RETIRED == set()


def test_prover_uses_only_public_difftest_names():
    tree = ast.parse(
        (SRC / "verify" / "symbolic" / "prover.py").read_text()
    )
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.difftest")
        for alias in node.names
    ]
    assert imported, "the prover replays through the difftest oracle"
    assert [name for name in imported if name.startswith("_")] == []


def broad_handlers():
    """``(module, function)`` of every handler that catches everything."""
    for module, tree in harness_modules():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                names = {
                    n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)
                } if node.type is not None else {"BaseException"}
                if names & {"Exception", "BaseException"}:
                    yield module, function.name


def test_broad_exception_handlers_are_the_classifying_ones():
    """19 before the kernel.  Left: the provenance guard (best-effort
    diagnostics must not mask the verdict), the campaign loop (re-raises
    as ``HarnessBug``) and the compiled gauntlet's crash-identity rule
    (the exception *is* the observation there).  The symbolic third
    opinion used to be the fourth — a checker that crashed abstained, so
    a prover bug read as agreement; it now catches the compile refusals
    by name.  The two guards classify in ``_Guard.__exit__`` — the only
    ``__exit__`` in the harnesses."""
    assert sorted(broad_handlers()) == [
        ("difftest/compiled.py", "_run_engine"),
        ("difftest/kernel.py", "collect_provenance"),
        ("difftest/kernel.py", "drive"),
    ]
    exits = [
        module for module, tree in harness_modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__exit__"
    ]
    assert exits == ["difftest/kernel.py"]
    assert {kernel.dut("x").failure, kernel.reference("x").failure} == {
        kernel.DUT_CRASH, kernel.REFERENCE_CRASH
    }


ROLE_KEYWORDS = {"cached", "failover", "pool", "pool_servers", "detection"}


def test_role_flags_travel_as_one_deployment_spec():
    """The five role keywords appear in the harnesses and the CLI only
    where a ``DeploymentSpec`` is built from flags (CLI arguments, legacy
    corpus keys); ``generate_plan`` takes the spec like everyone else."""
    offenders = []
    for module, tree in modules():
        if not (module == "cli.py" or module.split("/")[0] in
                ("difftest", "faults")):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee == "DeploymentSpec.from_flags":
                    continue
                used = {k.arg for k in node.keywords} & ROLE_KEYWORDS
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                used = {
                    a.arg for a in args.args + args.kwonlyargs
                } & ROLE_KEYWORDS
            else:
                continue
            if used:
                offenders.append((module, node.lineno, sorted(used)))
    assert offenders == []


def test_fault_oracle_has_no_telemetry_back_door():
    parameters = inspect.signature(run_fault_oracle).parameters
    assert "_telemetry" not in parameters
    assert "deployment" in parameters
