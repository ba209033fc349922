"""One definition per modelled quantity.

Structural guard, in the manner of ``tests/verify/test_one_checker.py``:
each number the switch model and the testbed cost model price is written
in one place, and every reader calls that place.  A second definition of
any of them — stage cost, the stage schedule, state bytes, metadata
bytes, a cost constant (line rate and MTU among them), degraded-window
pricing, migration cost, retry backoff — fails here.  ``make verify`` runs this file.
"""

import ast
import re

from repro.sim import costs
from tests.verify.test_one_checker import modules, sites


def matching(pattern: str):
    """``(module, innermost function or "")`` of every line matching the
    regular expression ``pattern`` (``sites`` takes a plain substring)."""
    found = set()
    for module, text, defs in modules():
        for number, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                enclosing = [
                    d.name for d in sorted(defs, key=lambda d: d.lineno)
                    if d.lineno <= number <= d.end_lineno
                ]
                found.add((module, enclosing[-1] if enclosing else ""))
    return sorted(found)


def trees():
    for module, text, _ in modules():
        yield module, ast.parse(text)


def _names(node: ast.expr):
    return {
        element.attr if isinstance(element, ast.Attribute)
        else getattr(element, "id", None)
        for element in getattr(node, "elts", ())
    }


def test_stage_cost():
    """Constraint 2's free instructions are listed once; the P4 lint's
    per-block action budget counts with the same function."""
    free_sets = sorted(
        module
        for module, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and "Cast" in _names(node) and _names(node) & {"Jump", "Return"}
    )
    assert free_sets == ["analysis/distance.py"]
    assert sites("_stage_cost(") == [
        ("analysis/distance.py", "_stage_cost"),
        ("analysis/distance.py", "dependency_distances"),
        ("verify/p4lint.py", "_lint_pipeline"),
    ]


def test_stage_schedule():
    """Which stage an instruction runs in is ``measure_pipeline``'s
    schedule: tenancy's table slots read it, and ``tenancy/`` has no
    stage rule of its own (it once packed tables from stage 1)."""
    assert matching(r"\.schedule\b(?!\()") == [
        ("tenancy/allocator.py", "table_slots"),
    ]
    assert sites("measure_pipeline(", outside="partition/") == [
        ("tenancy/allocator.py", "table_slots"),
        ("verify/p4lint.py", "_lint_pipeline"),
    ]
    rules = [
        (module, function) for module, function in matching(
            r"\.tables\)|_stage_cost|dependency_distances|from_entry"
            r"|range\(1,"
        ) if module.startswith("tenancy/")
    ]
    assert rules == []


def test_metadata_bytes():
    """Constraint 4: one function sizes a pipeline's scratchpad — the
    §4.3.1 allocation with the shim boundary held — and a register's
    bytes are summed into a scratchpad nowhere else."""
    assert matching(r"def \w*(allocat|live_bytes)\w*\(") == [
        ("analysis/liveness.py", "allocate_metadata"),
    ]
    assert matching(r"\.bytes\b") == [
        ("analysis/liveness.py", "_linear_scan"),
        ("partition/plan.py", "byte_size"),
    ]


def test_state_bytes():
    """Constraint 1: the partitioner, the program's lint and tenancy price
    switch state through ``entry_bytes`` alone."""
    assert matching(r"width.*// 8") == [
        ("partition/constraints.py", "entry_bytes")
    ]
    assert sites("entry_bytes(") == [
        ("partition/constraints.py", "entry_bytes"),
        ("partition/partitioner.py", "_derive_placements"),
        ("partition/partitioner.py", "_memory_usage"),
        ("switchsim/program.py", "memory_bytes"),
    ]
    assert matching(r"def memory_bytes") == [
        ("switchsim/program.py", "memory_bytes"),
        ("tenancy/allocator.py", "memory_bytes"),
    ]
    assert sites("return self.program.memory_bytes()") == [
        ("tenancy/allocator.py", "memory_bytes")
    ]
    assert sites("byte_cost_per_entry") == []


def test_cost_constants():
    """Every testbed constant is a name in ``repro.sim.costs``: no other
    module, field or parameter default gives it a value of its own, and
    the MTU's number is written nowhere else."""
    constants = {
        name.lower() for name, value in vars(costs).items()
        if name.isupper() and isinstance(value, (int, float))
    }
    assert {"line_rate_gbps", "mtu", "server_hz"} <= constants
    restated = []
    for module, tree in trees():
        if module == "sim/costs.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                named = {
                    getattr(t, "id", None) or getattr(t, "attr", None)
                    for t in targets
                }
            elif isinstance(node, ast.arguments):
                named = {a.arg for a in node.args + node.kwonlyargs}
            elif isinstance(node, ast.ClassDef) and node.name == "CostModel":
                named = {"costmodel"}
            elif isinstance(node, ast.Constant) and node.value == 1500:
                named = {"mtu"}
            else:
                continue
            hits = {str(n).lower() for n in named if n} & (
                constants | {"costmodel"}
            )
            restated.extend((module, hit) for hit in sorted(hits))
    assert restated == []


def test_degraded_window_pricing():
    """``normal - (normal - degraded) * share`` is written once."""
    assert matching(r"\b(\w+) - \(\1 - ") == [
        ("eval/experiments.py", "_priced_gbps")
    ]


def test_migration_cost():
    assert {module for module, _ in matching("MIGRATION_")} == {
        "sim/clock.py"
    }
    assert sites("migration_us(") == [
        ("eval/experiments.py", "pool_recovery"),
        ("runtime/pool.py", "_price_migration"),
        ("sim/clock.py", "migration_us"),
    ]


def test_retry_backoff():
    """The nominal backoff is ``RetryPolicy.nominal_backoff_us``; the
    jittered wait reads it."""
    assert matching(
        r"\.(base_backoff_us|backoff_multiplier|max_backoff_us)\b"
    ) == [
        ("switchsim/control_plane.py", "nominal_backoff_us"),
        ("switchsim/control_plane.py", "to_dict"),
    ]
    assert sites("nominal_backoff_us(") == [
        ("switchsim/control_plane.py", "backoff_us"),
        ("switchsim/control_plane.py", "nominal_backoff_us"),
    ]
