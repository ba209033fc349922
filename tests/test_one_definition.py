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

from repro.ir import instructions as irin
from repro.ir import interp
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
        ("analysis/distance.py", "_chain_basis"),
        ("analysis/distance.py", "_stage_cost"),
        ("verify/p4lint.py", "_lint_pipeline"),
    ]


def test_stage_schedule():
    """Which stage an instruction runs in, and the order and the guard it
    runs under, are ``measure_pipeline``'s (the guards from the one
    postdominator walk): the allocation, the lint, the P4 text and
    tenancy's table slots read them through ``SwitchProgram.stages``, and
    ``tenancy/`` has no stage rule of its own (it once packed tables from
    stage 1)."""
    assert matching(r"\.schedule\b(?!\()") == []
    assert sites("measure_pipeline(", outside="partition/") == [
        ("switchsim/program.py", "stages"),
        ("verify/p4lint.py", "_lint_pipeline"),
    ]
    assert sites("_guards(") == [
        ("partition/constraints.py", "_guards"),
        ("partition/constraints.py", "measure_pipeline"),
    ]
    assert sites("immediate_postdominator(", outside="analysis/") == [
        ("partition/constraints.py", "_guards"),
        ("partition/projection.py", "build"),
    ]
    assert sites(".stages(", outside="switchsim/") == [
        ("codegen/p4/emit.py", "__init__"),
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
        ("partition/constraints.py", "allocate_metadata"),
    ]
    assert matching(r"\.bytes\b") == [
        ("partition/constraints.py", "_linear_scan"),
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


def _literals(tree: ast.AST):
    """Every string constant of ``tree`` but its docstrings, f-string
    pieces included."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings):
            yield node.value


def test_reserved_shim_fields():
    """The shim's reserved field names are spelled once, as the constants
    of ``codegen/headers.py``: the server, the switch model, the prover and
    both emitters read those."""
    spelled = sorted({
        module for module, tree in trees()
        for text in _literals(tree)
        if re.search(r"__(ingress_port|verdict|egress_port)\b", text)
    })
    assert spelled == ["codegen/headers.py"]


def test_replication_ops():
    """Which update op a journalled write replicates as is one table,
    ``UPDATE_OPS``; the server's rule and the C++ emitter read it, and no
    scope anywhere else names both a journal op and an update op."""
    journal_ops = {"store", "push", "erase"}
    update_ops = {"register", "delete"}
    both = []
    for module, tree in trees():
        top = [
            node for node in tree.body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        scopes = [ast.Module(body=top, type_ignores=[])] + [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        ]
        for scope in scopes:
            texts = set(_literals(scope))
            if texts & journal_ops and texts & update_ops:
                both.append((module, getattr(scope, "name", "")))
    assert both == [("runtime/server.py", "")]
    assert matching(r"\bUPDATE_OPS\b") == [
        ("codegen/cpp/emit.py", ""),
        ("codegen/cpp/emit.py", "_replicate"),
        ("runtime/server.py", ""),
        ("runtime/server.py", "updates_from_journal"),
    ]


def _concrete_instructions(cls=irin.Instruction):
    """The instruction classes of ``ir/instructions.py`` nothing there
    derives from: the ones a function holds."""
    for sub in cls.__subclasses__():
        if sub.__module__ != irin.__name__:
            continue
        below = list(_concrete_instructions(sub))
        yield from below or [sub]


def test_one_evaluator():
    """The IR is evaluated by one decoder per instruction class (the prover
    runs the same ops over terms): every concrete class has its own, and
    ``ir/interp.py`` dispatches on no instruction class at run time — the
    per-instruction ``isinstance`` ladder is gone, not kept as a
    fallback."""
    concrete = sorted(cls.__name__ for cls in _concrete_instructions())
    assert concrete == sorted(cls.__name__ for cls in interp._DECODERS)
    assert "Branch" in concrete and "MapFind" in concrete
    tree = dict(trees())["ir/interp.py"]
    dispatch = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("isinstance", "type")
        and "irin." in ast.unparse(node)
        or isinstance(node, ast.Compare)
        and any("irin." in ast.unparse(right) for right in node.comparators)
    ]
    assert dispatch == []


def test_one_update_batch_path():
    """An update batch enters the RPC channel in one place: ``apply_batch``
    is one attempt loop, and a fault-free batch is its first attempt, not
    a second copy of it."""
    tree = dict(trees())["switchsim/control_plane.py"]
    plane = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ControlPlane"
    )
    submitters = sorted(
        method.name for method in plane.body
        if isinstance(method, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and "channel" in ast.unparse(node.func.value)
            for node in ast.walk(method)
        )
    )
    assert submitters == ["apply_batch"]
    assert sites(".submit(") == [("switchsim/control_plane.py", "apply_batch")]


#: the four violation builders the compiled rendition emits in place
VIOLATION_BUILDERS = (
    "accessed_twice", "unknown_member", "rmw_width_mismatch", "forbidden",
)


def test_one_switch_traversal():
    """A switch pipeline is run one way over both value domains: the
    interpreted switch and the prover's switch are one
    ``PipelineExecutor`` over the staged program, behind one
    ``SwitchStateAdapter``.  No ``Interpreter`` under ``src/`` walks a
    ``.pre`` / ``.post`` pipeline in IR order (the compiled fast path is
    generated code, held to the staged run by ``difftest --compiled``),
    the second adapter and the rules class it shared are gone, and a
    violation builder raises the switch's one exception class."""
    walks = sorted(
        (module, node.lineno)
        for module, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "Interpreter"
        and any(
            isinstance(arg, ast.Attribute) and arg.attr in ("pre", "post")
            for arg in [*node.args, *(k.value for k in node.keywords)]
        )
    )
    assert walks == []
    classes = {
        node.name for _, tree in trees() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    assert not classes & {"AccessRules", "SymSwitchState"}
    builders = {
        node.name: [arg.arg for arg in node.args.args]
        for node in dict(trees())["switchsim/pipeline.py"].body
        if isinstance(node, ast.FunctionDef)
        and node.name in VIOLATION_BUILDERS
    }
    assert sorted(builders) == sorted(VIOLATION_BUILDERS)
    assert [
        name for name, params in builders.items() if "violation" in params
    ] == []
