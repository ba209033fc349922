"""Each fact is derived once, by the object that owns it.

An instruction owns its read/write sets (``Instruction.facts``): it does
not change after ``__init__`` — a structural scan holds ``src/`` and
``tests/`` to that — so nothing invalidates them.  A function owns the
answers about its shape (``Function.once``); ``tests/verify/
test_stale_answers.py`` holds those to a cold verifier under every
mutation the suites make, this file to the plain cases.  And what a
function keeps does not point back at it: a finished compile is freed by
reference count.
"""

import ast
import copy
import gc
import pickle
import weakref
from pathlib import Path

import repro
from repro.analysis import compute_reachability, dependency_graph
from repro.compiler import compile_source
from repro.ir import instructions as irin
from repro.ir import lower_program
from repro.ir.compile import compile_function
from repro.ir.function import Function
from repro.ir.values import Location, Reg, const_int
from repro.lang import parse_program
from repro.lang.types import IntType
from repro.partition.constraints import measure_pipeline
from repro.runtime.deployment import compile_middlebox
from repro.switchsim.compiled import compile_switch_function
from tests.conftest import MINILB_SOURCE

SRC = Path(repro.__file__).parent
TESTS = Path(__file__).parent.parent
U32 = IntType(32)

#: ``(file, target)`` of the assignments that look like one to an operand
#: and are not: the object is no instruction
NOT_AN_INSTRUCTION = {
    ("src/repro/ir/values.py", "found.name"),  # a Location being interned
    ("src/repro/partition/projection.py", "block.region"),  # a _Block
    ("tests/partition/test_transfer_model.py", "block.region"),
    ("src/repro/runtime/pool.py", "member.runtime.state"),
    ("src/repro/verify/symbolic/engine.py", "register.value"),
    ("tests/tenancy/test_oracle.py", "victim.registers['port_counter'].value"),
    ("tests/faults/test_oracle.py", "registers[name].value"),
}


def _assigned_attributes(tree: ast.AST):
    """``(enclosing def, target)`` of every attribute assignment."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    for one in getattr(target, "elts", [target]):
                        if isinstance(one, ast.Attribute):
                            yield function, one
            inside = (
                child.name if isinstance(child, ast.FunctionDef) else function
            )
            stack.append((child, inside))


def _operand_fields():
    tree = ast.parse((SRC / "ir" / "instructions.py").read_text())
    return {
        target.attr
        for function, target in _assigned_attributes(tree)
        if function == "__init__"
    }


def test_no_operand_is_assigned_outside_init():
    fields = _operand_fields()
    assert {"dst", "keys", "cond", "target", "state"} <= fields
    offenders = set()
    for root in (SRC, TESTS):
        for path in sorted(root.rglob("*.py")):
            module = path.relative_to(SRC.parent.parent).as_posix()
            for function, target in _assigned_attributes(
                ast.parse(path.read_text())
            ):
                root = target.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                # What hangs off ``self`` is the class's own business, and
                # only ir/instructions.py defines instructions.
                if isinstance(root, ast.Name) and root.id == "self" and (
                    function == "__init__"
                    or module != "src/repro/ir/instructions.py"
                ):
                    continue
                if target.attr in fields:
                    offenders.add((module, ast.unparse(target)))
    assert offenders == NOT_AN_INSTRUCTION


def test_locations_are_interned():
    assert Location.var("x") is Location.var("x")
    assert Location.packet("tcp") is Location.packet("udp")  # the L4 alias
    assert Location.var("ip") is not Location.packet("ip")
    state = Location.state("m")
    assert copy.deepcopy(state) is state
    assert pickle.loads(pickle.dumps(state)) is state
    assert {state: 1}[Location.state("m")] == 1


def test_facts_are_built_once_and_lean():
    x, y = Reg("x", U32), Reg("y", U32)
    add = irin.BinOp(y, irin.BinOpKind.ADD, x, x)
    before = set(vars(add))
    assert add.reads() is add.reads() == {Location.var("x")}
    assert add.writes() == {Location.var("y")}
    assert add.uses() == (x, x) and add.defs() == (y,)
    # One slot, and what is empty or a single location is shared.
    assert set(vars(add)) - before == {"facts"}
    jump, other = irin.Jump("a"), irin.Jump("b")
    assert jump.reads() is other.writes() is add.global_state_accesses()
    assert add.writes() is irin.Assign(y, x).writes()
    find = irin.MapFind(x, y, "m", [x])
    assert find.global_state_accesses() == {Location.state("m")}
    assert find.defs() == (y, x)


def _diamond() -> Function:
    function = Function("f")
    cond = Reg("c", IntType(1))
    entry = function.add_block("entry")
    entry.append(irin.Assign(cond, const_int(1)))
    entry.append(irin.Branch(cond, "left", "right"))
    for name in ("left", "right"):
        function.add_block(name).append(irin.Jump("join"))
    function.add_block("join").append(irin.Send())
    return function


def test_a_function_answers_once_per_shape():
    function = _diamond()
    order = function.block_order()
    assert order == ("entry", "right", "left", "join")
    assert function.block_order() is order
    assert function.instructions() is function.instructions()
    info = compute_reachability(function)
    assert compute_reachability(function) is info
    graph = dependency_graph(function)
    assert dependency_graph(function) is graph
    usage = measure_pipeline(function)
    assert measure_pipeline(function) is usage and not info.cyclic_blocks

    # Any in-place edit is another shape: replace, insert, delete, re-enter.
    function.blocks["left"].instructions[-1] = irin.Jump("entry")
    assert compute_reachability(function) is not info
    assert compute_reachability(function).cyclic_blocks == {"entry", "left"}
    assert measure_pipeline(function) is not usage
    function.blocks["left"].instructions[-1] = irin.Jump("join")
    function.blocks["join"].instructions.insert(
        0, irin.LoadState(Reg("s", U32), "ctr")
    )
    assert len(function.instructions()) == 6
    assert list(measure_pipeline(function).sites) == ["ctr"]
    assert dependency_graph(function) is not graph
    del function.blocks["right"]
    assert function.block_order() == ("entry", "left", "join")
    function.entry = "left"
    assert function.block_order() == ("left", "join", "entry")
    assert function.predecessors()["join"] == ("left",)


def test_a_finished_compile_is_freed_by_reference_count():
    compile_source(MINILB_SOURCE, verify=True)  # imports, interned names
    gc.collect()
    gc.disable()
    try:
        result = compile_source(MINILB_SOURCE, verify=True)
        assert dependency_graph(result.lowered.process) is not None
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_generated_code_goes_with_its_function():
    """The engines' code used to sit in a ``WeakKeyDictionary`` whose
    values pointed at their keys: every function a deployment ever ran
    stayed for the life of the process."""
    plan, program = compile_middlebox(
        lower_program(parse_program(MINILB_SOURCE))
    )
    assert compile_function(plan.non_offloaded) is compile_function(
        plan.non_offloaded
    )
    compile_switch_function(program.pre)
    functions = [
        weakref.ref(function)
        for function in (plan.non_offloaded, plan.pre, plan.post)
    ]
    del plan, program
    gc.collect()
    assert [function() for function in functions] == [None, None, None]
