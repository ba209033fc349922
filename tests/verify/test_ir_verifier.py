"""Stage 1 unit tests: each IR well-formedness code fires on a minimal
hand-built function and stays silent on a clean one."""

from typing import Callable, Dict

import pytest

from repro.ir import instructions as irin
from repro.ir.function import BasicBlock, Function
from repro.ir.values import const_int, Reg
from repro.lang.types import BOOL, IntType
from repro.verify import verify_ir

U32 = IntType(32)


def _reg(name, type_=U32):
    return Reg(name, type_)


def _function(*blocks):
    function = Function("f")
    for block in blocks:
        function.blocks[block.name] = block
    return function


def _block(name, *instructions):
    block = BasicBlock(name)
    block.instructions.extend(instructions)
    return block


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def test_clean_function_has_no_diagnostics():
    function = _function(
        _block(
            "entry",
            irin.Assign(_reg("x"), const_int(1)),
            irin.BinOp(_reg("y"), irin.BinOpKind.ADD, _reg("x"), const_int(2)),
            irin.Return(),
        )
    )
    assert verify_ir(function) == []


def _missing_entry():
    return Function("f", entry="nope")


def _empty_block():
    return _function(_block("entry", irin.Jump("other")), _block("other"))


def _missing_terminator():
    return _function(_block("entry", irin.Assign(_reg("x"), const_int(0))))


def _terminator_mid_block():
    return _function(_block("entry", irin.Return(), irin.Return()))


def _jump_to_unknown_block():
    return _function(_block("entry", irin.Jump("missing")))


def _double_assigned_temp():
    return _function(
        _block(
            "entry",
            irin.Assign(_reg("t"), const_int(1)),
            irin.Assign(_reg("t"), const_int(2)),
            irin.Return(),
        )
    )


def _use_before_definition():
    return _function(
        _block(
            "entry",
            irin.BinOp(
                _reg("y"), irin.BinOpKind.ADD, _reg("ghost"), const_int(1)
            ),
            irin.Return(),
        )
    )


#: structural code -> a minimal function that must yield it (also pinned
#: as sensitivity fixtures by ``tests/partition/compile_pins.py``)
STRUCTURAL_FIXTURES: Dict[str, Callable[[], Function]] = {
    "IR001": _missing_entry,
    "IR002": _empty_block,
    "IR003": _missing_terminator,
    "IR004": _terminator_mid_block,
    "IR005": _jump_to_unknown_block,
    "IR006": _double_assigned_temp,
    "IR007": _use_before_definition,
}


@pytest.mark.parametrize("code", sorted(STRUCTURAL_FIXTURES))
def test_structural_fixture_yields_its_code(code):
    assert code in _codes(verify_ir(STRUCTURAL_FIXTURES[code]()))


def test_ir001_is_the_only_finding_without_an_entry():
    assert _codes(verify_ir(_missing_entry())) == {"IR001"}


def test_boundary_inputs_suppress_ir007():
    """Projection functions read shim fields without defining them."""
    function = _function(
        _block(
            "entry",
            irin.BinOp(
                _reg("y"), irin.BinOpKind.ADD, _reg("shim_in"), const_int(1)
            ),
            irin.Return(),
        )
    )
    assert "IR007" in _codes(verify_ir(function))
    assert verify_ir(function, boundary_inputs=frozenset({"shim_in"})) == []


def test_ir007_join_requires_definition_on_all_paths():
    cond = _reg("c", BOOL)
    function = _function(
        _block(
            "entry",
            irin.Assign(cond, const_int(1)),
            irin.Branch(cond, "a", "b"),
        ),
        _block("a", irin.Assign(_reg("v"), const_int(1)), irin.Jump("join")),
        _block("b", irin.Jump("join")),
        _block(
            "join",
            irin.BinOp(_reg("w"), irin.BinOpKind.ADD, _reg("v"), const_int(1)),
            irin.Return(),
        ),
    )
    assert "IR007" in _codes(verify_ir(function))


def test_ir008_unreachable_block_is_warning_only():
    function = _function(
        _block("entry", irin.Return()),
        _block("island", irin.Return()),
    )
    diagnostics = verify_ir(function)
    assert _codes(diagnostics) == {"IR008"}
    assert all(d.severity == "warning" for d in diagnostics)


def test_ir009_wide_branch_condition():
    wide = _reg("cond32", U32)
    function = _function(
        _block(
            "entry",
            irin.Assign(wide, const_int(1)),
            irin.Branch(wide, "t", "f"),
        ),
        _block("t", irin.Return()),
        _block("f", irin.Return()),
    )
    assert "IR009" in _codes(verify_ir(function))


def test_ir010_undeclared_extern():
    function = _function(
        _block(
            "entry",
            irin.ExternCall(_reg("x"), "no_such_extern", []),
            irin.Return(),
        )
    )
    assert "IR010" in _codes(verify_ir(function))


def test_ir010_extern_arity_mismatch():
    function = _function(
        _block(
            "entry",
            irin.ExternCall(_reg("n"), "payload_len", [const_int(1)]),
            irin.Return(),
        )
    )
    assert "IR010" in _codes(verify_ir(function))
