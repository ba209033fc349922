"""Tests for the IR validator: the fail-fast view over the stage-1
structural checks (each refusal carries the diagnostic's code)."""

import pytest

from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.function import Function
from repro.ir.validate import (
    IRValidationError,
    unsatisfied_uses,
    validate_function,
)
from repro.ir.values import Const, Reg
from repro.lang.types import BOOL, UINT32


def test_valid_function_passes():
    builder = FunctionBuilder("ok")
    temp = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(temp, Const(1, UINT32)))
    builder.emit(irin.Return())
    validate_function(builder.function)


def test_missing_entry_rejected():
    function = Function("broken", entry="nope")
    with pytest.raises(IRValidationError, match="IR001"):
        validate_function(function)


def test_empty_block_rejected():
    function = Function("broken")
    function.add_block("entry")
    with pytest.raises(IRValidationError, match="IR002"):
        validate_function(function)


def test_missing_terminator_rejected():
    function = Function("broken")
    block = function.add_block("entry")
    block.instructions.append(irin.Assign(Reg("t0", UINT32), Const(1, UINT32)))
    with pytest.raises(IRValidationError, match="IR003"):
        validate_function(function)


def test_terminator_in_body_rejected():
    function = Function("broken")
    block = function.add_block("entry")
    block.instructions.append(irin.Return())
    block.instructions.append(irin.Return())
    with pytest.raises(IRValidationError, match="IR004"):
        validate_function(function)


def test_unknown_branch_target_rejected():
    builder = FunctionBuilder("broken")
    builder.emit(irin.Jump("ghost"))
    with pytest.raises(IRValidationError, match="IR005"):
        validate_function(builder.function)


def test_double_temp_assignment_rejected():
    builder = FunctionBuilder("broken")
    temp = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(temp, Const(1, UINT32)))
    builder.emit(irin.Assign(temp, Const(2, UINT32)))
    builder.emit(irin.Return())
    with pytest.raises(IRValidationError, match="IR006.*assigned 2 times"):
        validate_function(builder.function)


def test_named_locals_may_be_reassigned():
    builder = FunctionBuilder("ok")
    local = Reg("x", UINT32, is_temp=False)
    builder.emit(irin.Assign(local, Const(1, UINT32)))
    builder.emit(irin.Assign(local, Const(2, UINT32)))
    builder.emit(irin.Return())
    validate_function(builder.function)


def test_use_before_def_rejected():
    builder = FunctionBuilder("broken")
    ghost = Reg("ghost", UINT32)
    dst = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(dst, ghost))
    builder.emit(irin.Return())
    with pytest.raises(IRValidationError, match="IR007"):
        validate_function(builder.function)


def test_one_armed_definition_rejected():
    """A value defined on only one branch arm may be unset at the join."""
    builder = FunctionBuilder("broken")
    cond = builder.fresh_bool()
    builder.emit(irin.Assign(cond, Const(1, BOOL)))
    then_block = builder.fresh_block("then")
    join_block = builder.fresh_block("join")
    builder.emit(irin.Branch(cond, then_block.name, join_block.name))
    builder.enter_block(then_block)
    maybe = Reg("maybe", UINT32, is_temp=False)
    builder.emit(irin.Assign(maybe, Const(5, UINT32)))
    builder.emit(irin.Jump(join_block.name))
    builder.enter_block(join_block)
    use = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(use, maybe))
    builder.emit(irin.Return())
    with pytest.raises(IRValidationError, match="IR007"):
        validate_function(builder.function)
    # ...and unsatisfied_uses reports it instead of raising.
    assert "maybe" in unsatisfied_uses(builder.function)


def test_unsatisfied_uses_empty_for_complete_function():
    builder = FunctionBuilder("ok")
    temp = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(temp, Const(1, UINT32)))
    other = builder.fresh_temp(UINT32)
    builder.emit(irin.Assign(other, temp))
    builder.emit(irin.Return())
    assert unsatisfied_uses(builder.function) == {}
