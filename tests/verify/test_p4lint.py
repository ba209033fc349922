"""Stage 3 unit tests: P4 resource-lint codes (P4L001-P4L010).

Each test compiles the cached_post_register_rmw reproducer (it offloads
both a table and a register, so every lint has something to bite on),
mutates the emitted :class:`SwitchProgram`, and asserts the expected
constraint-1..5 code fires — from the lint and, as a refusal, from
``SwitchProgram.validate()``.  The mutations live in one table,
:data:`MUTATIONS`, which ``tests/partition/compile_pins.py`` pins as
sensitivity fixtures too.
"""

import dataclasses
from typing import Callable, Dict

import pytest

from repro.compiler import compile_source
from repro.difftest.corpus import load_corpus
from repro.ir import instructions as irin
from repro.ir.values import const_int, Reg
from repro.lang.types import IntType
from repro.switchsim.program import SwitchProgram, SwitchProgramError
from repro.verify import lint_switch_program

U32 = IntType(32)


def build_program() -> SwitchProgram:
    """A fresh, lint-clean program every mutation below can bite on."""
    entries = {entry.name: entry for entry in load_corpus()}
    result = compile_source(
        entries["cached_post_register_rmw"].source, verify=False
    )
    switch_program = result.switch_program
    assert switch_program.tables and switch_program.registers
    assert lint_switch_program(switch_program) == []
    return switch_program


@pytest.fixture()
def program():
    return build_program()


def _codes(program):
    return {d.code for d in lint_switch_program(program)}


def _entry_block(function):
    return function.blocks[function.entry]


def _non_p4_instruction(program):
    _entry_block(program.pre).instructions.insert(
        0,
        irin.BinOp(
            Reg("bad_mod", U32), irin.BinOpKind.MOD,
            const_int(5), const_int(3),
        ),
    )


def _unbacked_state_access(program):
    _entry_block(program.pre).instructions.insert(
        0, irin.LoadState(Reg("orphan", U32), "no_such_state")
    )


def _table_applied_twice(program):
    block = _entry_block(program.pre)
    extra = [
        irin.LoadState(Reg("dup0", U32), "m0"),
        irin.LoadState(Reg("dup1", U32), "m0"),
    ]
    block.instructions[0:0] = extra


def _pipeline_loop(program):
    block = _entry_block(program.post)
    block.instructions[-1] = irin.Jump(program.post.entry)


def _table_memory_blowup(program):
    name, spec = next(iter(program.tables.items()))
    program.tables[name] = dataclasses.replace(spec, size=1 << 30)


def _dependency_chain_too_deep(program):
    block = _entry_block(program.pre)
    prev = const_int(1)
    chain = []
    for i in range(program.limits.pipeline_depth + 2):
        reg = Reg(f"chain{i}", U32)
        chain.append(irin.BinOp(reg, irin.BinOpKind.ADD, prev, const_int(1)))
        prev = reg
    block.instructions[0:0] = chain


def _metadata_over_scratchpad(program):
    program.limits = dataclasses.replace(program.limits, metadata_bytes=0)


def _register_too_wide(program):
    name, spec = next(iter(program.registers.items()))
    program.registers[name] = dataclasses.replace(spec, width_bits=128)


def _too_many_tables(program):
    program.limits = dataclasses.replace(program.limits, pipeline_depth=0)


#: error code -> the mutation of a clean program that must yield it
MUTATIONS: Dict[str, Callable[[SwitchProgram], None]] = {
    "P4L001": _non_p4_instruction,
    "P4L002": _unbacked_state_access,
    "P4L003": _table_applied_twice,
    "P4L004": _pipeline_loop,
    "P4L005": _table_memory_blowup,
    "P4L006": _dependency_chain_too_deep,
    "P4L007": _metadata_over_scratchpad,
    "P4L008": _register_too_wide,
    "P4L009": _too_many_tables,
}


@pytest.mark.parametrize("code", sorted(MUTATIONS))
def test_error_mutation_yields_its_code(program, code):
    MUTATIONS[code](program)
    assert code in _codes(program)


@pytest.mark.parametrize("code", sorted(MUTATIONS))
def test_error_mutation_is_refused_by_validate(program, code):
    """The no-verify path (``from_plan`` -> ``validate``) refuses whatever
    the lint rejects, naming the lint's first error (the mutation's own
    code, except that a zero-stage pipeline is too shallow — P4L006 —
    before it is too short of stages for its tables — P4L009)."""
    program.validate()
    MUTATIONS[code](program)
    errors = [
        d.code for d in lint_switch_program(program) if d.severity == "error"
    ]
    assert code in errors
    assert errors[0] == ("P4L006" if code == "P4L009" else code)
    with pytest.raises(SwitchProgramError, match=errors[0]):
        program.validate()


def test_p4l010_oversized_block_is_warning(program):
    block = _entry_block(program.pre)
    filler = [
        irin.BinOp(
            Reg(f"fill{i}", U32), irin.BinOpKind.ADD,
            const_int(i), const_int(1),
        )
        for i in range(33)
    ]
    block.instructions[0:0] = filler
    diagnostics = lint_switch_program(program)
    assert "P4L010" in {d.code for d in diagnostics}
    assert all(
        d.severity == "warning"
        for d in diagnostics
        if d.code == "P4L010"
    )
    program.validate()  # a warning is not a refusal
