"""Constraint 1 is one number.

The partitioner's placements (``ConstraintReport.memory_bytes``), the
switch program the lint holds to the limit (``SwitchProgram.memory_bytes()``,
P4L005) and tenancy's SRAM carve (``TenantSpec.memory_bytes``) price the
same tables and registers through one function,
:func:`repro.partition.constraints.entry_bytes`.  Before they did, the
lint charged 7/8 B more per entry and skipped registers, and tenancy added
registers its own way: the three disagreed on 45 of the 66 programs below
under ``tofino_like`` and 18 of 64 under ``tiny``, and the partitioner
accepted programs the lint then refused.
"""

import re

import pytest

from repro.compiler import compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition.constraints import SwitchResources, entry_bytes
from repro.partition.partitioner import PartitionError
from repro.switchsim.program import SwitchProgramError
from repro.tenancy.allocator import TenantSpec

GENERATED = 60

LIMITS = {
    "tofino_like": SwitchResources.tofino_like(),
    "tiny": SwitchResources.tiny(),
}


def sources():
    for name in MIDDLEBOX_NAMES:
        yield name, load(name).source
    for index in range(GENERATED):
        program_seed, _ = derive_seeds(0, index)
        yield f"gen{index:03d}", generate_program(program_seed).source()


@pytest.mark.parametrize("limits", sorted(LIMITS))
def test_report_program_and_tenant_agree(limits):
    compiled = 0
    for label, source in sources():
        try:
            result = compile_source(source, LIMITS[limits], verify=False)
        except (PartitionError, SwitchProgramError) as refusal:
            # Only the shim budget may refuse here: a memory refusal
            # after the partitioner accepted would be the old split.
            assert "PART005" in str(refusal), (label, refusal)
            continue
        compiled += 1
        plan, program = result.plan, result.switch_program
        tenant = TenantSpec(label, plan, program)
        assert (
            plan.report.memory_bytes
            == program.memory_bytes()
            == tenant.memory_bytes
        ), label
    assert compiled == {"tofino_like": 66, "tiny": 65}[limits]


def test_registers_are_counted():
    program = compile_source(load("mazunat").source, verify=False).switch_program
    assert program.registers
    tables = sum(
        spec.size * entry_bytes([*spec.key_widths, spec.value_width])
        for spec in program.tables.values()
    )
    assert program.memory_bytes() > tables


def test_minilb_at_640_entries_fits_tiny():
    """640 six-byte entries are 3 840 B of a 4 096 B switch: the partitioner
    keeps the table, and the program it returns passes its own lint (the
    old lint's 4 400 B refused it with P4L005)."""
    source = re.sub(
        r"max_entries=\d+", "max_entries=640", load("minilb").source
    )
    result = compile_source(source, SwitchResources.tiny(), verify=False)
    assert result.plan.report.memory_bytes == 640 * 6
    assert result.switch_program.memory_bytes() == 640 * 6
