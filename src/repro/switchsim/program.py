"""The compiled switch program: what the P4 artifact describes.

A :class:`SwitchProgram` bundles the pre/post pipeline CFGs, the table and
register specs derived from the partition plan's state placements, and the
shim layouts.  ``validate()`` (run by ``from_plan``) refuses a program the
static verifier's P4 resource lint or shim-budget check finds an error in
— the §2.2 architectural restrictions a P4 compiler would enforce; see
:mod:`repro.verify.p4lint` for the list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.codegen.headers import ShimLayout
from repro.ir.function import Function
from repro.partition.constraints import (
    MetadataAllocation, StagedOp, SwitchResources, allocate_metadata,
    entry_bytes, measure_pipeline,
)
from repro.partition.plan import PartitionPlan


#: The testbed's one wiring (PAPER.md's substitution table; §4.3.1: "the
#: first table matches the ingress interface"): two network-facing ports,
#: each the other's default egress, and the middlebox server on its own.
#: Every reader — switch model, P4 emitter, oracles, prover, tenancy's port
#: blocks — takes it from here.
SERVER_PORT = 3
PORT_PAIRS = {1: 2, 2: 1}


def bypass_port(ingress: int) -> int:
    """Where a SEND that names no port leaves: the far side of the wire
    pair (an unwired port reflects)."""
    return PORT_PAIRS.get(ingress, ingress)


class SwitchProgramError(Exception):
    """The program violates a switch architectural restriction."""


@dataclass(frozen=True)
class TableSpec:
    name: str
    key_widths: List[int]
    value_width: int
    size: int
    replicated: bool


@dataclass(frozen=True)
class RegisterSpec:
    name: str
    width_bits: int


@dataclass
class SwitchProgram:
    name: str
    pre: Function
    post: Function
    tables: Dict[str, TableSpec]
    registers: Dict[str, RegisterSpec]
    shim_to_server: ShimLayout
    shim_to_switch: ShimLayout
    needs_server_reg: str
    limits: SwitchResources = field(default_factory=SwitchResources)

    @classmethod
    def from_plan(
        cls,
        plan: PartitionPlan,
        shim_to_server: ShimLayout,
        shim_to_switch: ShimLayout,
    ) -> "SwitchProgram":
        tables: Dict[str, TableSpec] = {}
        registers: Dict[str, RegisterSpec] = {}
        for name, placement in plan.placements.items():
            if not placement.on_switch:
                continue
            member = placement.member
            *key_widths, value_width = member.field_widths()
            if member.kind == "scalar":
                registers[name] = RegisterSpec(
                    name=name, width_bits=value_width
                )
            else:
                tables[name] = TableSpec(
                    name=name,
                    key_widths=key_widths,
                    value_width=value_width,
                    size=placement.entries,
                    replicated=placement.replicated,
                )
        program = cls(
            name=plan.middlebox.name,
            pre=plan.pre,
            post=plan.post,
            tables=tables,
            registers=registers,
            shim_to_server=shim_to_server,
            shim_to_switch=shim_to_switch,
            needs_server_reg=plan.needs_server_reg or "__needs_server",
            limits=plan.limits,
        )
        program.validate()
        return program

    # -- static validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SwitchProgramError` on the first error the static
        verifier finds in this program."""
        # Function-level: repro.verify's package init imports this module.
        from repro.verify.diagnostics import first_error
        from repro.verify.invariants import shim_budget
        from repro.verify.p4lint import lint_switch_program

        found = lint_switch_program(self)
        for layout in (self.shim_to_server, self.shim_to_switch):
            found.extend(shim_budget(self.limits, layout))
        failure = first_error(found)
        if failure is not None:
            raise SwitchProgramError(f"{self.name}: {failure.format()}")

    def stages(self, side: str) -> Tuple[Tuple[StagedOp, ...], MetadataAllocation]:
        """The ``"pre"`` or ``"post"`` pipeline as the switch runs it: its
        staged ops and their allocation (constraint 4), pre's to-server
        shim held to its exit, post's to-switch shim from its entry."""
        function = getattr(self, side)
        pre = side == "pre"
        carried = (self.shim_to_server if pre else self.shim_to_switch).carried()
        return measure_pipeline(function).staged, allocate_metadata(
            function, () if pre else carried, carried if pre else ()
        )

    def memory_bytes(self) -> int:
        """Constraint 1: every table entry and register, each priced by
        :func:`entry_bytes` — the partitioner's number for the same state."""
        tables = sum(
            spec.size * entry_bytes([*spec.key_widths, spec.value_width])
            for spec in self.tables.values()
        )
        return tables + sum(
            entry_bytes([spec.width_bits]) for spec in self.registers.values()
        )
