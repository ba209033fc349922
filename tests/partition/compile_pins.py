"""Golden pins for the compile path: partition -> shims -> switch program
-> emitted text -> static verification.

Each pin is everything one compile decides — the outcome (compiled, or
which refusal), the label assignment, every :class:`ConstraintReport`
field, the state placements, both transfer sets and packed shim sizes,
the emitted P4 / C++ text, the Python the two engines generate for the
four functions, and the verifier's ``(code, severity)`` list —
for the six bundled middleboxes and generated programs
(``derive_seeds(0, i)``) under ``SwitchResources.tofino_like()`` and
``.tiny()``.  It was recorded on the commit *before* the static checks of
the compile path were folded into one layer, so "the refactor changed no
partitioning decision, emitted byte or diagnostic code" is a comparison of
two JSON files.

Every compiled row is also held to constraint 4's one definition
(:func:`allocation_problems`): the bytes the emitted ``metadata_t``
declares are the bytes the partitioner enforced, within the budget, and a
liveness computed here, independently of the allocator, finds no two
registers sharing a scratch byte while both hold a value.  A row that
fails raises :class:`AllocationError`.

The ``sensitivity`` group pins each P4L001-P4L009 mutation of
``tests/verify/test_p4lint.py`` and each IR001-IR007 fixture of
``tests/verify/test_ir_verifier.py`` to the codes it yields: a checker
that checks nothing passes the compile pins and fails this one.

One sweep, and tier-1 runs it (``test_compile_pins.py``, ~4 s): there was
a *narrow* one beside it while compile time was heavy-tailed in program
size and the nine longest generated programs were 85 % of a ~60 s sweep.
To see which pins moved, or to record them::

    PYTHONPATH=src python -m tests.partition.compile_pins [--write]

Regenerate with ``--write`` only when a decision is meant to change, and
say which pin moved and why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.compiler import compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir import instructions as irin
from repro.ir.compile import compile_function
from repro.ir.function import Function
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import PartitionError
from repro.switchsim.compiled import compile_switch_function
from repro.switchsim.program import SwitchProgramError
from repro.verify import lint_switch_program, verify_compilation, verify_ir

GOLDEN = Path(__file__).parent / "golden" / "compile_pins.json"

PIN_SEED = 0
GENERATED = 40


def sources() -> Iterator[Tuple[str, str]]:
    """``(label, source)`` of every program the sweep compiles."""
    for name in MIDDLEBOX_NAMES:
        yield name, load(name).source
    for index in range(GENERATED):
        program_seed, _ = derive_seeds(PIN_SEED, index)
        yield f"gen{index:03d}", generate_program(program_seed).source()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class AllocationError(AssertionError):
    """A compiled row whose scratchpad allocation breaks constraint 4."""


def declared_metadata_bytes(p4_source: str) -> int:
    """The bytes the emitted ``struct metadata_t`` declares."""
    struct = re.search(r"struct metadata_t \{(.*?)\n\}", p4_source, re.S)
    bits = sum(int(width) for width in re.findall(r"bit<(\d+)>", struct[1]))
    return (bits + 7) // 8


def clobbers(
    function: Function,
    offsets: Dict[str, Tuple[int, int]],
    held_from_entry: Iterable[str],
    held_to_exit: Iterable[str],
) -> List[str]:
    """Registers of ``function`` that share a byte of ``offsets`` at a
    point where both hold a value.

    Written without the allocator's linear ranges, over the CFG: a
    register holds a value at a point when a definition of it may reach
    the point (``held_from_entry`` are defined before the entry) and a
    use may follow it (every ``Return`` uses ``held_to_exit``).  The
    copy-in at the entry holds ``held_from_entry`` at once, and an
    instruction holds its operands and results.
    """
    held_in, held_out = set(held_from_entry), set(held_to_exit)
    blocks = function.blocks
    successors = function.successors()

    def names(regs) -> Set[str]:
        return {reg.name for reg in regs}

    defined_in: Dict[str, Set[str]] = {name: set() for name in blocks}
    defined_in[function.entry] |= held_in
    live_out: Dict[str, Set[str]] = {name: set() for name in blocks}
    changed = True
    while changed:
        changed = False
        for name, block in blocks.items():
            defined = defined_in[name].union(
                *(names(inst.defs()) for inst in block.instructions)
            )
            live = set(held_out) if isinstance(
                block.terminator, irin.Return
            ) else set()
            for successor in successors[name]:
                changed |= not defined <= defined_in[successor]
                defined_in[successor] |= defined
                live |= _live_in(blocks[successor], live_out[successor])
            changed |= live != live_out[name]
            live_out[name] = live
    points = [held_in]
    for name, block in blocks.items():
        live = set(live_out[name])
        after: List[Set[str]] = []
        for inst in reversed(block.instructions):
            after.append(set(live))
            live = live - names(inst.defs()) | names(inst.uses())
        defined = set(defined_in[name])
        for inst, live_after in zip(block.instructions, reversed(after)):
            results = names(inst.defs())
            defined |= results
            points.append(
                results | names(inst.uses()) | live_after & defined
            )
    problems = set()
    for point in points:
        owner: Dict[int, str] = {}
        for reg in sorted(point):
            offset, size = offsets[reg]
            for byte in range(offset, offset + size):
                other = owner.setdefault(byte, reg)
                if other != reg:
                    problems.add(
                        f"{function.name}: {other} and {reg} share"
                        f" scratch byte {byte}"
                    )
    return sorted(problems)


def _live_in(block, live_out: Set[str]) -> Set[str]:
    live = set(live_out)
    for inst in reversed(block.instructions):
        live = live - {r.name for r in inst.defs()} | {
            r.name for r in inst.uses()
        }
    return live


def allocation_problems(result, limits: SwitchResources) -> List[str]:
    """Constraint 4 of one compiled row: the emitted ``metadata_t``
    declares the bytes the partitioner enforced, they fit ``limits``, and
    :func:`clobbers` finds nothing in either pipeline."""
    program = result.switch_program
    report = result.plan.report
    enforced = max(report.metadata_bytes_pre, report.metadata_bytes_post)
    declared = declared_metadata_bytes(result.p4_source)
    problems = []
    if declared != enforced:
        problems.append(
            f"metadata_t declares {declared} B, constraint 4 enforced"
            f" {enforced} B"
        )
    if enforced > limits.metadata_bytes:
        problems.append(
            f"{enforced} B of metadata over the {limits.metadata_bytes} B"
            " budget"
        )
    pre, post = program.metadata()
    carried_out = program.shim_to_server.carried()
    carried_in = program.shim_to_switch.carried()
    problems += clobbers(program.pre, pre.offsets, (), carried_out)
    problems += clobbers(program.post, post.offsets, carried_in, ())
    return problems


def compile_row(source: str, limits: SwitchResources) -> dict:
    try:
        result = compile_source(source, limits, verify=False)
    except (PartitionError, SwitchProgramError) as refusal:
        return {
            "outcome": type(refusal).__name__,
            "shim": "shim" in str(refusal),
        }
    problems = allocation_problems(result, limits)
    if problems:
        raise AllocationError("; ".join(problems))
    plan = result.plan
    # Instruction ids come from a process-wide counter; position in the
    # source function is what is stable across runs.
    assignment = ",".join(
        plan.assignment[inst.id].name
        for inst in plan.middlebox.process.instructions()
    )
    report = plan.report
    # Keys in sorted order, as the golden file has them.
    return {
        "assignment": _sha(assignment),
        "cpp": _sha(result.cpp_source),
        "outcome": "compiled",
        "p4": _sha(result.p4_source),
        "placements": {
            name: [p.kind.value, p.entries, p.memory_bytes]
            for name, p in sorted(plan.placements.items())
        },
        # What a server (``compile_function``) and a switch
        # (``compile_switch_function``) run: the generated source.
        "python": {
            "non_offloaded": _sha(compile_function(plan.non_offloaded).source),
            "post": _sha(
                compile_switch_function(result.switch_program.post).source
            ),
            "pre": _sha(
                compile_switch_function(result.switch_program.pre).source
            ),
            "process": _sha(compile_function(plan.middlebox.process).source),
        },
        "report": {
            "memory_bytes": report.memory_bytes,
            "metadata_bytes_post": report.metadata_bytes_post,
            "metadata_bytes_pre": report.metadata_bytes_pre,
            "pipeline_depth_post": report.pipeline_depth_post,
            "pipeline_depth_pre": report.pipeline_depth_pre,
            "state_access_sites": dict(
                sorted(report.state_access_sites.items())
            ),
            "transfer_bytes_to_server": report.transfer_bytes_to_server,
            "transfer_bytes_to_switch": report.transfer_bytes_to_switch,
        },
        "shim_bytes": [
            result.shim_to_server.byte_size, result.shim_to_switch.byte_size
        ],
        "to_server": plan.to_server.names(),
        "to_switch": plan.to_switch.names(),
        "verify": sorted(
            [d.code, d.severity]
            for d in verify_compilation(result).diagnostics
        ),
    }


def compile_pins(limits: SwitchResources) -> Dict[str, dict]:
    return {
        label: compile_row(source, limits) for label, source in sources()
    }


def sensitivity_pins() -> Dict[str, list]:
    """Every lint / IR fixture, pinned to the sorted codes it yields."""
    from tests.verify.test_ir_verifier import STRUCTURAL_FIXTURES
    from tests.verify.test_p4lint import MUTATIONS, build_program

    pins = {}
    for code, mutate in sorted(MUTATIONS.items()):
        program = build_program()
        mutate(program)
        pins[code] = sorted({d.code for d in lint_switch_program(program)})
    for code, build in sorted(STRUCTURAL_FIXTURES.items()):
        pins[code] = sorted({d.code for d in verify_ir(build())})
    return pins


#: group name -> ``pins()``
GROUPS = {
    "tofino_like": lambda: compile_pins(SwitchResources.tofino_like()),
    "tiny": lambda: compile_pins(SwitchResources.tiny()),
    "sensitivity": sensitivity_pins,
}


def compute() -> Dict[str, dict]:
    return json.loads(json.dumps(
        {group: pins() for group, pins in GROUPS.items()}
    ))


def moved(computed: dict, recorded: dict) -> List[str]:
    """``group/pin/field`` names whose value differs from the recorded."""
    lines = []
    for group in recorded:
        for name in sorted(set(recorded[group]) | set(computed[group])):
            old, new = recorded[group].get(name), computed[group].get(name)
            if old == new:
                continue
            if isinstance(old, dict) and isinstance(new, dict):
                fields = [
                    f"{key}: recorded {old.get(key)!r} now {new.get(key)!r}"
                    for key in sorted(set(old) | set(new))
                    if old.get(key) != new.get(key)
                ]
            else:
                fields = [f"recorded {old!r} now {new!r}"]
            lines.extend(f"{group}/{name}: {field}" for field in fields)
    return lines


def _dump(pins: dict) -> str:
    """One pin per line, so a moved pin is a one-line diff."""
    groups = ",\n".join(
        f" {json.dumps(group)}: {{\n" + ",\n".join(
            f"  {json.dumps(name)}: {json.dumps(row)}"
            for name, row in rows.items()
        ) + "\n }"
        for group, rows in pins.items()
    )
    return "{\n" + groups + "\n}\n"


def run(argv: List[str], golden: Path, compute, what: str) -> int:
    """The pin command line: recompute, then print what :func:`moved`
    against ``golden`` (exit 1) or, with ``--write``, record it.  Shared
    with ``refinement_moves.py``."""
    computed = compute()
    if "--write" in argv:
        golden.write_text(_dump(computed))
        print(f"wrote {golden}")
        return 0
    differences = moved(computed, json.loads(golden.read_text()))
    for line in differences:
        print(line)
    if not differences:
        print(f"{what} hold")
    return 1 if differences else 0


def main(argv: List[str]) -> int:
    return run(argv, GOLDEN, compute, "compile pins")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
