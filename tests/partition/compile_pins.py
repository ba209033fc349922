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
declares, read back by :mod:`tests.codegen.p4_reader`, are the bytes the
partitioner enforced, within the budget, and
:func:`stage_hazards`, written independently of the allocator and of the
dependency graph, finds the staged order running no pair of conflicting
ops out of program order and no register's bytes written while it holds a
value.  A row that fails raises :class:`AllocationError`.

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
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.distance import _stage_cost
from repro.analysis.reachability import compute_reachability
from repro.compiler import compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir import instructions as irin
from repro.ir.compile import compile_function
from repro.ir.values import Const, LocKind
from repro.middleboxes import MIDDLEBOX_NAMES, load
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import PartitionError
from repro.switchsim.compiled import compile_switch_function
from repro.switchsim.program import SwitchProgram, SwitchProgramError
from repro.verify import lint_switch_program, verify_compilation, verify_ir
from tests.codegen.p4_reader import read

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


def stage_hazards(program: SwitchProgram, side: str) -> List[str]:
    """What the ``side`` pipeline's staged order
    (``program.stages(side)``) runs differently from the program.

    Written without the allocator and without the dependency graph: what
    an op touches is read off the instruction — its operands, results and
    guard conditions, the registers pre's punt copies out, the state
    members and packet regions of its ``reads()`` / ``writes()`` — program
    order is the CFG's ``can_happen_after``, and a register's bytes are
    its offsets in the staged allocation.  Three rules:

    * two ops one traversal runs one after the other that touch one
      thing, one of them writing it, run in that order in stage order too;
    * an op reading what the other wrote sits in a later stage when the
      read costs one (a guard's always does: it is tested as its stage
      starts);
    * no op writes a byte of a register while that register holds a value
      a later op on its path reads — from the write (or post's copy-in of
      the to-switch shim) to the read, in stage order.
    """
    staged, allocation = program.stages(side)
    after = compute_reachability(getattr(program, side)).can_happen_after
    copied_in = program.shim_to_switch.carried() if side == "post" else ()
    punted = program.shim_to_server.carried() if side == "pre" else ()

    def memory(locations) -> Set[object]:
        return {loc for loc in locations if loc.kind is not LocKind.VAR}

    touched = []
    for inst, _, guard in staged:
        operands = {reg.name for reg in inst.uses()}
        if isinstance(inst, irin.Return):
            operands.update(punted)
        conditions = {
            cond.name for conjunction in guard for cond, _ in conjunction
            if not isinstance(cond, Const)
        }
        reads = operands | conditions | memory(inst.reads())
        costly = conditions | (reads if _stage_cost(inst) else set())
        writes = {reg.name for reg in inst.defs()} | memory(inst.writes())
        touched.append((reads, writes, costly))
    problems = []
    for at, ((first, stage, _), (reads, writes, _)) in enumerate(
        zip(staged, touched)
    ):
        for (second, later, _), (later_reads, later_writes, costly) in zip(
            staged[at + 1:], touched[at + 1:]
        ):
            if not (writes & (later_reads | later_writes) or reads & later_writes):
                continue
            if after(second, first):
                problems.append(
                    f"{side}: {second!r} runs before {first!r} in program"
                    " order, after it in stage order"
                )
            elif writes & costly and stage == later and after(first, second):
                problems.append(
                    f"{side}: {second!r} reads in stage {stage} what"
                    f" {first!r} writes there"
                )
    scratch = {
        name: set(range(offset, offset + size))
        for name, (offset, size) in allocation.offsets.items()
    }
    defined: Dict[str, List[int]] = {name: [-1] for name in copied_in}
    for at, (inst, _, _) in enumerate(staged):
        for reg in inst.defs():
            defined.setdefault(reg.name, []).append(at)

    def one_path(*positions: int) -> bool:
        insts = [staged[at][0] for at in positions if at >= 0]
        return all(
            after(a, b) or after(b, a)
            for i, a in enumerate(insts) for b in insts[i + 1:]
        )

    for use, (reads, _, _) in enumerate(touched):
        for name in reads & scratch.keys():
            for define in defined.get(name, ()):
                if not define < use or not one_path(define, use):
                    continue
                for write in range(define + 1, use):
                    for reg in staged[write][0].defs():
                        if reg.name != name and scratch[reg.name] & scratch[
                            name
                        ] and one_path(define, write, use):
                            problems.append(
                                f"{side}: {staged[write][0]!r} writes"
                                f" {reg.name} over {name}, which"
                                f" {staged[use][0]!r} reads"
                            )
    return problems


def allocation_problems(result, limits: SwitchResources) -> List[str]:
    """Constraint 4 of one compiled row: the emitted ``metadata_t``
    declares the bytes the partitioner enforced, they fit ``limits``, and
    :func:`stage_hazards` finds nothing in either pipeline."""
    program = result.switch_program
    report = result.plan.report
    enforced = max(report.metadata_bytes_pre, report.metadata_bytes_post)
    declared = read(result.p4_source).scratch_bits // 8
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
    return problems + stage_hazards(program, "pre") + stage_hazards(
        program, "post"
    )


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
