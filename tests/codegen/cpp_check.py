"""Compile emitted C++ against the header it is written to.

Every program's server partition is emitted as ``compile_source`` emits
it and checked with ``g++ -std=c++17 -fsyntax-only`` against
``gallium_runtime.h`` (:data:`repro.codegen.cpp.emit.RUNTIME_HEADER`),
two compilers at a time.  Tier-1 compiles the six bundled middleboxes
(``test_cpp_contract.py``); ``make cpp-check`` adds the generated
programs ``derive_seeds(0, i)``, ``i <`` :data:`GENERATED`, checks
that no emitted handler renders an IR operator as a bare C++ one, holds
each program's switch pipelines to their stage order
(:func:`tests.partition.compile_pins.stage_hazards`), and reads each
program's P4 text back to its staged program
(:mod:`tests.codegen.p4_reader`)::

    PYTHONPATH=src python -m tests.codegen.cpp_check

Exit 1 when a program fails any check; with no ``g++`` on PATH, the
compile is skipped with a note.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.codegen.cpp.emit import RUNTIME_HEADER
from repro.compiler import compile_source
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.middleboxes import MIDDLEBOX_NAMES, load
from tests.codegen.p4_reader import P4ReadError, expected, read
from tests.partition.compile_pins import stage_hazards

CXXFLAGS = ("-std=c++17", "-fsyntax-only", f"-I{RUNTIME_HEADER.parent}")
JOBS = 2
#: How many generated programs ``make cpp-check`` adds to the bundled six.
GENERATED = 60
#: An IR BinOp rendered as a bare C++ operator, ``(lhs) op (rhs)``, for an
#: operator C++ leaves undefined on some operands.
BARE_OPERATOR = re.compile(r"\) (/|%|<<|>>|\*) \(")


def gxx():
    """The ``g++`` on PATH, or ``None``."""
    return shutil.which("g++")


def generated_source(index: int) -> str:
    program_seed, _ = derive_seeds(0, index)
    return generate_program(program_seed).source()


def sources(generated: int = 0) -> Iterator[Tuple[str, str]]:
    """``(label, middlebox source)``: the bundled six, then the first
    ``generated`` generated programs."""
    for name in MIDDLEBOX_NAMES:
        yield name, load(name).source
    for index in range(generated):
        yield f"gen{index:03d}", generated_source(index)


def compile_errors(programs: Dict[str, str]) -> Dict[str, str]:
    """``label -> g++'s diagnostics`` of every C++ text in ``programs``
    that does not compile."""
    errors: Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as scratch:
        pending: List[Tuple[str, Path]] = []
        for label, text in programs.items():
            path = Path(scratch) / f"{label}_server.cc"
            path.write_text(text)
            pending.append((label, path))
        while pending:
            batch, pending = pending[:JOBS], pending[JOBS:]
            running = [
                (label, subprocess.Popen(
                    [gxx(), *CXXFLAGS, str(path)],
                    stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                    text=True,
                ))
                for label, path in batch
            ]
            for label, process in running:
                output, _ = process.communicate()
                if process.returncode:
                    errors[label] = output
    return errors


def bare_operators(cpp_source: str) -> List[str]:
    """The bare ``/ % << >> *`` BinOp renderings in the emitted handler."""
    handler = cpp_source.split("process_punted", 1)[1]
    return [m.group(0) for m in BARE_OPERATOR.finditer(handler)]


def read_back(result) -> str:
    """'' when ``result``'s P4 text reads back to its staged program;
    else the reader's refusal, or the parts of the record that differ."""
    try:
        printed = read(result.p4_source)
    except P4ReadError as exc:
        return str(exc)
    want = expected(result.switch_program)
    differs = [
        part for part in printed._fields if part != "pipelines"
        and getattr(printed, part) != getattr(want, part)
    ] + [
        f"the {side} pipeline" for side, pipeline in printed.pipelines.items()
        if pipeline != want.pipelines[side]
    ]
    return ", ".join(differs) + " differ" * bool(differs)


def main() -> int:
    results = {
        label: compile_source(source)
        for label, source in sources(GENERATED)
    }
    hazards = {
        label: found for label, result in results.items()
        if (found := stage_hazards(result.switch_program, "pre")
            + stage_hazards(result.switch_program, "post"))
    }
    for label, found in hazards.items():
        print(f"--- {label}: stage hazards {found}")
    print(f"cpp-check: {len(results) - len(hazards)} of {len(results)}"
          " programs run their switch pipelines in stage order as written")
    misread = {
        label: found for label, result in results.items()
        if (found := read_back(result))
    }
    for label, found in misread.items():
        print(f"--- {label}: the P4 text reads back {found}")
    print(f"cpp-check: {len(results) - len(misread)} of {len(results)}"
          " programs read back to their staged program")
    programs = {label: result.cpp_source for label, result in results.items()}
    bare = {
        label: found for label, text in programs.items()
        if (found := bare_operators(text))
    }
    for label, found in bare.items():
        print(f"--- {label}: bare operators {found}")
    print(f"cpp-check: {len(programs) - len(bare)} of {len(programs)}"
          " handlers render every guarded operator through gallium::")
    if gxx() is None:
        print("cpp-check: g++ not on PATH; the emitted C++ is not compiled")
        return 1 if bare or hazards or misread else 0
    errors = compile_errors(programs)
    for label, output in errors.items():
        print(f"--- {label}\n{output}")
    print(f"cpp-check: {len(programs) - len(errors)} of {len(programs)}"
          " programs compile")
    return 1 if bare or hazards or misread or errors else 0


if __name__ == "__main__":
    sys.exit(main())
