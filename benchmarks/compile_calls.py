#!/usr/bin/env python3
"""``make compile-calls``: Python calls per compile, a count beside the
clock.

The ``compile`` workload's wall time moves with the host by more than
most compile-path changes are worth, so this prints a number that does
not: the Python function calls each operation of the workload's pool
makes, counted with ``sys.setprofile`` (``call`` events only; a builtin
is not a Python call).  The pool is the benchmark's own
(``perfbench/tool_path.CompileContext`` at seed 11): the six bundled
sources, each compiled three times, 12 generated programs and the six
bundled proofs.  Each operation runs once uncounted first — the
benchmark repeats every operation, so what it times is a warm one — then
once counted, with the cycle collector off so no finalizer runs inside
a count.  The interpreter is re-run with ``PYTHONHASHSEED=0`` when no
seed is set, so two runs of one tree print the same numbers::

    python benchmarks/compile_calls.py [--tree <checkout>]

``--tree`` counts another checkout (say, a ``git archive`` of the parent
commit) with its own ``src/`` and ``perfbench/``.  Prints calls per
operation by kind (``bundled``, ``fuzz``, ``prove``) and for one pass of
the pool.  Exit status 1 when an operation fails.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def count_calls(run) -> int:
    """The Python calls ``run()`` makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        _, failure = run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    if failure is not None:
        raise SystemExit(f"operation failed: {failure}")
    return calls


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout to count (default: this one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from tool_path import CompileContext

    ops = CompileContext(SEED, smoke=False).ops()
    per_kind: Dict[str, List[int]] = defaultdict(list)
    for op in ops:
        op.run()
        per_kind[op.kind].append(count_calls(op.run))
    print(f"compile pool of {tree}, seed {SEED}, PYTHONHASHSEED"
          f" {os.environ['PYTHONHASHSEED']}")
    print(f"{'kind':8} {'ops':>4} {'calls per op':>13} {'calls':>10}")
    for kind, counts in sorted(per_kind.items()):
        print(f"{kind:8} {len(counts):4} {sum(counts) / len(counts):13.1f}"
              f" {sum(counts):10}")
    total = sum(sum(counts) for counts in per_kind.values())
    print(f"{'pass':8} {len(ops):4} {total / len(ops):13.1f} {total:10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
