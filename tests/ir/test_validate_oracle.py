"""The bitset must-defined dataflow is the name-set one it replaced.

``repro.ir.validate`` answers which registers are definitely defined at
a block's entry, and which uses that leaves uncovered, over one bit per
name; the IR verifier (IR007), the partition verifier (PART004) and the
compiled engine read it.  ``validate_oracle.py`` keeps the replaced path
over Python sets of names.  Over the functions of
``tests/analysis/test_depgraph_oracle.py`` — the six bundled middleboxes
and the 60 generated programs of ``make cpp-check``, each source function
and the three projections under ``tofino_like`` and ``tiny`` — and three
seeds each (none; a third of the registers; every other one and a name
no instruction knows), ``undefined_uses`` must give the oracle's triples
in its order, and ``defined_at_entry`` (which takes no seed) its sets.
Two seeded mutants, a seed left out and a predecessor's definitions left
out, must each fail.
"""

import inspect
import re
from typing import Iterator, Tuple
from unittest import mock

import pytest

from repro.ir import validate
from repro.ir.function import Function
from tests.analysis.test_depgraph_oracle import SOURCES, functions
from tests.ir import validate_oracle as oracle


def seeds(function: Function) -> Iterator[frozenset]:
    names = sorted(function.registers())
    yield frozenset()
    yield frozenset(names[: len(names) // 3])
    yield frozenset(names[::2]) | {"not_a_register"}


def disagreement(label: str) -> Tuple[str, ...]:
    """Where the two dataflows differ over ``label``'s functions."""
    for where, function in functions(label):
        for seed in seeds(function):
            if not seed and validate.defined_at_entry(function) != (
                oracle.defined_at_entry(function)
            ):
                return where, "defined_at_entry", []
            if list(validate.undefined_uses(function, seed)) != list(
                oracle.undefined_uses(function, seed)
            ):
                return where, "undefined_uses", sorted(seed)
    return ()


@pytest.mark.parametrize("label", sorted(SOURCES))
def test_the_bitset_dataflow_is_the_name_set_one(label):
    assert disagreement(label) == ()


MUTANTS = {
    "seed left out": (
        r"seeded = \(1 << len\(index\)\) - 1", "seeded = 0"
    ),
    "predecessor's definitions left out": (
        r"incoming &= defined_in\[pred\] \| block_defs\[pred\]",
        "incoming &= defined_in[pred]",
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_is_caught(mutant):
    pattern, replacement = MUTANTS[mutant]
    source = inspect.getsource(validate._must_defined)
    mutated, hits = re.subn(pattern, replacement, source)
    assert hits == 1, pattern
    namespace = dict(vars(validate))
    exec(mutated, namespace)
    with mock.patch.object(
        validate, "_must_defined", namespace["_must_defined"]
    ):
        assert any(disagreement(label) for label in sorted(SOURCES))
