"""A verifier that has seen the clean artifact sees the mutated one afresh.

A ``Function`` keeps what was computed about it — block order,
reachability, its dependency graph, ``measure_pipeline``, the structural
diagnostics — for as long as its *shape* holds, and compares the shape on
every read.  The suites mutate compiled artifacts in place (insert an
instruction, replace a terminator) *after* a compile has analysed them;
here every such mutation runs against artifacts the verifier has just
found clean, and must yield what a cold verifier yields: the same
artifacts rebuilt as ``Function`` objects nothing was ever asked about.
A memo that skips the shape comparison fails it.
"""

import dataclasses
from unittest import mock

import pytest

from repro.compiler import compile_source
from repro.difftest.corpus import load_corpus
from repro.ir.function import Function
from repro.switchsim.program import SwitchProgramError
from repro.verify import lint_switch_program, verify_compilation
from tests.verify import test_invariants, test_mutations, test_p4lint


def cold(function: Function) -> Function:
    """The same blocks of the same instructions in a function that has
    answered nothing yet."""
    twin = Function(function.name, function.entry)
    for name, block in function.blocks.items():
        twin.add_block(name).instructions = list(block.instructions)
    return twin


def cold_program(program):
    return dataclasses.replace(
        program, pre=cold(program.pre), post=cold(program.post)
    )


def cold_result(result):
    plan = result.plan
    middlebox = dataclasses.replace(
        plan.middlebox, process=cold(plan.middlebox.process)
    )
    return dataclasses.replace(
        result,
        plan=dataclasses.replace(
            plan, middlebox=middlebox, pre=cold(plan.pre),
            non_offloaded=cold(plan.non_offloaded), post=cold(plan.post),
        ),
        switch_program=cold_program(result.switch_program),
    )


def lint_codes(program):
    return sorted(d.code for d in lint_switch_program(program))


def refusal(program) -> str:
    try:
        program.validate()
    except SwitchProgramError as refused:
        return str(refused)
    return ""


@pytest.mark.parametrize("code", sorted(test_p4lint.MUTATIONS))
def test_lint_after_a_mutation_is_the_cold_lint(code):
    program = test_p4lint.build_program()
    assert lint_codes(program) == [] and refusal(program) == ""
    test_p4lint.MUTATIONS[code](program)
    assert code in lint_codes(program)
    assert lint_codes(program) == lint_codes(cold_program(program))
    assert refusal(program) == refusal(cold_program(program)) != ""


def _compiled(name: str):
    entries = {entry.name: entry for entry in load_corpus()}
    return compile_source(entries[name].source, verify=False)


def _verified(result, cache_mode=False):
    return sorted(
        (d.code, d.message)
        for d in verify_compilation(result, cache_mode=cache_mode).diagnostics
    )


@pytest.mark.parametrize("name", sorted(test_mutations.HISTORICAL_BUGS))
def test_verify_after_a_historical_bug_is_the_cold_verify(name):
    code, mutate = test_mutations.HISTORICAL_BUGS[name]
    result = _compiled(name)
    assert _verified(result) == []
    mutate(result)
    found = _verified(result)
    assert code in [found_code for found_code, _ in found]
    assert found == _verified(cold_result(result))


def test_verify_after_the_rmw_insert_is_the_cold_verify():
    result = test_invariants._compile(test_invariants.COUNTER_SOURCE)
    assert _verified(result, cache_mode=True) == []
    test_invariants.force_rmw_into_post(result)
    found = _verified(result, cache_mode=True)
    assert "PART006" in [code for code, _ in found]
    assert found == _verified(cold_result(result), cache_mode=True)


def test_a_memo_that_trusts_the_function_is_caught():
    """The comparison above can fail: keep answers by function alone."""

    def trusting(function, question, *args):
        key = (question, *args)
        if key not in function._answers:
            function._answers[key] = question(function, *args)
        return function._answers[key]

    with mock.patch.object(Function, "once", trusting):
        with pytest.raises(AssertionError):
            test_lint_after_a_mutation_is_the_cold_lint("P4L001")
        with pytest.raises(AssertionError):
            test_verify_after_the_rmw_insert_is_the_cold_verify()
