"""Gauntlet driver: seed derivation, stats, report format, budgets."""

from repro.difftest.oracle import Outcome, OracleResult
from repro.difftest.runner import (
    Failure,
    GauntletStats,
    derive_seeds,
    run_gauntlet,
)
from repro.difftest.generator import generate_program
from repro.difftest.oracle import StreamSpec


def test_derive_seeds_decorrelated():
    seen = set()
    for master in range(3):
        for index in range(10):
            seen.add(derive_seeds(master, index))
    assert len(seen) == 30


def test_stats_record():
    stats = GauntletStats()
    stats.record(OracleResult(Outcome.AGREE, cached_checked=True))
    stats.record(OracleResult(Outcome.DIVERGE))
    stats.record(OracleResult(Outcome.CRASH))
    stats.record(OracleResult(Outcome.PARTITION_REJECTED))
    assert (stats.runs, stats.agree, stats.diverge, stats.crash,
            stats.partition_rejected, stats.cached_checked) == (4, 1, 1, 1, 1, 1)
    assert stats.failures == 2
    assert "4 programs" in stats.summary()


def test_failure_report_embeds_seed():
    program = generate_program(77)
    failure = Failure(
        index=0,
        program_seed=77,
        stream=StreamSpec(seed=5, count=3),
        program=program,
        result=OracleResult(Outcome.CRASH, error="boom"),
    )
    report = failure.report()
    assert "program seed : 77" in report
    assert "--seed-override 77" in report
    assert "boom" in report
    assert "class DiffTestBox" in report


def test_small_gauntlet_runs_clean():
    stats, failures = run_gauntlet(runs=5, seed=0, packets=5)
    assert stats.runs == 5
    assert not failures
    assert stats.failures == 0


def test_seed_override_pins_run_zero():
    stats, _ = run_gauntlet(runs=1, seed=123, packets=3, seed_override=77)
    assert stats.runs == 1


def test_time_budget_stops_early():
    stats, _ = run_gauntlet(runs=10**6, seed=0, packets=3, time_budget_s=0.0)
    assert stats.runs < 10**6


def test_progress_lines_carry_the_running_clock():
    """Each ``... n/N`` line reports the seconds spent so far, not the
    zeros the stats hold until the campaign returns."""
    import re
    import time

    from repro.difftest import kernel
    from repro.difftest.compiled import CompiledGauntletStats

    stats, lines = CompiledGauntletStats(), []

    def scenario(index, program_seed):
        kernel.compile_step(time.sleep, 0.0015)
        return None

    kernel.drive(200, 0, scenario, str, log=lines.append,
                 progress=kernel.progress_of(stats))
    assert len(lines) == 2
    for line in lines:
        total, compiling = map(float, re.search(
            r"in (\d+\.\d)s \(compile (\d+\.\d)s\)\)$", line).groups())
        assert total > 0 and compiling > 0
