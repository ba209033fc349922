"""The gauntlet driver behind ``python -m repro difftest``.

Derives one program seed per run from the master seed, generates the
program, runs the three-way oracle, optionally shrinks failures, and
produces a readable report that always embeds the reproducing seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.difftest import kernel
from repro.difftest.generator import GenProgram, generate_program
from repro.difftest.kernel import STREAM_SALT, derive_seeds  # noqa: F401
from repro.difftest.oracle import Outcome, OracleResult, StreamSpec, run_oracle
from repro.difftest.shrink import shrink_case


@dataclass
class Failure:
    index: int
    program_seed: int
    stream: StreamSpec
    program: GenProgram
    result: OracleResult
    minimized_program: Optional[GenProgram] = None
    minimized_stream: Optional[StreamSpec] = None
    #: True when the dynamic oracle and the static verifier disagree (the
    #: program runs equivalent but fails verification): a new bug class —
    #: either a verifier false positive or a latent compiler bug the
    #: packet streams never excited.
    verifier_disagreement: bool = False
    #: per-checker stance ("agree"/"diverge"/"inconclusive") when the run
    #: consulted more than one checker, and the dissenting minority —
    #: populated in ``--symbolic`` mode so a disagreement failure names
    #: which of oracle/static/symbolic breaks ranks.
    opinions: Optional[dict] = None
    dissenters: Optional[List[str]] = None

    def report(self) -> str:
        verdict_rows = []
        if self.opinions is not None:
            verdict_rows.append(("opinions", " ".join(
                f"{checker}={stance}"
                for checker, stance in sorted(self.opinions.items())
            )))
        if self.dissenters:
            verdict_rows.append(("dissenting", ", ".join(self.dissenters)))
        verdict_rows.extend(
            ("verifier", line) for line in self.result.verifier_errors
        )
        return kernel.render_report(
            "gauntlet", self,
            self.result.outcome.value
            + (" (verifier disagreement)" if self.verifier_disagreement
               else ""),
            _REPRODUCE(self.program_seed), self.result.divergence,
            verdict_rows=verdict_rows,
        )


@dataclass
class GauntletStats:
    runs: int = 0
    agree: int = 0
    diverge: int = 0
    crash: int = 0
    reference_crash: int = 0
    partition_rejected: int = 0
    cached_checked: int = 0
    verifier_disagreements: int = 0
    symbolic_checked: int = 0
    symbolic_disagreements: int = 0
    elapsed_s: float = 0.0
    #: of that, inside ``kernel.compile_step``
    compile_s: float = 0.0

    def record(self, result: OracleResult) -> None:
        self.runs += 1
        if result.outcome is Outcome.AGREE:
            self.agree += 1
            if result.verifier_errors:
                self.verifier_disagreements += 1
        elif result.outcome is Outcome.DIVERGE:
            self.diverge += 1
        elif result.outcome is Outcome.CRASH:
            self.crash += 1
        elif result.outcome is Outcome.REFERENCE_CRASH:
            self.reference_crash += 1
        else:
            self.partition_rejected += 1
        if result.cached_checked:
            self.cached_checked += 1

    @property
    def failures(self) -> int:
        return (self.diverge + self.crash + self.reference_crash
                + self.verifier_disagreements + self.symbolic_disagreements)

    def summary(self) -> str:
        symbolic = ""
        if self.symbolic_checked:
            symbolic = (
                f", {self.symbolic_checked} symbolically checked"
                f" ({self.symbolic_disagreements} symbolic disagreements)"
            )
        return (
            f"{self.runs} programs: {self.agree} agree, {self.diverge} diverge,"
            f" {self.crash} crash,"
            + (f" {self.reference_crash} reference crash,"
               if self.reference_crash else "")
            + f" {self.partition_rejected} rejected,"
            f" {self.verifier_disagreements} verifier disagreements"
            f" ({self.cached_checked} also ran the cached deployment)"
            f"{symbolic}"
            f" in {kernel.Elapsed(self.elapsed_s, self.compile_s)}"
        )


def run_gauntlet(
    runs: int,
    seed: int,
    packets: int = 25,
    shrink_failures: bool = False,
    max_failures: int = 10,
    time_budget_s: Optional[float] = None,
    seed_override: Optional[int] = None,
    symbolic: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> tuple:
    """Run the gauntlet; returns ``(stats, failures)``.

    ``seed_override`` pins the program seed of run 0 (the reproduce
    path printed in failure reports); ``time_budget_s`` stops early once
    the wall-clock budget is spent (the smoke-test mode).

    With ``symbolic`` every compilable run also consults the translation
    validator (at smoke bounds) as a third opinion next to the dynamic
    oracle and the static verifier; any checker breaking ranks — e.g.
    the prover disproving a program the oracle's streams never caught —
    is a failure whose report names the dissenter.
    """
    stats = GauntletStats()

    def scenario(index: int, program_seed: int) -> Optional[Failure]:
        program = generate_program(program_seed)
        stream = StreamSpec(seed=program_seed ^ STREAM_SALT, count=packets)

        def run(candidate: GenProgram, candidate_stream: StreamSpec,
                provenance: bool = True) -> OracleResult:
            return run_oracle(
                candidate.source(), candidate_stream,
                deployment_seed=program_seed, provenance=provenance,
            )

        result = run(program, stream)
        stats.record(result)
        disagreement = (
            result.outcome is Outcome.AGREE and bool(result.verifier_errors)
        )
        opinions: Optional[dict] = None
        dissenters: Optional[List[str]] = None
        if symbolic and result.outcome in (Outcome.AGREE, Outcome.DIVERGE):
            opinions = _symbolic_opinions(program.source(), result)
            if opinions is not None:
                stats.symbolic_checked += 1
                dissenters = _dissenters(opinions)
                if dissenters and not disagreement and result.outcome is (
                        Outcome.AGREE):
                    # Checkers disagree on a run the plain gauntlet would
                    # have passed: count and surface it.
                    stats.symbolic_disagreements += 1
                    disagreement = True
        if not disagreement and result.outcome not in _FAILING:
            return None
        failure = Failure(
            index, program_seed, stream, program, result,
            verifier_disagreement=disagreement,
            opinions=opinions, dissenters=dissenters,
        )
        if shrink_failures:
            minimized = kernel.minimize(
                shrink_case, (program, stream), result, run, _signature
            )
            if minimized is not None:
                failure.minimized_program, failure.minimized_stream = minimized
        return failure

    failures, (stats.elapsed_s, stats.compile_s) = kernel.drive(
        runs, seed, scenario, _REPRODUCE,
        seed_override=seed_override, time_budget_s=time_budget_s,
        max_failures=max_failures, log=log,
        progress=kernel.progress_of(stats),
    )
    return stats, failures


_REPRODUCE = kernel.cli_reproduce("difftest")
_FAILING = (Outcome.DIVERGE, Outcome.CRASH, Outcome.REFERENCE_CRASH)


def _signature(result: OracleResult) -> tuple:
    """What a shrunk case must preserve: the outcome class, the
    divergence kind, and — for a verifier disagreement — that the
    verifier still objects."""
    return (
        result.outcome,
        result.divergence.kind if result.divergence else None,
        result.outcome is Outcome.AGREE and bool(result.verifier_errors),
    )


def _symbolic_opinions(source: str, result: OracleResult) -> Optional[dict]:
    """Stances of the three checkers on one run (``None``: not provable —
    the recompile was refused, which the oracle already classified).
    Anything the prover itself raises is a harness bug and propagates to
    ``kernel.drive``: a crashed checker has no opinion to count."""
    from repro.runtime.deployment import compile_middlebox
    from repro.verify.symbolic import SMOKE_BUDGET, verify_symbolic

    try:
        plan, switch_program = compile_middlebox(source)
    except kernel.COMPILE_REFUSALS:
        return None
    report = verify_symbolic(plan, switch_program, budget=SMOKE_BUDGET)
    if report.proved:
        symbolic = "agree"
    elif any(d.code != "SYM008" for d in report.errors):
        symbolic = "diverge"
    else:
        symbolic = "inconclusive"  # budget ran out: no stance
    return {
        "oracle": ("diverge" if result.outcome is Outcome.DIVERGE
                   else "agree"),
        "static": "diverge" if result.verifier_errors else "agree",
        "symbolic": symbolic,
    }


def _dissenters(opinions: dict) -> List[str]:
    """Checkers breaking ranks, relative to the dynamic oracle (the
    reference opinion); inconclusive checkers abstain."""
    reference = opinions["oracle"]
    return [
        checker
        for checker, stance in sorted(opinions.items())
        if stance in ("agree", "diverge") and stance != reference
    ]
