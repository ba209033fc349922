"""The oracle kernel: what every harness decides, decided once.

Every oracle here checks the paper's §4.3 claim (pre ⊕ punt ⊕ post over
the replication shim ≡ the unpartitioned middlebox), or a weakening of
it, the same way: drive a DUT and a reference over one seeded stream,
observe each packet, compare, and on the first mismatch re-run traced.
The harnesses keep their *reference-replay policy*; this module owns
observation, finding, end state, the failure boundary (an exception is
``refused``, ``dut_crash`` or ``reference_crash`` when a guard caught it,
and a :class:`HarnessBug` when none did), provenance, and the seeded
campaign loop.  DESIGN.md, "Oracles", has the picture.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.ir.interp import PacketView
from repro.net.fields import FIELD_WIDTHS
from repro.net.packet import RawPacket
from repro.partition.partitioner import PartitionError
from repro.runtime import state_image
from repro.switchsim.program import SwitchProgramError

#: Fields compared on every emitted packet.  ``PacketView`` reads absent
#: headers as 0 identically in every runtime, so the full list is safe for
#: both TCP and UDP packets.
OBSERVED_FIELDS: List[Tuple[str, str]] = sorted(FIELD_WIDTHS)

#: ``(verdict, egress port, header fields)`` of one packet
Observation = Tuple[str, Optional[int], Optional[Dict[str, int]]]
#: what a mismatch in each part of an :func:`observe` observation is filed
#: as, and likewise for :func:`observe_exact`
FIELD_PARTS = ("verdict", "egress", "field")
EXACT_PARTS = ("verdict", "path", "egress")

DROP: Observation = ("drop", None, None)


def observe_fields(packet: RawPacket) -> Dict[str, int]:
    view = PacketView(packet)
    return {
        f"{region}->{name}": view.get_field(region, name)
        for region, name in OBSERVED_FIELDS
    }


def observe(
    verdict: str, emitted: Sequence[Tuple[int, RawPacket]]
) -> Observation:
    """Header-field granularity: a DUT against the unpartitioned
    reference.  Anything but ``"send"`` observes as a drop."""
    if verdict != "send":
        return DROP
    if not emitted:
        return ("send", None, None)
    port, packet = emitted[0]
    return ("send", port, observe_fields(packet))


def observe_exact(journey, port_base: int = 0) -> tuple:
    """Byte-exact granularity — ``(verdict, path flags, ((port, bytes),
    ...))`` — for two runs of *one* compiled program.  ``port_base``
    rebases a tenant's global egress ports."""
    return (
        journey.verdict,
        (journey.fast_path, journey.punted, journey.fallback),
        tuple(
            (port - port_base, bytes(frame.pack()))
            for port, frame in journey.emitted
        ),
    )


@dataclass
class Finding:
    """One thing an oracle found wrong."""

    kind: str
    #: ``None`` for an end-of-stream (state) finding
    packet_index: Optional[int]
    detail: str
    #: which DUT or stage, when the harness has more than one
    where: Optional[str] = None

    def __str__(self) -> str:
        at = (
            f"packet #{self.packet_index}"
            if self.packet_index is not None else "final state"
        )
        tag = f"{self.where}/{self.kind}" if self.where else self.kind
        return f"[{tag}] {at}: {self.detail}"


def compare(
    index: int,
    lhs: tuple,
    rhs: tuple,
    labels: Tuple[str, str],
    where: Optional[str] = None,
    kind: Optional[str] = None,
    parts: Tuple[str, ...] = FIELD_PARTS,
) -> Iterator[Finding]:
    """One finding per differing part of two observations of packet
    ``index`` (first-mismatch callers take ``next()``); ``kind`` files
    them under one name instead of the part's."""
    for part, left, right in zip(parts, lhs, rhs):
        if left == right:
            continue
        if isinstance(left, dict) and isinstance(right, dict):
            detail = "; ".join(
                f"{key}: {labels[0]}={left[key]:#x} {labels[1]}={right[key]:#x}"
                for key in left if left[key] != right[key]
            )
        elif isinstance(left, tuple) and part == "egress":
            detail = "egress bytes differ"
        else:
            detail = f"{labels[0]}={left!r} {labels[1]}={right!r}"
        yield Finding(kind or part, index, detail, where)


#: what an unpartitioned reference has too
SERVER_SECTIONS = ("maps", "scalars", "vectors")
#: everything two deployments of one program can be compared on
ALL_SECTIONS = SERVER_SECTIONS + ("registers", "tables")


def end_state(runtime) -> dict:
    """Server maps, scalars and vectors, with every register the switch
    holds the authority for (``state_image.authoritative``) read from the
    switch; for a deployment also raw switch registers and tables.  A
    replicated member stays the server's copy: :func:`check_convergence`
    holds its switch copy to it."""
    state = runtime.state.snapshot()
    switch = getattr(runtime, "switch", None)
    if switch is None:
        return state
    state_image.from_switch(
        switch, state_image.authoritative(runtime.plan), state["scalars"]
    )
    state["registers"] = {n: r.value for n, r in switch.registers.items()}
    state["tables"] = {n: t.snapshot() for n, t in switch.tables.items()}
    return state


def diff_state(
    lhs: dict,
    rhs: dict,
    labels: Tuple[str, str],
    sections: Sequence[str] = SERVER_SECTIONS,
    where: Optional[str] = None,
) -> Iterator[Finding]:
    """One finding per member differing between two :func:`end_state`s."""
    for section in sections:
        left, right = lhs[section], rhs[section]
        for name in sorted(set(left) | set(right)):
            if left.get(name) != right.get(name):
                yield Finding(
                    "state", None,
                    f"{section[:-1]} {name!r}: {labels[0]}={left.get(name)!r}"
                    f" {labels[1]}={right.get(name)!r}",
                    where,
                )


def check_convergence(
    deployment, where: Optional[str] = None
) -> Iterator[Finding]:
    """The switch's copy of every replicated member, table or register
    (``state_image.replicated``), must equal the server's authoritative
    state — the no-silent-divergence guarantee.

    Bounded cache tables hold a *subset* by design, so for them the check
    weakens to coherence: every cached entry must match the authoritative
    value, and the cache must respect its size bound.
    """
    policy = deployment.state_policy
    for placement in state_image.replicated(deployment.plan):
        name = placement.member.name
        switch_copy = state_image.read(deployment.switch, placement)
        if name in policy.bounded_tables:
            server_map = deployment.state.maps[name]
            stale = {
                keys: value for keys, value in switch_copy.items()
                if server_map.get(keys) != value
            }
            if stale:
                yield Finding(
                    "convergence", None,
                    f"cached table {name!r} holds entries with no"
                    f" authoritative backing: {stale!r}", where,
                )
            if len(switch_copy) > policy.cache_entries:
                yield Finding(
                    "convergence", None,
                    f"cached table {name!r} holds {len(switch_copy)} entries"
                    f" (bound is {policy.cache_entries})", where,
                )
            continue
        server_copy = state_image.stored(deployment.state, placement)
        if switch_copy != server_copy:
            what = "register" if placement.member.kind == "scalar" else "table"
            yield Finding(
                "convergence", None,
                f"replicated {what} {name!r} diverged:"
                f" switch={switch_copy!r} server={server_copy!r}", where,
            )


#: the compiler (or a deployment role) legitimately refused the program
REFUSED = "refused"
#: the compiler, or the deployment under test, raised
DUT_CRASH = "dut_crash"
#: the model the DUT is compared against raised
REFERENCE_CRASH = "reference_crash"


class Abort(Exception):
    """A guard classified an exception; the harness maps ``failure`` to
    its own outcome and never lets this escape its entry point."""

    def __init__(self, failure: str, error: str):
        super().__init__(error)
        self.failure = failure
        self.error = error


class HarnessBug(Exception):
    """The testing tool itself failed: neither a compiler bug nor a
    runtime bug, and never counted as one."""


class _Guard:
    """Turns an exception in its ``with`` block into an :class:`Abort`."""

    def __init__(self, failure: str, phase: str, refusals: tuple = ()):
        self.failure = failure
        self.phase = phase
        self.refusals = refusals

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        if not isinstance(exc, Exception) or isinstance(exc, Abort):
            return  # nothing raised, or already classified
        if isinstance(exc, self.refusals):
            raise Abort(REFUSED, str(exc)) from exc
        trace = "".join(traceback.format_exception(exc_type, exc, tb))
        raise Abort(self.failure, f"{self.phase}:\n{trace}") from exc


def dut(phase: str, refusals: tuple = ()) -> _Guard:
    """Guard calls into the compiler or the deployment under test;
    ``refusals`` are the exception types that mean a legitimate "no"."""
    return _Guard(DUT_CRASH, phase, refusals)


def reference(phase: str) -> _Guard:
    """Guard calls into the reference model."""
    return _Guard(REFERENCE_CRASH, phase)


#: The compiler's deliberate refusals: the partitioner could not satisfy
#: the resource constraints, or the generated switch program blew an
#: architectural budget (e.g. the Constraint-5 shim limit).
COMPILE_REFUSALS = (PartitionError, SwitchProgramError)


#: seconds spent inside :func:`compile_step` so far, process-wide;
#: :func:`drive` reports the part that fell inside its own campaign
_compile_s = 0.0


def compile_step(compile_fn: Callable, *args):
    """Compile under the DUT guard, on the clock every summary reports."""
    global _compile_s
    started = time.monotonic()
    try:
        with dut("compile", refusals=COMPILE_REFUSALS):
            return compile_fn(*args)
    finally:
        _compile_s += time.monotonic() - started


class Elapsed(NamedTuple):
    """A campaign's wall time, and how much of it was compiling."""

    total_s: float
    compile_s: float

    def __str__(self) -> str:
        return f"{self.total_s:.1f}s (compile {self.compile_s:.1f}s)"


@dataclass
class ProvenanceUnavailable:
    """Stands where the trace diff would when collecting it failed."""

    reason: str
    divergent = False

    def render(self) -> str:
        return f"provenance unavailable: {self.reason}"

    def to_dict(self) -> dict:
        return {"divergent": False, "unavailable": self.reason}


def collect_provenance(
    make_lhs: Callable,
    make_rhs: Callable,
    rerun: Callable,
    labels: Tuple[str, str],
    only_packet: Optional[int] = None,
):
    """Re-run both sides traced — ``rerun(make_lhs(telemetry),
    make_rhs(telemetry))`` — and pinpoint the first divergent event.
    Everything is seeded and tracing consumes no randomness, so the
    re-run reproduces the finding exactly.  Best-effort: a failure here
    must not mask the verdict, so it comes back as
    :class:`ProvenanceUnavailable`."""
    from repro.telemetry import Telemetry
    from repro.telemetry.diff import diff_traces

    try:
        sides = Telemetry(tracing=True), Telemetry(tracing=True)
        for side in sides:
            side.tracer.only_packet = only_packet
        rerun(make_lhs(sides[0]), make_rhs(sides[1]))
        return diff_traces(
            sides[0].tracer, sides[1].tracer,
            lhs_label=labels[0], rhs_label=labels[1],
        )
    except Exception as exc:
        return ProvenanceUnavailable(f"{type(exc).__name__}: {exc}")


#: Multiplier decorrelating per-run program seeds from the master seed.
SEED_STRIDE = 1_000_003
#: XOR'd into the program seed to derive the stream seed.
STREAM_SALT = 0x5EED


def derive_seeds(master_seed: int, index: int) -> tuple:
    """(program_seed, stream_seed) for run ``index`` under ``master_seed``."""
    program_seed = master_seed * SEED_STRIDE + index
    return program_seed, program_seed ^ STREAM_SALT


def cli_reproduce(command: str, flags: str = "") -> Callable[[int], str]:
    """``program_seed`` -> the command line that re-runs that scenario."""
    return lambda program_seed: (
        f"python -m repro {command} --runs 1"
        f" --seed-override {program_seed}{flags}"
    )


def drive(
    runs: int,
    seed: int,
    scenario: Callable[[int, int], Optional[object]],
    reproduce: Callable[[int], str],
    seed_override: Optional[int] = None,
    time_budget_s: Optional[float] = None,
    max_failures: Optional[int] = 10,
    log: Optional[Callable[[str], None]] = None,
    progress: Callable[[Elapsed], str] = lambda elapsed: "",
) -> Tuple[list, Elapsed]:
    """The seeded campaign loop; returns ``(failures, elapsed)``.

    ``scenario(index, program_seed)`` returns the run's failure (anything
    with a ``report()``) or ``None``.  ``seed_override`` pins the program
    seed of run 0 (the reproduce path); ``time_budget_s`` stops early.
    Every hundredth run logs ``progress`` of the time spent so far.
    An exception escaping ``scenario`` was raised outside every guard —
    by the harness, not by what it tests — and is re-raised as
    :class:`HarnessBug` naming ``reproduce(program_seed)``.
    """
    failures: list = []
    started, compiling = time.monotonic(), _compile_s

    def elapsed() -> Elapsed:
        return Elapsed(time.monotonic() - started, _compile_s - compiling)

    for index in range(runs):
        if (time_budget_s is not None
                and time.monotonic() - started > time_budget_s):
            break
        if seed_override is not None:
            program_seed = seed_override + index
        else:
            program_seed, _ = derive_seeds(seed, index)
        try:
            failure = scenario(index, program_seed)
        except Exception as exc:
            raise HarnessBug(
                f"the oracle harness itself failed on run #{index}"
                f" ({type(exc).__name__}: {exc}); reproduce:"
                f" {reproduce(program_seed)}"
            ) from exc
        if failure is not None:
            failures.append(failure)
            if log is not None:
                log(failure.report())
            if max_failures is not None and len(failures) >= max_failures:
                if log is not None:
                    log(f"stopping after {max_failures} failures")
                break
        elif log is not None and (index + 1) % 100 == 0:
            log(f"... {index + 1}/{runs} {progress(elapsed())}".rstrip())
    return failures, elapsed()


def progress_of(stats) -> Callable[[Elapsed], str]:
    """A progress line: ``stats.summary()`` as of the running clock."""
    def line(elapsed: Elapsed) -> str:
        stats.elapsed_s, stats.compile_s = elapsed
        return f"({stats.summary()})"
    return line


def minimize(
    shrinker: Callable,
    case: tuple,
    result,
    rerun: Callable,
    signature: Callable,
) -> Optional[tuple]:
    """Shrink ``case`` while ``rerun(*case, provenance=...)`` — the *same*
    scenario: seeds, roles, policy — keeps reaching ``signature(result)``,
    the outcome class and finding kind.  ``None`` when the failure does
    not reproduce (seeding should rule that out; the original is kept).
    The loop replays with provenance off; the surviving case once more
    with it on, so the trace diff matches the source the report shows.
    """
    want = signature(result)

    def predicate(*candidate) -> bool:
        return signature(rerun(*candidate, provenance=False)) == want

    try:
        minimized = shrinker(*case, predicate, trace_diff=result.trace_diff)
    except ValueError:
        return None
    replay = rerun(*minimized, provenance=True)
    if replay.trace_diff is not None:
        result.trace_diff = replay.trace_diff
    return minimized


def render_report(
    title: str,
    failure,
    outcome: str,
    reproduce: str,
    finding: Optional[Finding],
    scenario_rows: Sequence[Tuple[str, str]] = (),
    verdict_rows: Sequence[Tuple[str, str]] = (),
) -> str:
    """The one failure-report format: scenario, verdict, source, trace."""
    stream = failure.stream
    rows = [
        ("program seed", str(failure.program_seed)),
        ("stream", f"seed={stream.seed} count={stream.count}"
                   f" udp_ratio={stream.udp_ratio}"),
        *scenario_rows,
        ("outcome", outcome),
        ("reproduce", reproduce),
    ]
    if finding is not None:
        rows.append(("finding", str(finding)))
    rows.extend(verdict_rows)
    if failure.result.error:
        rows.append(("error", failure.result.error.rstrip()))
    lines = [f"=== {title} failure (run #{failure.index}) ==="]
    lines.extend(f"{label:<13}: {text}" for label, text in rows)
    minimized = getattr(failure, "minimized_program", None)
    label = "program" if minimized is None else "minimized"
    lines.append(f"--- {label} source ---")
    lines.append((minimized or failure.program).source().rstrip())
    minimized_stream = getattr(failure, "minimized_stream", None)
    if minimized_stream is not None:
        lines.append(
            f"minimized stream: seed={minimized_stream.seed}"
            f" count={minimized_stream.count}"
        )
    trace_diff = getattr(failure.result, "trace_diff", None)
    if trace_diff is not None:
        lines.append("--- trace provenance ---")
        lines.append(trace_diff.render().rstrip())
    return "\n".join(lines)
