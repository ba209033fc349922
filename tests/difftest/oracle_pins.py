"""Golden verdict pins for every oracle in the repo.

Each pin is the full verdict one oracle reaches on one seeded scenario —
outcome, finding (where, kind, packet index), and the packet accounting
that oracle reports — recorded on the commit *before* the five oracles
were rewritten over one kernel, so "the rewrite changed no verdict" is a
comparison of two JSON files.  Five groups:

* ``difftest`` — ``run_oracle`` on generated programs + the corpus,
* ``faults`` — ``run_fault_oracle`` on campaign scenarios under each of
  the eight role combinations,
* ``compiled`` — ``check_compiled`` on generated programs,
* ``tenancy`` — the isolation oracle on the bundled trio,
* ``sensitivity`` — deliberately broken deployments and two reintroduced
  historical compiler bugs, each pinned to the finding that catches it:
  an oracle that compares nothing passes the first four groups and fails
  this one.

The *narrow* sweep runs inside tier-1 (``test_oracle_pins.py``); the
*wide* one behind ``make oracle-pins``::

    PYTHONPATH=src python -m tests.difftest.oracle_pins [--wide] [--write]

Regenerate with ``--write`` only when a verdict is meant to change, and
say which pin moved and why in CHANGES.md.
"""

from __future__ import annotations

import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterator, List
from unittest import mock

from repro.difftest.compiled import check_compiled
from repro.difftest.corpus import load_corpus, replay_entry
from repro.difftest.generator import generate_program
from repro.difftest.oracle import StreamSpec, check_artifacts, run_oracle
from repro.difftest.runner import derive_seeds
from repro.faults.campaign import random_policy, seeds_for_program
from repro.faults import oracle as fault_oracle
from repro.faults.injector import FaultInjector
from repro.faults.oracle import run_fault_oracle
from repro.faults.plan import (
    BatchFault,
    FaultPlan,
    LinkFault,
    PoolMemberCrash,
    generate_plan,
)
from repro.ir import instructions as irin
from repro.partition.constraints import SwitchResources
from repro.runtime.degradation import DegradationPolicy, DropAccounting
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.runtime.spec import DeploymentSpec
from repro.tenancy import build_tenant_specs
from repro.tenancy.oracle import run_isolation_oracle

GOLDEN = Path(__file__).parent / "golden" / "oracle_pins.json"

#: master seed every generated scenario derives from
PIN_SEED = 13
PACKETS = 25
TRIO = ["minilb", "mazunat", "lb"]
#: all eight role combinations (the last two since the plan generator
#: follows the ``DeploymentSpec``)
ROLE_COMBOS = {
    "base": DeploymentSpec(),
    "cached": DeploymentSpec(cache_entries=2),
    "failover": DeploymentSpec(standby_detection="phi"),
    "cached+failover": DeploymentSpec(
        cache_entries=2, standby_detection="phi"
    ),
    "pool": DeploymentSpec(pool_servers=3),
    "pool+cached": DeploymentSpec(pool_servers=3, cache_entries=2),
    "pool+failover": DeploymentSpec(
        pool_servers=3, standby_detection="phi"
    ),
    "pool+cached+failover": DeploymentSpec(
        pool_servers=3, cache_entries=2, standby_detection="phi"
    ),
}
#: switch budgets no program fits: the partitioner's refusal and the
#: switch program's (the Constraint-5 shim limit) must both pin "rejected"
TINY_LIMITS = {
    "metadata": SwitchResources(metadata_bytes=0),
    "transfer": SwitchResources(transfer_bytes=0),
}
#: The narrow sweep keeps to programs of at most this many source lines:
#: compile time is heavy-tailed in program size (4 ms to 13 s), and the
#: narrow sweep has to fit in tier-1.  The wide sweep takes every program.
NARROW_MAX_LINES = 60
#: The narrow fault sweep's programs, by index under ``PIN_SEED``: five
#: the bounded cache refuses and five it admits (only one generated
#: program in six has a replicated table to cache, so the first ten would
#: pin the three cached combinations to "rejected" and little else).
NARROW_FAULT_PROGRAMS = (0, 1, 3, 4, 5, 11, 21, 26, 43, 46)
#: scenarios per group: (narrow, wide)
SIZES = {
    "difftest": (30, 100),
    "faults": (len(NARROW_FAULT_PROGRAMS), 30),
    "compiled": (15, 40),
}


def program_at(master_seed: int, index: int) -> tuple:
    """``(label, program_seed, stream_seed, source)`` of one scenario."""
    program_seed, stream_seed = derive_seeds(master_seed, index)
    source = generate_program(program_seed).source()
    return f"gen{index:03d}", program_seed, stream_seed, source


def programs(master_seed: int, count: int, wide: bool) -> Iterator[tuple]:
    """The first ``count`` scenarios under ``master_seed`` that the sweep
    admits."""
    index = found = 0
    while found < count:
        scenario = program_at(master_seed, index)
        if wide or len(scenario[3].splitlines()) <= NARROW_MAX_LINES:
            yield scenario
            found += 1
        index += 1


def _finding(finding) -> list:
    if finding is None:
        return [None, None, None]
    return [finding.where, finding.kind, finding.packet_index]


def _oracle_row(result) -> list:
    return [
        result.outcome.value, *_finding(result.divergence),
        result.packets_run, result.cached_checked,
        len(result.verifier_errors),
    ]


def difftest_pins(count: int, wide: bool) -> Dict[str, list]:
    pins = {}
    for label, program_seed, stream_seed, source in programs(
        PIN_SEED, count, wide
    ):
        result = run_oracle(
            source, StreamSpec(seed=stream_seed, count=PACKETS),
            deployment_seed=program_seed,
        )
        pins[label] = _oracle_row(result)
    _, program_seed, stream_seed, source = program_at(PIN_SEED, 0)
    for budget, limits in TINY_LIMITS.items():
        pins[f"refused/{budget}"] = _oracle_row(run_oracle(
            source, StreamSpec(seed=stream_seed, count=PACKETS),
            limits=limits, deployment_seed=program_seed,
        ))
    for entry in load_corpus():
        pins[f"corpus/{entry.name}"] = _oracle_row(replay_entry(entry))
        pins[f"corpus/{entry.name}/compiled"] = _oracle_row(
            replay_entry(entry, fast_path=True)
        )
    return pins


def _fault_row(result) -> list:
    return [
        result.outcome.value, *_finding(result.violation),
        result.delivered, result.degraded, sorted(result.injected.items()),
    ]


def fault_pins(count: int, wide: bool) -> Dict[str, list]:
    # Every role combination runs the same programs, and compiling is
    # > 90 % of a scenario: compile each once.  ``run_fault_oracle``
    # resolves the compiler through its module (the benchmark's traced
    # run relies on that too), so memoizing it there is enough.
    with mock.patch.object(
        fault_oracle, "compile_middlebox", lru_cache(None)(compile_middlebox)
    ):
        return _fault_pins(count, wide)


def _fault_pins(count: int, wide: bool) -> Dict[str, list]:
    pins = {}
    scenarios = (
        list(programs(PIN_SEED, count, wide)) if wide
        else [program_at(PIN_SEED, index) for index in NARROW_FAULT_PROGRAMS]
    )
    for combo, deployment in ROLE_COMBOS.items():
        for label, program_seed, stream_seed, source in scenarios:
            _, _, plan_seed, injector_seed, deploy_seed = (
                seeds_for_program(program_seed)
            )
            rng = random.Random(plan_seed)
            plan = generate_plan(rng, PACKETS, deployment)
            result = run_fault_oracle(
                source, StreamSpec(seed=stream_seed, count=PACKETS), plan,
                policy=random_policy(rng), injector_seed=injector_seed,
                deployment_seed=deploy_seed, deployment=deployment,
            )
            pins[f"{combo}/{label}"] = _fault_row(result)
    _, _, stream_seed, source = scenarios[0]
    for budget, limits in TINY_LIMITS.items():
        pins[f"refused/{budget}"] = _fault_row(run_fault_oracle(
            source, StreamSpec(seed=stream_seed, count=PACKETS), FaultPlan(),
            limits=limits,
        ))
    return pins


def compiled_pins(count: int, wide: bool) -> Dict[str, list]:
    pins = {}
    for label, program_seed, stream_seed, source in programs(
        PIN_SEED + 1, count, wide
    ):
        result = check_compiled(
            source, StreamSpec(seed=stream_seed, count=PACKETS),
            deployment_seed=program_seed,
        )
        pins[label] = [
            result.outcome, *_finding(result.divergence),
            result.packets_run, result.deployment_checked,
        ]
    return pins


def tenancy_pins() -> Dict[str, list]:
    result = run_isolation_oracle(
        build_tenant_specs(TRIO), packets_per_tenant=40
    )
    return {"clean": [
        result.ok,
        [[v.name, v.packets, v.punts, round(v.extra_sync_wait_us, 3),
          v.mismatches] for v in result.verdicts],
    ]}


# -- sensitivity: each injected bug, and the finding that must catch it ------


FAULTBOX_STREAM = StreamSpec(seed=1, count=20)


def _faultbox(plan=FaultPlan(), fail_open=False, **kwargs) -> list:
    from tests.faults.test_degradation import FAULTBOX

    result = run_fault_oracle(
        FAULTBOX, FAULTBOX_STREAM, plan,
        policy=DegradationPolicy(fail_open=fail_open), **kwargs,
    )
    return [result.outcome.value, *_finding(result.violation)]


def _unaccounted_drop() -> list:
    with mock.patch.object(DropAccounting, "count", lambda self, reason: None):
        return _faultbox(FaultPlan((LinkFault(probability=1.0),)))


def _fail_open_tampering() -> list:
    original = GalliumMiddlebox._degrade

    def leaky(self, pristine, *args, **kwargs):
        journey = original(self, pristine, *args, **kwargs)
        if journey.verdict == "send" and journey.emitted:
            port, packet = journey.emitted[0]
            journey.emitted[0] = (port + 7, packet)
        return journey

    with mock.patch.object(GalliumMiddlebox, "_degrade", leaky):
        return _faultbox(
            FaultPlan((BatchFault(probability=0.0, doom_probability=1.0),)),
            fail_open=True,
        )


def _skewed_complete_punt() -> list:
    original = GalliumMiddlebox.complete_punt

    def skewed(self, punted):
        completion = original(self, punted)
        if self.injector is None and completion.emitted:
            port, packet = completion.emitted[0]
            completion.emitted[0] = (port + 7, packet)
        return completion

    with mock.patch.object(GalliumMiddlebox, "complete_punt", skewed):
        return _faultbox(verify_packets=0)


def _lingering_degradation() -> list:
    with mock.patch.object(FaultInjector, "clear", lambda self: None):
        return _faultbox(FaultPlan((LinkFault(probability=1.0),)))


def _member_outage_opens_fallback(combo: str) -> list:
    """A pool that answers a member outage with full switch-side
    fallback — what the pool oracle's rule (1) forbids, with or without
    a standby whose own outages may open one."""

    def switch_down(self, index):
        return not self._cleared and any(
            spec.active(index)
            for spec in self.plan.by_kind("pool_member_crash")
        )

    with mock.patch.object(FaultInjector, "switch_down", switch_down):
        return _faultbox(
            FaultPlan((
                PoolMemberCrash("srv1", at_packet=4, migration_window=4),
            )),
            deployment=ROLE_COMBOS[combo], provenance=False,
        )


def _reintroduced(entry_name: str, instruction_type) -> list:
    """A historical compiler bug brought back by deleting the server-side
    instruction whose mishandling caused it (as in
    ``tests/telemetry/test_provenance.py``)."""
    entry = {e.name: e for e in load_corpus()}[entry_name]
    plan, program = compile_middlebox(entry.source)
    for block in plan.non_offloaded.blocks.values():
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, instruction_type):
                del block.instructions[index]
                result = check_artifacts(
                    plan, program, entry.stream, check_cached=False,
                    provenance=False,
                )
                return [result.outcome.value, *_finding(result.divergence)]
    raise AssertionError(f"no {instruction_type.__name__} in {entry_name}")


SENSITIVITY: Dict[str, Callable[[], list]] = {
    "unaccounted_drop": _unaccounted_drop,
    "fail_open_tampering": _fail_open_tampering,
    "skewed_complete_punt": _skewed_complete_punt,
    "lingering_degradation": _lingering_degradation,
    "stranded_offloaded_register_write": lambda: _reintroduced(
        "stranded_offloaded_register_write", irin.RegisterRMW
    ),
    "l4_alias_hoist": lambda: _reintroduced(
        "l4_alias_hoist", irin.StorePacketField
    ),
    "member_outage_opens_fallback/pool": lambda: (
        _member_outage_opens_fallback("pool")
    ),
    "member_outage_opens_fallback/pool+failover": lambda: (
        _member_outage_opens_fallback("pool+failover")
    ),
}


def _sized(group: str, pins: Callable) -> Callable[[bool], Dict[str, list]]:
    return lambda wide: pins(SIZES[group][wide], wide)


#: group name -> ``pins(wide)``
GROUPS: Dict[str, Callable[[bool], Dict[str, list]]] = {
    "difftest": _sized("difftest", difftest_pins),
    "faults": _sized("faults", fault_pins),
    "compiled": _sized("compiled", compiled_pins),
    "tenancy": lambda wide: tenancy_pins(),
    "sensitivity": lambda wide: {
        name: bug() for name, bug in SENSITIVITY.items()
    },
}


def compute(wide: bool = False) -> Dict[str, Dict[str, list]]:
    return json.loads(json.dumps(
        {group: pins(wide) for group, pins in GROUPS.items()}
    ))


def moved(computed: dict, recorded: dict) -> List[str]:
    """``group/pin`` names whose verdict differs from the recorded one."""
    return [
        f"{group}/{name}: recorded {recorded[group].get(name)!r}"
        f" now {computed[group].get(name)!r}"
        for group in recorded
        for name in sorted(set(recorded[group]) | set(computed[group]))
        if recorded[group].get(name) != computed[group].get(name)
    ]


def _dump(pins: dict) -> str:
    lines = []
    for sweep, groups in pins.items():
        body = ",\n".join(
            f"  {json.dumps(group)}: {{\n" + ",\n".join(
                f"   {json.dumps(name)}: {json.dumps(row)}"
                for name, row in rows.items()
            ) + "\n  }"
            for group, rows in groups.items()
        )
        lines.append(f" {json.dumps(sweep)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def run(argv: List[str], golden: Path, compute, moved, what: str) -> int:
    """The pin command line: recompute ``compute(wide)``, then print what
    ``moved`` against ``golden`` (exit 1) or, with ``--write``, record it.
    Shared with ``tests/verify/prover_pins.py``."""
    sweeps = ["narrow", "wide"] if "--wide" in argv else ["narrow"]
    computed = {sweep: compute(sweep == "wide") for sweep in sweeps}
    if "--write" in argv:
        recorded = json.loads(golden.read_text()) if golden.exists() else {}
        recorded.update(computed)
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(_dump(recorded))
        print(f"wrote {golden} ({', '.join(sweeps)})")
        return 0
    recorded = json.loads(golden.read_text())
    missing = [sweep for sweep in sweeps if sweep not in recorded]
    if missing:
        print(f"{golden.name} has no {', '.join(missing)} group recorded"
              " (record one with --write)")
        return 1
    differences = [
        f"{sweep}/{line}"
        for sweep in sweeps
        for line in moved(computed[sweep], recorded[sweep])
    ]
    for line in differences:
        print(line)
    if not differences:
        print(f"{what} hold ({', '.join(sweeps)})")
    return 1 if differences else 0


def main(argv: List[str]) -> int:
    return run(argv, GOLDEN, compute, moved, "oracle pins")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
