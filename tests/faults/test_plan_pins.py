"""Golden pins of the fault-schedule generator.

A campaign scenario draws its fault plan and then its degradation policy
from one ``Random(plan_seed)``, so a generator that consumes one draw
more or fewer moves every scenario after it.  Each pin is both draws for
one plan seed under one of the deployment specs callers generate plans
for; the file was recorded on the commit *before* the three per-role
generators became one, so "the rewrite moved no scenario" is a comparison
of two JSON files::

    PYTHONPATH=src python -m tests.faults.test_plan_pins [--write]

Regenerate with ``--write`` only when scenarios are meant to move, and
say so in CHANGES.md — every campaign seed in EXPERIMENTS.md moves with
them.
"""

import json
import random
import sys
from pathlib import Path
from typing import Dict, List

from repro.faults.campaign import random_policy
from repro.faults.plan import generate_plan
from repro.runtime.spec import DeploymentSpec

from tests.difftest import oracle_pins

GOLDEN = Path(__file__).parent / "golden" / "plan_pins.json"

PLAN_SEEDS = range(64)
STREAM_LEN = 25
#: the specs whose plans existed before the generators merged (a bounded
#: cache draws the plans of the spec without it)
SPECS = {
    "base": DeploymentSpec(),
    "failover": DeploymentSpec(standby_detection="phi"),
    "pool3": DeploymentSpec(pool_servers=3),
    "pool1": DeploymentSpec(pool_servers=1),
}


def draws(spec: DeploymentSpec, plan_seed: int) -> list:
    rng = random.Random(plan_seed)
    plan = generate_plan(rng, STREAM_LEN, spec)
    policy = random_policy(rng)
    return [
        plan.to_dict(),
        [policy.fail_open, policy.punt_queue_depth, policy.retry.max_attempts],
    ]


def compute(wide: bool = False) -> Dict[str, Dict[str, list]]:
    return {
        name: {f"seed{seed:02d}": draws(spec, seed) for seed in PLAN_SEEDS}
        for name, spec in SPECS.items()
    }


def test_every_scenario_draws_what_it_drew_before_the_merge():
    recorded = json.loads(GOLDEN.read_text())["narrow"]
    assert oracle_pins.moved(compute(), recorded) == []


def main(argv: List[str]) -> int:
    return oracle_pins.run(
        argv, GOLDEN, compute, oracle_pins.moved, "plan pins"
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
