"""Drive the fault-isolation oracle under a tenant-scoped fault plan.

:func:`repro.tenancy.oracle.isolation_oracle` takes a plan of
:class:`~repro.faults.plan.TenantLinkFault` specs; no command hands it
one, so the oracle pins and ``test_faults.py`` build the plans here.
"""

import random
from typing import Sequence

from repro.faults.plan import FaultPlan, TenantLinkFault
from repro.tenancy.oracle import IsolationResult, isolation_oracle
from repro.workloads.iperf import IperfWorkload


def fault_isolation(
    names: Sequence[str],
    fault_plan: FaultPlan,
    packets_per_tenant: int,
    injector_seed: int = 0,
) -> IsolationResult:
    """Every tenant against its solo reference under *its own* slice of
    ``fault_plan``.  Short flows: a tenant-link fault only bites on the
    punt path, so the workload keeps new flows (and punts) coming."""
    return isolation_oracle(
        names, packets_per_tenant, budget=None, seed=0, fast_path=False,
        fault_plan=fault_plan, injector_seed=injector_seed,
        workload=IperfWorkload(connections=32, packets_per_connection=3),
        series_window_us=None,
    )


def generate_tenant_plan(
    rng: random.Random, names: Sequence[str], stream_len: int
) -> FaultPlan:
    """One random tenant-scoped schedule: 1-2 punt-link faults, all
    addressed to a single randomly chosen tenant."""
    faulted = rng.choice(list(names))
    specs = []
    for _ in range(rng.randint(1, 2)):
        start = rng.randrange(0, max(1, stream_len // 2))
        specs.append(TenantLinkFault(
            tenant=faulted,
            direction=rng.choice(["to_server", "to_switch"]),
            mode=rng.choice(["loss", "loss", "corrupt"]),
            probability=rng.choice([0.15, 0.3, 0.6]),
            start=start,
            stop=rng.choice([None, start + rng.randint(3, stream_len)]),
        ))
    return FaultPlan(faults=tuple(specs))
