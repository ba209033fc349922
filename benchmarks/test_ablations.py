"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. metadata live-range reuse vs naive allocation,
2. write-back atomic updates vs direct in-place updates
   (run-to-completion violation counting),
3. fast-path sensitivity: throughput as the slow-path share grows,
4. greedy boundary movement: offload shrinks monotonically as the shim
   budget tightens.
"""

import pytest

from benchmarks.conftest import emit
from repro.partition.constraints import allocate_metadata
from repro.eval.reporting import render_table
from repro.middleboxes import load
from repro.partition.constraints import SwitchResources
from repro.partition.partitioner import partition_middlebox
from repro.sim.capacity import CapacityModel
from repro.switchsim.tables import ExactMatchTable


def test_ablation_metadata_reuse(benchmark):
    """Live-range reuse must shrink scratchpad usage (paper §4.3.1)."""
    def measure():
        rows = []
        for name in ("mazunat", "lb", "trojan"):
            plan = partition_middlebox(load(name).lowered)
            # Naive: a dedicated slot for every register.
            naive = sum(reg.bytes for reg in plan.pre.registers().values())
            reuse = allocate_metadata(
                plan.pre, (), plan.to_server.names()
            ).total_bytes
            rows.append([name, naive, reuse, f"{1 - reuse / naive:.0%}"])
        return rows

    rows = benchmark(measure)
    emit("Ablation: scratchpad bytes (naive vs live-range reuse)",
         render_table(["Middlebox", "Naive", "Reuse", "Saved"], rows))
    for row in rows:
        assert row[2] < row[1], row


def test_ablation_writeback_vs_direct(benchmark):
    """Without the write-back bit, a reader interleaved with a multi-entry
    update observes partial state; with it, never (§4.3.3)."""
    def run(atomic: bool) -> int:
        violations = 0
        for trial in range(200):
            table_a = ExactMatchTable("a", [32], 32, 512)
            table_b = ExactMatchTable("b", [32], 32, 512)
            key = (trial,)
            if atomic:
                table_a.stage(key, 1)
                table_b.stage(key, 1)
                # Interleaved reader before the flip: sees neither.
                seen = (table_a.lookup(key)[0], table_b.lookup(key)[0])
                if seen == (True, False) or seen == (False, True):
                    violations += 1
                table_a.set_visibility(True)
                table_b.set_visibility(True)
            else:
                # Direct writes land one table at a time; the reader runs
                # between the two updates.
                table_a.stage(key, 1)
                table_a.set_visibility(True)
                table_a.fold_writeback()
                table_a.set_visibility(False)
                seen = (table_a.lookup(key)[0], table_b.lookup(key)[0])
                if seen == (True, False) or seen == (False, True):
                    violations += 1
                table_b.stage(key, 1)
                table_b.set_visibility(True)
                table_b.fold_writeback()
                table_b.set_visibility(False)
        return violations

    atomic_violations = benchmark.pedantic(
        run, args=(True,), iterations=1, rounds=1
    )
    direct_violations = run(False)
    emit(
        "Ablation: atomicity violations observed by interleaved readers",
        f"write-back+bit: {atomic_violations}   direct updates:"
        f" {direct_violations} / 200",
    )
    assert atomic_violations == 0
    assert direct_violations == 200


def test_ablation_fast_path_sensitivity(benchmark):
    """Gallium's throughput is a direct function of the punt fraction."""
    model = CapacityModel()

    def sweep():
        rows = []
        for slow_fraction in (0.0, 0.001, 0.01, 0.05, 0.2, 1.0):
            estimate = model.gallium_throughput(slow_fraction, 60, 1500)
            rows.append([f"{slow_fraction:.3f}", round(estimate.gbps, 1),
                         estimate.bottleneck])
        return rows

    rows = benchmark(sweep)
    emit("Ablation: throughput vs slow-path fraction (1500B)",
         render_table(["Slow fraction", "Gbps", "Bottleneck"], rows))
    gbps = [row[1] for row in rows]
    assert all(a >= b for a, b in zip(gbps, gbps[1:]))
    assert rows[0][2] == "line_rate"
    assert rows[-1][2] == "server"


def test_ablation_shim_budget(benchmark):
    """Offloaded instruction count shrinks monotonically as constraint 5
    tightens — each greedy move is forced by the budget."""
    lowered = load("lb").lowered

    def sweep():
        rows = []
        for budget in (20, 12, 8, 4, 1):
            plan = partition_middlebox(
                lowered, SwitchResources(transfer_bytes=budget)
            )
            counts = plan.counts()
            rows.append([budget, counts["pre"], counts["non_off"],
                         plan.to_server.byte_size()])
        return rows

    rows = benchmark.pedantic(sweep, iterations=1, rounds=1)
    emit("Ablation: LB offload vs shim budget (constraint 5)",
         render_table(["Budget (B)", "pre", "non_off", "shim used"], rows))
    pre_counts = [row[1] for row in rows]
    assert all(a >= b for a, b in zip(pre_counts, pre_counts[1:]))
    for row in rows:
        assert row[3] <= row[0]
