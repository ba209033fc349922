"""Fault campaign on the bounded-cache deployment (``faults --cached``).

The cached deployment (paper §7, "Reducing memory usage") adds three
behaviours the full-replication deployment never shows — misses punt to
the server, FIFO eviction keeps tables bounded, and crash recovery
rebuilds only the cache subset — so the fault oracle must hold it to
*coherence* (cache ⊆ authoritative state, within bound) rather than
strict table equality.  These tests pin the cached oracle's outcome
classes and the eviction/rollback corner cases.
"""

import pytest

from repro.difftest.oracle import StreamSpec
from repro.faults import (
    BatchFault,
    FaultPlan,
    LinkFault,
    ServerCrash,
    run_campaign,
    run_fault_oracle,
)
from repro.faults.corpus import FaultCorpusEntry
from repro.runtime.degradation import DegradationPolicy
from repro.runtime.spec import DeploymentSpec

#: Offloads a map find (replicated table + cache) with the insert on the
#: server — the §7 cached-deployment shape.
MAP_SOURCE = """class Box {
  // @gallium: max_entries=64
  HashMap<uint32_t, uint16_t> m0;

  void process(Packet *pkt) {
    iphdr *ip = pkt->network_header();
    tcphdr *tcp = pkt->tcp_header();
    uint32_t k1 = (uint32_t)(tcp->sport);
    uint16_t *h1 = m0.find(&k1);
    if (h1 != NULL) {
      ip->ttl = 7;
    } else {
      uint16_t v1 = (uint16_t)(ip->ttl);
      m0.insert(&k1, &v1);
    }
    pkt->send();
  }
};
"""

#: No offloadable map table: the cached deployment must refuse it.
REGISTER_SOURCE = """class Box {
  uint32_t ctr0;

  void process(Packet *pkt) {
    ctr0 += 1;
    pkt->send();
  }
};
"""

STREAM = StreamSpec(seed=7, count=30)


CACHED = DeploymentSpec(cache_entries=2)


def _run(source, plan, deployment=CACHED, **kwargs):
    return run_fault_oracle(
        source, STREAM, plan, deployment=deployment, **kwargs
    )


def test_cached_rejects_program_without_map_tables():
    result = _run(REGISTER_SOURCE, FaultPlan())
    assert result.outcome.value == "rejected"
    # Early exits carry the flavour too (they used to report as base).
    assert result.deployment == CACHED
    assert result.error


def test_cached_clean_without_faults():
    result = _run(MAP_SOURCE, FaultPlan())
    assert result.outcome.value == "clean", result.violation or result.error
    assert result.deployment == CACHED
    assert result.degraded == 0


def test_cached_converges_through_server_crash():
    plan = FaultPlan(faults=(
        ServerCrash(at_packet=8, outage=5, lose_state=True),
    ))
    result = _run(MAP_SOURCE, plan)
    assert result.outcome.value in ("clean", "degraded_ok"), (
        result.violation or result.error
    )
    assert result.deployment == CACHED


def test_cached_survives_link_loss_and_batch_failures():
    plan = FaultPlan(faults=(
        LinkFault(direction="to_server", mode="loss", probability=0.5),
        BatchFault(mode="fail", probability=0.5, doom_probability=0.3),
    ))
    result = _run(
        MAP_SOURCE, plan,
        policy=DegradationPolicy(fail_open=True),
        injector_seed=11,
    )
    assert result.outcome.value in ("clean", "degraded_ok"), (
        result.violation or result.error
    )


def test_cached_eviction_bound_respected_under_faults():
    """With cache_entries=1 every second flow evicts; the oracle's
    coherence check (cache subset + bound) must still pass."""
    plan = FaultPlan(faults=(
        BatchFault(mode="timeout", probability=0.4),
    ))
    result = _run(
        MAP_SOURCE, plan, DeploymentSpec(cache_entries=1), injector_seed=3
    )
    assert result.outcome.value in ("clean", "degraded_ok"), (
        result.violation or result.error
    )


def test_cached_campaign_accepts_map_program():
    # program seed 3000011 offloads a map table and survives its fault
    # schedule on the cache deployment (found by the cached sweep)
    stats, failures = run_campaign(
        runs=1, seed=0, packets=10, seed_override=3000011, deployment=CACHED,
    )
    assert failures == []
    assert stats.clean + stats.degraded_ok == 1


def test_cached_campaign_counts_rejections():
    # program seed 3000009 has no replicated map table: cache mode refuses
    stats, failures = run_campaign(
        runs=1, seed=0, packets=10, seed_override=3000009, deployment=CACHED,
    )
    assert failures == []
    assert stats.rejected == 1


def test_an_entry_without_a_deployment_ran_on_the_base_flavour():
    """... and the ``cached`` / ``failover`` booleans entries carried before
    the flavour travelled as one value are no longer read (no committed
    entry has them): they are rejected, not ignored."""
    data = FaultCorpusEntry(
        name="t", source=MAP_SOURCE, stream=STREAM, fault_plan=FaultPlan(),
        policy=DegradationPolicy(),
    ).to_dict()
    del data["deployment"]
    assert FaultCorpusEntry.from_dict(data).deployment == DeploymentSpec()
    data.update(cached=True, failover=True)
    with pytest.raises(ValueError, match="unknown key 'cached'"):
        FaultCorpusEntry.from_dict(data)


#: every role combination the fault harness admits
LEGAL_DEPLOYMENTS = [
    DeploymentSpec(),
    CACHED,
    DeploymentSpec(standby_detection="phi"),
    DeploymentSpec(cache_entries=2, standby_detection="phi"),
    DeploymentSpec(pool_servers=3),
    DeploymentSpec(pool_servers=3, cache_entries=4),
]


@pytest.mark.parametrize(
    "deployment", LEGAL_DEPLOYMENTS, ids=lambda d: d.cli_flags() or "base"
)
def test_failure_to_corpus_to_replay_keeps_the_roles(deployment, tmp_path):
    """A failure found under ``--servers 3`` (or any other flavour) must
    be saved, loaded and replayed as that flavour — pool size and cache
    size used to be dropped on the way into the corpus."""
    from repro.difftest.generator import generate_program
    from repro.faults.campaign import FaultFailure
    from repro.faults.corpus import (
        FaultCorpusEntry,
        load_corpus,
        replay_entry,
        save_entry,
    )
    from repro.faults.oracle import FaultOracleResult, FaultOutcome

    failure = FaultFailure(
        index=0,
        program_seed=3000011,
        stream=StreamSpec(seed=7, count=10),
        program=generate_program(3000011),  # offloads a map table
        fault_plan=FaultPlan(),
        policy=DegradationPolicy(),
        injector_seed=0,
        deployment_seed=0,
        result=FaultOracleResult(
            FaultOutcome.VIOLATION, deployment=deployment
        ),
    )
    assert (
        f"--seed-override 3000011{deployment.cli_flags()}\n"
        in failure.report()
    )
    save_entry(FaultCorpusEntry(
        name="t", source=failure.program.source(), stream=failure.stream,
        fault_plan=failure.fault_plan, policy=failure.policy,
        injector_seed=0, deployment_seed=0, found_by_seed=3000011,
        deployment=failure.deployment,
    ), tmp_path)
    (entry,) = load_corpus(tmp_path)
    assert entry.deployment == failure.deployment == deployment
    replayed = replay_entry(entry)
    assert replayed.deployment == failure.deployment
    assert replayed.outcome.value == "clean", replayed.error
