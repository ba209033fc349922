"""Property: an aborted update batch rolls the switch back byte-exactly.

For every fault plan in the committed reproducer corpus (and a forced
always-abort plan over the same programs, so the rollback path is
exercised non-vacuously — the historical entries happen to roll
*forward*), the switch state observed immediately after an
``UpdateBatchError`` must be byte-identical to the pre-batch image:
committed table entries, staged write-back contents, visibility bits,
and register values.  Checked on both the plain and the bounded-cache
deployment.
"""

import pytest

from repro.faults.corpus import load_corpus
from repro.faults.injector import FaultInjector
from repro.faults.plan import BatchFault, FaultPlan
from repro.runtime.cache import CacheConfigurationError, CachedGalliumMiddlebox
from repro.runtime.deployment import GalliumMiddlebox, compile_middlebox
from repro.switchsim.control_plane import UpdateBatchError

#: Every attempt of every batch fails: retry exhaustion forces the abort
#: + rollback path on each punt that carries state updates.
ABORT_PLAN = FaultPlan(faults=(BatchFault(mode="fail", probability=1.0),))

CORPUS = load_corpus()


def _switch_image(switch):
    """Byte-exact switch state: committed entries, staged write-back,
    visibility bits, and register values.

    Deliberately reaches past ``snapshot()`` into the raw table
    internals: a rollback that left residue in the (invisible) staging
    area would poison the *next* batch's fold, and the effective view
    alone cannot see it.
    """
    tables = {
        name: (
            dict(table._main),
            dict(table._writeback),
            table._writeback_visible,
        )
        for name, table in switch.tables.items()
    }
    registers = {name: reg.value for name, reg in switch.registers.items()}
    return tables, registers


def _audit_rollbacks(box):
    """Image the switch around every batch the redundancy role commits;
    on abort, demand byte-identity with the pre-batch image before
    re-raising.  (Shadows the role's ``apply_batch`` on the instance —
    the packet loop looks it up per call.)"""
    box.rollbacks_verified = 0
    box.commits_seen = 0
    apply_batch = box.redundancy.apply_batch

    def audited(updates):
        pre = _switch_image(box.switch)
        try:
            result = apply_batch(updates)
        except UpdateBatchError:
            post = _switch_image(box.switch)
            assert post == pre, (
                "aborted batch left residue on the switch:\n"
                f"  pre : {pre}\n  post: {post}"
            )
            box.rollbacks_verified += 1
            raise
        box.commits_seen += 1
        return result

    box.redundancy.apply_batch = audited


def _run(entry, fault_plan, cached):
    plan, program = compile_middlebox(entry.source)
    if not any(placement.replicated for placement in plan.placements.values()):
        pytest.skip(f"{entry.name}: no replicated state, no update batch")
    injector = FaultInjector(fault_plan, seed=entry.injector_seed)
    cls = CachedGalliumMiddlebox if cached else GalliumMiddlebox
    try:
        box = cls(
            plan, program, seed=entry.deployment_seed, policy=entry.policy,
            injector=injector,
        )
    except CacheConfigurationError as exc:
        pytest.skip(f"{entry.name}: not cacheable ({exc})")
    _audit_rollbacks(box)
    box.install()
    for packet, ingress in entry.stream.build():
        box.process_packet(packet.copy(), ingress)
        box.drain_deferred()
    box.recover()
    box.drain_deferred()
    return box


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
class TestRollbackByteIdentity:
    def test_corpus_plan(self, entry, cached):
        """Replay the entry's own fault plan; the audit mixin asserts
        byte-identity on every abort it encounters (historical entries
        may roll forward instead — that path commits, no assertion)."""
        box = _run(entry, entry.fault_plan, cached)
        assert box.commits_seen + box.rollbacks_verified > 0, (
            "scenario never reached the control plane — vacuous replay"
        )

    def test_forced_abort_plan(self, entry, cached):
        """Same program and stream under the always-abort plan: every
        update batch must abort, and every abort must roll back
        byte-exactly."""
        box = _run(entry, ABORT_PLAN, cached)
        assert box.rollbacks_verified > 0, (
            "always-abort plan produced no rollbacks — property untested"
        )
        assert box.commits_seen == 0, (
            "a batch committed despite every attempt being doomed"
        )


def test_corpus_is_not_empty():
    """The property above quantifies over the corpus; guard the corpus
    existing so a checkout problem cannot silently vacuate it."""
    assert CORPUS, "tests/faults_corpus/ is empty"
