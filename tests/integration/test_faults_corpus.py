"""Replay every committed fault-scenario reproducer (tests/faults_corpus/).

Each corpus entry is a fault schedule that once exposed a runtime bug in
the deployment's fault handling; after the fix it must replay through the
fault oracle with its recorded expectation (``degraded_ok``) and no
violation.  A regression here means a previously-fixed fault-handling bug
is back — the entry's ``description`` names the original bug.
"""

import pytest

from repro.faults.corpus import CORPUS_DIR, load_corpus, replay_entry

ENTRIES = load_corpus()


def test_corpus_present():
    """The campaign-found runtime bugs are all represented."""
    names = {entry.name for entry in ENTRIES}
    assert {
        "timeout_then_fail_exhaustion",
        "pool_checkpoint_stale_after_promotion",
        "pool_migration_inside_promotion_window",
        "lost_return_leg_post_write_823",
        "lost_return_leg_post_write_956",
        "lost_return_leg_post_write_failover_1660",
    } <= names, f"missing corpus entries in {CORPUS_DIR}"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_corpus_entry_replays_clean(entry):
    result = replay_entry(entry)
    assert result.outcome.value == entry.expect and result.violation is None, (
        f"{entry.name}: {entry.description}\n"
        f"outcome={result.outcome.value}"
        f" violation={result.violation} error={result.error}"
    )
