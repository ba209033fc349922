"""Graceful-degradation policy for a deployed Gallium middlebox.

A production middlebox cannot assume every punt reaches the server or that
every update batch lands: links lose frames, control-plane RPCs fail, the
server restarts.  :class:`DegradationPolicy` declares — per middlebox —
what the deployment does when the slow path is unavailable, and
:class:`DropAccounting` makes every degraded packet explicit so the fault
oracle can verify that nothing is lost silently.

Degradation reasons
-------------------
``punt_lost`` / ``punt_corrupted``
    The switch→server frame vanished (loss, or an FCS-failing frame the
    server NIC discarded).  The packet is gone; always accounted as a drop.
``return_lost`` / ``return_corrupted``
    The server→switch frame vanished *after* the state batch committed:
    state stays consistent, only the packet is lost.
``server_down`` / ``queue_overflow`` / ``total_outage``
    The server was unreachable and the bounded punt queue could not hold
    the packet; the fail-open/fail-closed policy decides the outcome.
``pool_member_down``
    The packet's owning pool member is down (crash) or quiescing
    (drain), its migration window is still open, and the bounded punt
    queue could not hold the packet; policy-arbitrated like
    ``queue_overflow`` but accounted separately so the pool oracle can
    bound the blast radius to the member's own flows.
``writeback_failed`` / ``writeback_overflow``
    The atomic update batch could not be committed after retries; the
    server rolls its state back (output commit forbids releasing the
    rewritten packet) and the policy decides the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.corpus_format import fields_from
from repro.switchsim.control_plane import RetryPolicy
from repro.telemetry.metrics import counter_property

#: Reasons where the packet is physically gone: policy cannot save it.
UNSALVAGEABLE_REASONS = frozenset({
    "punt_lost", "punt_corrupted", "return_lost", "return_corrupted",
})
#: Of those, a punt whose state committed but whose post never ran.
RETURN_LEG_REASONS = frozenset({"return_lost", "return_corrupted"})

#: Reasons the fail-open/fail-closed policy arbitrates.
POLICY_REASONS = frozenset({
    "server_down", "queue_overflow", "total_outage",
    "writeback_failed", "writeback_overflow", "pool_member_down",
})

#: The canonical drop-reason taxonomy.  Deployment, degradation policy,
#: fault oracle, and the metrics registry all share this closed set;
#: counting a reason outside it is a programming error, not a new metric.
DROP_REASONS = UNSALVAGEABLE_REASONS | POLICY_REASONS


@dataclass(frozen=True)
class DegradationPolicy:
    """Per-middlebox declaration of behaviour under faults."""

    #: True: degraded packets are forwarded as received (bypass wire);
    #: False: degraded packets are dropped (the safe default for
    #: security middleboxes like firewalls).
    fail_open: bool = False
    #: Punts buffered while the server is down before overflow.
    punt_queue_depth: int = 32
    #: Retry schedule for failed update batches.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def to_dict(self) -> dict:
        return {
            "fail_open": self.fail_open,
            "punt_queue_depth": self.punt_queue_depth,
            "retry": self.retry.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DegradationPolicy":
        kwargs = fields_from(data, cls, "policy")
        if "retry" in kwargs:
            kwargs["retry"] = RetryPolicy.from_dict(kwargs["retry"])
        return cls(**kwargs)


class DropAccounting:
    """Explicit ledger of every packet the deployment degraded.

    ``by_reason`` counts degradations by cause; ``failed_open`` /
    ``failed_closed`` split them by outcome.  The invariant the fault
    oracle enforces: every processed packet is either delivered with full
    middlebox semantics or appears here — no silent losses.

    The ledger is backed by a
    :class:`~repro.telemetry.metrics.MetricsRegistry` (pass the
    deployment's registry so drop counters appear alongside every other
    metric under the ``drops.`` prefix); the legacy integer attributes
    remain as read/write properties over the registry counters.
    """

    _FIELDS = (
        "failed_open", "failed_closed", "queued", "reordered",
        "server_restarts", "fallback_packets", "switch_resyncs",
    )

    def __init__(self, metrics=None):
        from repro.telemetry import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._counters = {
            name: self.metrics.counter(f"drops.{name}")
            for name in self._FIELDS
        }

    def count(self, reason: str) -> None:
        if reason not in DROP_REASONS:
            raise ValueError(
                f"unknown drop reason {reason!r}; the canonical taxonomy is"
                f" {sorted(DROP_REASONS)}"
            )
        self.metrics.counter(f"drops.by_reason.{reason}").inc()

    @property
    def by_reason(self) -> Dict[str, int]:
        prefix = "drops.by_reason."
        return {
            counter.name[len(prefix):]: counter.value
            for counter in self.metrics.counters_with_prefix(prefix)
            if counter.value
        }

    @property
    def degraded_total(self) -> int:
        return sum(self.by_reason.values())

    def summary(self) -> str:
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.by_reason.items())
        ) or "none"
        return (
            f"degraded={self.degraded_total} [{reasons}]"
            f" open={self.failed_open} closed={self.failed_closed}"
            f" queued={self.queued} reordered={self.reordered}"
            f" restarts={self.server_restarts}"
            f" fallback={self.fallback_packets}"
        )

    def as_dict(self) -> dict:
        data = {"by_reason": dict(self.by_reason)}
        data.update(
            (name, self._counters[name].value) for name in self._FIELDS
        )
        return data


# The legacy dataclass fields (``accounting.failed_closed += 1`` etc.)
# become registry-counter views so call sites keep working unchanged.
for _name in DropAccounting._FIELDS:
    setattr(DropAccounting, _name, counter_property(_name))
del _name
