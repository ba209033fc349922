"""Switch control plane: slow-path table and register updates.

Implements the three-step atomic update of §4.3.3 (stage into write-back
tables, flip the visibility bit, fold into the main tables) and the latency
model calibrated against the paper's Table 3:

=========  ===========  ===========  ===========
# tables   insert       modify       delete
=========  ===========  ===========  ===========
1          135.2 µs     128.6 µs     131.3 µs
2          270.1 µs     258.3 µs     262.7 µs
4          371.0 µs     363.0 µs     366.1 µs
=========  ===========  ===========  ===========

The shape is linear for the first two tables and sub-linear beyond
(the SDK pipelines RPCs once more than two table programs are touched), so
the model is ``base_per_table × min(n, 2) + overlap_per_table × max(0, n-2)``.

Batches are retried under a :class:`RetryPolicy` (capped exponential
backoff with jitter) when a :class:`ControlPlaneFault` is injected by the
fault harness (`repro.faults`).  RPC-level "fail" faults veto the attempt
before any switch state changes; "timeout" faults apply the batch but lose
the confirmation, so the retry re-applies it — safe because the three-step
protocol is idempotent for inserts, modifies, deletes and register writes;
"crash" faults model the RPC connection dying mid-batch, landing a strict
prefix of the touched tables.

Every batch is transactional: before the first mutation the control plane
captures an :class:`UndoLog` with the byte-exact pre-image of every
touched table entry and register cell, plus a high-water mark of updates
durably applied by the best attempt so far.  A batch that exhausts its
attempts deterministically rolls *forward* when the mark covers the whole
batch (the batch landed during a timed-out attempt; the log confirms it
and :meth:`ControlPlane.apply_batch` returns a committed result with
``decision == "rolled_forward"``) or *back* (every pre-image is restored
and :class:`UpdateBatchError` is raised with ``decision == "rolled_back"``
and no switch-state change).  There is no read-back reconciliation:
"whichever side won" can no longer happen.

Per-attempt latency includes an M/M/1-style queueing term: the control
channel is a FIFO RPC pipe, so an attempt submitted while earlier batches
are still in flight waits for them to drain first (batch storms slow
retries).  The wait is deterministic given the simulated clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.corpus_format import fields_from
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable, TableEntryLimit

#: Calibrated per-op costs in microseconds (see Table 3 reproduction).
BASE_PER_TABLE_US = {"insert": 135.2, "modify": 128.6, "delete": 131.3}
OVERLAP_PER_TABLE_US = {"insert": 50.5, "modify": 52.4, "delete": 51.7}
#: Relative jitter applied to each batch (the paper reports ±15-20%).
JITTER_FRACTION = 0.15
#: A timed-out batch RPC costs this multiple of its nominal latency (the
#: confirmation deadline) before the caller gives up and retries.
TIMEOUT_MULTIPLE = 3.0


class StateUpdate(NamedTuple):
    """One staged state mutation from the server (an immutable record;
    several are built per punt)."""

    op: str  # "insert" | "modify" | "delete" | "register"
    target: str
    key: Tuple[int, ...]
    value: Optional[int]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for failed update batches.

    Every backoff constant is constructor-configurable per deployment; a
    timed-out attempt costs :data:`TIMEOUT_MULTIPLE` of its nominal
    latency.
    """

    max_attempts: int = 4
    base_backoff_us: float = 200.0
    backoff_multiplier: float = 2.0
    max_backoff_us: float = 5_000.0
    jitter_fraction: float = 0.1

    def nominal_backoff_us(self, attempt: int) -> float:
        """Jitter-free wait before retry number ``attempt`` (1-based)."""
        return min(
            self.max_backoff_us,
            self.base_backoff_us * self.backoff_multiplier ** (attempt - 1),
        )

    def backoff_us(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry number ``attempt`` (1-based), with jitter."""
        jitter = 1.0 + rng.uniform(-self.jitter_fraction, self.jitter_fraction)
        return self.nominal_backoff_us(attempt) * jitter

    def to_dict(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_backoff_us": self.base_backoff_us,
            "backoff_multiplier": self.backoff_multiplier,
            "max_backoff_us": self.max_backoff_us,
            "jitter_fraction": self.jitter_fraction,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**fields_from(data, cls, "retry"))


class RpcChannel:
    """The FIFO control-plane RPC pipe, shareable between submitters.

    Every :class:`ControlPlane` owns a private channel by default, which
    reproduces the single-tenant behaviour exactly: a serial caller's
    clock advances past each batch's completion, so it never queues
    behind itself.  A multi-tenant deployment hands the *same* channel to
    N tenants' control planes — each tenant keeps its own simulated
    clock, so a tenant that lags behind another's committed batches sees
    their in-flight completions still on the pipe and waits for them to
    drain: the M/M/1 FIFO term, finally exercised by real concurrency.

    The wait only ever adds latency (it rides ``queue_wait_us`` into the
    output-commit hold); it never changes verdicts or switch state, which
    is what makes per-tenant byte-equality against a solo deployment a
    meaningful isolation oracle.
    """

    def __init__(self):
        #: completion times (simulated µs) of RPCs still on the channel
        self.inflight: List[float] = []

    def submit(self, now_us: float) -> Tuple[float, float]:
        """Prune drained RPCs; return ``(wait_us, start_us)`` for an
        attempt submitted at ``now_us``."""
        inflight = self.inflight
        if not inflight or max(inflight) <= now_us:
            # Everything drained — a serial caller's every batch.
            inflight.clear()
            return 0.0, now_us
        self.inflight = inflight = [t for t in inflight if t > now_us]
        start = max(inflight)
        return start - now_us, start

    def complete(self, finish_us: float) -> None:
        """Record one submitted RPC's completion time."""
        self.inflight.append(finish_us)


class ControlPlaneFault(Exception):
    """A transient injected fault on one batch attempt (retryable).

    ``applied_updates`` is how many of the batch's updates the faulted
    attempt durably applied before dying: the whole batch for a
    "timeout" (only the confirmation is lost), a strict prefix for a
    mid-batch "crash", zero for a vetoed "fail".
    """

    def __init__(self, kind: str, applied_updates: int = 0):
        super().__init__(f"injected control-plane fault: {kind}")
        self.kind = kind  # "fail" | "timeout" | "crash"
        self.applied_updates = applied_updates


class UndoRecord(NamedTuple):
    """Byte-exact pre-image of one slot touched by an update batch (an
    immutable record; one is built per slot per batch)."""

    kind: str  # "table" | "register"
    target: str
    key: Optional[Tuple[int, ...]]  # None for registers
    existed: bool  # table entry present before the batch (registers: True)
    value: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "key": list(self.key) if self.key is not None else None,
            "existed": self.existed,
            "value": self.value,
        }


@dataclass
class UndoLog:
    """Switch-side undo log for one update batch.

    Captured before the batch's first mutation; ``high_water`` tracks the
    most updates any single attempt durably applied.  An exhausted batch
    rolls *forward* when the mark covers the whole batch (the log confirms
    a landed-but-unconfirmed batch) and *back* otherwise (every pre-image
    restored, leaving the switch byte-identical to its pre-batch state).
    """

    records: List["UndoRecord"] = field(default_factory=list)
    high_water: int = 0

    def to_dict(self) -> dict:
        return {
            "high_water": self.high_water,
            "records": [record.to_dict() for record in self.records],
        }


class UpdateBatchError(Exception):
    """A batch could not be applied (retries exhausted or overflow).

    ``kind`` is ``"overflow"`` for write-back capacity (permanent) or the
    transient fault kind that exhausted its retries.  The control plane
    has already rolled the switch back byte-exactly from the undo log
    (``decision == "rolled_back"``), so ``applied`` is always False: the
    caller rolls the server back and degrades the packet with no
    switch/server divergence possible.
    """

    applied = False
    decision = "rolled_back"

    def __init__(self, message: str, kind: str, attempts: int,
                 retry_wait_us: float, undo: Optional[UndoLog] = None):
        super().__init__(message)
        self.kind = kind
        self.attempts = attempts
        self.retry_wait_us = retry_wait_us
        self.undo = undo


@dataclass
class UpdateBatchResult:
    """Timing and transactional outcome of one atomic update batch."""

    #: µs until the updates are visible to the data plane (after bit flip).
    visibility_latency_us: float
    #: µs until the main tables are folded and the batch fully retired.
    total_latency_us: float
    tables_touched: int
    updates_applied: int
    #: attempts it took (1 = no retries)
    attempts: int = 1
    #: µs spent in failed attempts + backoff before the successful one
    retry_wait_us: float = 0.0
    #: µs queued behind outstanding RPCs on the control channel
    queue_wait_us: float = 0.0
    #: "committed" (an attempt confirmed) or "rolled_forward" (attempts
    #: exhausted but the undo log's high-water mark covered the batch)
    decision: str = "committed"
    #: the batch's undo log (pre-images + high-water mark)
    undo: Optional[UndoLog] = None


#: per touched table in first-touch order (the order they are staged,
#: flipped and folded in), its ``(key, value | None to delete)`` entries
_Staged = List[Tuple[ExactMatchTable, List[Tuple[tuple, Optional[int]]]]]
#: ``(register, value to write)`` per register update, in batch order
_Writes = List[Tuple[Register, int]]

_new = object.__new__
#: a NamedTuple built from its field tuple in one C call
_record = tuple.__new__


def _land(staged: _Staged, registers: _Writes) -> None:
    """The three steps once: stage (a capacity failure discards the whole
    stage and raises before anything changed) and write the registers,
    flip the visibility bit, fold into the main tables."""
    try:
        for table, entries in staged:
            for key, value in entries:
                table.stage(key, value)
    except TableEntryLimit:
        for table, _ in staged:
            table.discard_writeback()
        raise
    for register, value in registers:
        register.control_write(value)
    for table, _ in staged:
        table.set_visibility(True)
    for table, _ in staged:
        table.fold_writeback()
        table.set_visibility(False)


class ControlPlane:
    """Applies server-issued updates to switch tables and registers."""

    def __init__(
        self,
        tables: Dict[str, ExactMatchTable],
        registers: Dict[str, Register],
        seed: Optional[int] = 0,
        telemetry=None,
    ):
        from repro.telemetry import LATENCY_BOUNDS_US, Telemetry

        self.tables = tables
        self.registers = registers
        self._rng = random.Random(seed)
        #: retry policy for failed batches (None = single attempt); the
        #: deployment sets it when it arms the switch
        self.retry: Optional[RetryPolicy] = None
        #: fault-harness hook: called with the 1-based attempt number,
        #: returns None (healthy) or "fail" / "timeout" / "overflow"
        self.fault_hook: Optional[Callable[[int], Optional[str]]] = None
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        metrics = self.telemetry.metrics
        self._c_applied = metrics.counter("control_plane.batches_applied")
        self._c_updates = metrics.counter("control_plane.updates_applied")
        self._c_attempts = metrics.counter("control_plane.batch_attempts")
        self._c_retried = metrics.counter("control_plane.batches_retried")
        #: failed batches == server-side rollbacks (the caller restores its
        #: snapshot whenever a batch dies), so one counter serves both.
        self._c_failed = metrics.counter("control_plane.batches_failed")
        self._c_rolled_forward = metrics.counter(
            "control_plane.batches_rolled_forward"
        )
        self._c_rolled_back = metrics.counter(
            "control_plane.batches_rolled_back"
        )
        self._h_visibility = metrics.histogram(
            "control_plane.batch_visibility_us", LATENCY_BOUNDS_US
        )
        self._h_queue_wait = metrics.histogram(
            "control_plane.rpc_queue_wait_us", LATENCY_BOUNDS_US
        )
        _, self._zero_wait_bucket = self._h_queue_wait.cell(0.0)
        self._g_outstanding = metrics.gauge("control_plane.rpc_outstanding")
        #: the FIFO RPC pipe (private until :meth:`attach_channel`)
        self.channel = RpcChannel()

    def attach_channel(self, channel: RpcChannel) -> None:
        """Move this control plane onto a (possibly shared) RPC channel."""
        self.channel = channel

    # -- bulk install (deployment time, not on the packet path) ---------------

    def install_entries(self, table: str, entries: Dict[tuple, int]) -> None:
        _land([(self.tables[table], list(entries.items()))], [])

    def write_register(self, register: str, value: int) -> None:
        self.registers[register].control_write(value)

    def clear_table(self, table: str) -> None:
        """Remove every entry (bulk resync preamble, not on the packet path)."""
        self.tables[table].clear()

    # -- atomic per-packet batch (the paper's three-step protocol) -------------

    def apply_batch(self, updates: List[StateUpdate]) -> UpdateBatchResult:
        """Apply one packet's state updates atomically (transactionally).

        Returns the latency components; the caller (the Gallium runtime)
        holds the triggering packet until ``visibility_latency_us`` has
        elapsed — the output-commit rule.  Each attempt enters the RPC
        channel and makes the three steps (:func:`_land`; through
        :meth:`_apply_once` under the fault hook's verdict when one is
        armed).  A batch nothing faults leaves at its first confirmation;
        a transient injected fault is retried per ``self.retry``.  An
        exhausted batch consults its undo log: roll *forward* (return a
        committed result with ``decision == "rolled_forward"``) when the
        high-water mark covers the whole batch, roll *back* byte-exactly
        and raise :class:`UpdateBatchError` otherwise.
        """
        telemetry = self.telemetry
        tracer = telemetry.active_tracer
        staged, registers, undo, tables, op = self._open(updates)
        if tracer is not None:
            tracer.record(
                "batch_begin", component="control_plane",
                updates=len(updates),
                tables=sorted({u.target for u in updates}),
            )
        clock = telemetry.clock
        channel = self.channel
        histogram = self._h_queue_wait
        hook = self.fault_hook
        retry_wait = queue_wait = 0.0
        attempts = 0
        while True:
            attempts += 1
            self._c_attempts.value += 1
            # The simulated clock only advances at batch completion, so the
            # channel sees this attempt at now + wall clock already burned
            # (summed first: float addition does not associate).
            wait, start = channel.submit(clock.now_us + (retry_wait + queue_wait))
            self._g_outstanding.value = float(len(channel.inflight))
            if wait:
                histogram.observe(wait)
                queue_wait += wait
            else:
                # observe(0.0)'s four updates on its memoised cell: a serial
                # caller never queues behind itself
                histogram.count += 1
                histogram.sum += 0.0
                if 0.0 > histogram.max_observed:
                    histogram.max_observed = 0.0
                histogram.bucket_counts[self._zero_wait_bucket] += 1
            try:
                if hook is None:
                    _land(staged, registers)
                else:
                    self._apply_once(
                        staged, registers, len(updates), hook(attempts)
                    )
            except ControlPlaneFault as exc:
                # its kind, not the exception: a frame that keeps its own
                # exception is a cycle through the traceback
                last_kind = exc.kind
                undo.high_water = max(undo.high_water, exc.applied_updates)
                cost = self._attempt_cost_us(tables, op, exc.kind)
                channel.complete(start + cost)
                retry_wait += cost
                if tracer is not None:
                    tracer.record("batch_attempt", component="control_plane",
                                  attempt=attempts, fault=exc.kind,
                                  high_water=undo.high_water)
                if attempts >= (self.retry.max_attempts if self.retry else 1):
                    break
                self._c_retried.inc()
                retry_wait += self.retry.backoff_us(attempts, self._rng)
                continue
            except TableEntryLimit as exc:
                if tracer is not None:
                    tracer.record("batch_abort", component="control_plane",
                                  fault="overflow", attempts=attempts,
                                  decision="rolled_back")
                raise self._overflow(
                    exc, staged, undo, attempts, retry_wait + queue_wait
                ) from exc
            visibility = _batch_latency_us(tables, op, self._rng)
            channel.complete(start + visibility)
            undo.high_water = len(updates)
            wall_us = retry_wait + queue_wait
            # The class defaults (one attempt, no retry wait, committed)
            # plus what this batch knows; folding runs after visibility.
            result = _new(UpdateBatchResult)
            if attempts > 1:
                result.attempts = attempts
                result.retry_wait_us = retry_wait
            result.total_latency_us = visibility * 1.35 + wall_us
            result.visibility_latency_us = visibility = visibility + wall_us
            result.tables_touched = tables
            result.updates_applied = len(updates)
            result.queue_wait_us = queue_wait
            result.undo = undo
            self._c_applied.value += 1
            self._c_updates.value += len(updates)
            self._h_visibility.observe(visibility)
            clock.now_us += visibility  # SimClock.advance: it is never negative
            if tracer is not None:
                tracer.record(
                    "batch_commit", component="control_plane",
                    attempts=attempts, updates=len(updates),
                    visibility_us=round(visibility, 3), decision="committed",
                )
            return result
        wall_us = retry_wait + queue_wait
        if updates and undo.high_water >= len(updates):
            # Roll forward: the whole batch landed during a timed-out
            # attempt and only the confirmation was lost.  The undo log's
            # high-water mark is the durable proof, so the batch commits
            # from the log — no read-back reconciliation, no divergence.
            self._c_applied.inc()
            self._c_rolled_forward.inc()
            self._c_updates.inc(len(updates))
            self._h_visibility.observe(wall_us)
            clock.advance(wall_us)
            if tracer is not None:
                tracer.record(
                    "batch_commit", component="control_plane",
                    attempts=attempts, updates=len(updates),
                    visibility_us=round(wall_us, 3),
                    decision="rolled_forward",
                )
            return UpdateBatchResult(
                visibility_latency_us=wall_us,
                total_latency_us=wall_us,
                tables_touched=tables,
                updates_applied=len(updates),
                attempts=attempts,
                retry_wait_us=retry_wait,
                queue_wait_us=queue_wait,
                decision="rolled_forward",
                undo=undo,
            )
        # Roll back: restore every pre-image byte-exactly; the switch ends
        # the batch exactly where it started, whatever prefix landed.
        self._c_failed.inc()
        self._c_rolled_back.inc()
        self._rollback(undo, staged)
        clock.advance(wall_us)
        if tracer is not None:
            tracer.record("batch_abort", component="control_plane",
                          fault=last_kind, attempts=attempts,
                          decision="rolled_back")
        raise UpdateBatchError(
            f"update batch failed after {attempts} attempts"
            f" (last fault: {last_kind})",
            kind=last_kind,
            attempts=attempts,
            retry_wait_us=wall_us,
            undo=undo,
        )

    def _overflow(self, exc: TableEntryLimit, staged: _Staged, undo: UndoLog,
                  attempts: int, wall_us: float) -> UpdateBatchError:
        """Roll back a batch write-back capacity refused; the error to
        raise."""
        self._c_failed.inc()
        self._c_rolled_back.inc()
        self._rollback(undo, staged)
        return UpdateBatchError(
            str(exc), kind="overflow", attempts=attempts,
            retry_wait_us=wall_us, undo=undo,
        )

    # -- the undo log ----------------------------------------------------------

    def _open(
        self, updates: List[StateUpdate]
    ) -> Tuple[_Staged, _Writes, UndoLog, int, str]:
        """The one pass over a batch, before its first mutation: what it
        stages and writes, the undo log — the pre-image of every slot it
        touches, in first-touch order — and the latency model's two
        inputs: tables touched, the register file counting as one table
        program, and the most frequent table op (first seen wins a tie;
        "modify" for a register-only batch)."""
        touched: Dict[str, tuple] = {}
        registers: _Writes = []
        op_counts: Dict[str, int] = {}
        preimages: Dict[object, UndoRecord] = {}
        for op, target, key, value in updates:
            if op == "register":
                register = self.registers[target]
                registers.append((register, value or 0))
                if target not in preimages:
                    preimages[target] = _record(UndoRecord, (
                        "register", target, None, True, register.preimage()
                    ))
                continue
            table_entries = touched.get(target)
            if table_entries is None:
                table_entries = touched[target] = (self.tables[target], [])
            table, entries = table_entries
            entries.append((key, None if op == "delete" else value))
            op_counts[op] = op_counts.get(op, 0) + 1
            slot = (target, key)
            if slot not in preimages:
                existed, preimage = table.entry_preimage(key)
                preimages[slot] = _record(UndoRecord, (
                    "table", target, key, existed, preimage
                ))
        undo = _new(UndoLog)
        undo.records = list(preimages.values())
        undo.high_water = 0
        if len(op_counts) == 1:
            (op_kind,) = op_counts
        else:
            op_kind = max(op_counts, key=op_counts.get) if op_counts else "modify"
        return (
            list(touched.values()), registers, undo,
            len(touched) + (1 if registers else 0), op_kind,
        )

    def _rollback(self, undo: UndoLog, staged: _Staged) -> None:
        """Byte-exact restore of every touched slot from the undo log."""
        for table, _ in staged:
            table.discard_writeback()
        for record in undo.records:
            if record.kind == "table":
                self.tables[record.target].restore_entry(
                    record.key, record.existed, record.value
                )
            else:
                self.registers[record.target].restore(record.value)

    # -- a faulted attempt -----------------------------------------------------

    def _apply_once(self, staged: _Staged, registers: _Writes, count: int,
                    fault: Optional[str]) -> None:
        """One attempt at the three-step protocol, under ``fault``.

        ``fault == "fail"`` vetoes the RPC before any switch mutation;
        ``fault == "overflow"`` models write-back capacity exhaustion (also
        before mutation, so the abort is clean); ``fault == "timeout"``
        applies everything but loses the confirmation, exercising the
        protocol's idempotence on retry; ``fault == "crash"`` kills the
        RPC connection mid-batch, durably landing a strict prefix of the
        touched tables — the case only the undo log can clean up.
        """
        if fault == "fail":
            raise ControlPlaneFault("fail")
        if fault == "overflow":
            raise TableEntryLimit(
                "injected write-back overflow (fault harness)"
            )
        if fault == "crash":
            # The connection dies after the first touched table folded
            # (or after the first register write when the batch is
            # register-only): a genuinely partial application.
            if staged:
                staged, registers = staged[:1], []
                applied = len(staged[0][1])
            else:
                registers = registers[:1]
                applied = len(registers)
            _land(staged, registers)
            raise ControlPlaneFault("crash", applied_updates=applied)
        _land(staged, registers)
        if fault == "timeout":
            # The batch landed but the confirmation never arrived; the
            # caller cannot tell and must retry (idempotently).  The undo
            # log's high-water mark records the full batch as durable.
            raise ControlPlaneFault("timeout", applied_updates=count)

    def _attempt_cost_us(self, tables: int, op: str, kind: str) -> float:
        """Wall-clock burned by one failed attempt."""
        nominal = _batch_latency_us(tables, op, self._rng)
        return nominal * (TIMEOUT_MULTIPLE if kind == "timeout" else 1.0)


@lru_cache(maxsize=None)
def expected_batch_latency_us(n_tables: int, op: str) -> float:
    """The calibrated (jitter-free) batch latency — the Table 3 model."""
    if n_tables <= 0:
        return 0.0
    base = BASE_PER_TABLE_US.get(op, BASE_PER_TABLE_US["modify"])
    overlap = OVERLAP_PER_TABLE_US.get(op, OVERLAP_PER_TABLE_US["modify"])
    return base * min(n_tables, 2) + overlap * max(0, n_tables - 2)


def _batch_latency_us(n_tables: int, op: str, rng: random.Random) -> float:
    latency = expected_batch_latency_us(n_tables, op)
    if latency == 0.0:
        return 0.0
    jitter = 1.0 + rng.uniform(-JITTER_FRACTION, JITTER_FRACTION)
    return latency * jitter
