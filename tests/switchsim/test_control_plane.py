"""Tests for control-plane updates and the Table 3 latency model."""

import statistics

import pytest

from repro.switchsim.control_plane import (
    BASE_PER_TABLE_US,
    ControlPlane,
    StateUpdate,
    _batch_latency_us,
)
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable


def make_control(tables=2):
    table_map = {
        f"t{i}": ExactMatchTable(f"t{i}", [32], 32, 128) for i in range(tables)
    }
    registers = {"r": Register("r")}
    return ControlPlane(table_map, registers, seed=1), table_map, registers


def count(control, name):
    """One of the control plane's ``control_plane.*`` counters."""
    return control.telemetry.metrics.counter_value(f"control_plane.{name}")


class TestApplyBatch:
    def test_insert_visible_after_batch(self):
        control, tables, _ = make_control()
        result = control.apply_batch(
            [StateUpdate("insert", "t0", (5,), 99)]
        )
        assert tables["t0"].lookup((5,)) == (True, 99)
        assert result.tables_touched == 1
        assert result.visibility_latency_us > 0

    def test_delete(self):
        control, tables, _ = make_control()
        control.apply_batch([StateUpdate("insert", "t0", (5,), 99)])
        control.apply_batch([StateUpdate("delete", "t0", (5,), None)])
        assert tables["t0"].lookup((5,)) == (False, 0)

    def test_register_update(self):
        control, _, registers = make_control()
        control.apply_batch([StateUpdate("register", "r", (), 77)])
        assert registers["r"].read() == 77

    def test_multi_table_batch_atomic(self):
        control, tables, _ = make_control()
        control.apply_batch(
            [
                StateUpdate("insert", "t0", (1,), 10),
                StateUpdate("insert", "t1", (1,), 11),
            ]
        )
        assert tables["t0"].lookup((1,)) == (True, 10)
        assert tables["t1"].lookup((1,)) == (True, 11)

    def test_visibility_bit_cleared_after_batch(self):
        control, tables, _ = make_control()
        control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        assert not tables["t0"]._writeback_visible
        assert not tables["t0"]._writeback

    def test_counters(self):
        control, _, _ = make_control()
        control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        control.apply_batch([StateUpdate("insert", "t0", (2,), 2)])
        assert count(control, "batches_applied") == 2
        assert count(control, "updates_applied") == 2

    def test_install_entries_bulk(self):
        control, tables, _ = make_control()
        control.install_entries("t0", {(i,): i * 2 for i in range(10)})
        assert tables["t0"].entry_count == 10


class TestLatencyModel:
    """The latency model must land near the paper's Table 3."""

    def _mean(self, n_tables, op, trials=300):
        import random

        rng = random.Random(0)
        return statistics.mean(
            _batch_latency_us(n_tables, op, rng) for _ in range(trials)
        )

    def test_one_table_insert_near_135us(self):
        assert 120 <= self._mean(1, "insert") <= 150

    def test_two_tables_doubles(self):
        assert 245 <= self._mean(2, "insert") <= 295

    def test_four_tables_sublinear(self):
        """Paper: 4 tables costs ~371 µs, not 540 (RPC pipelining)."""
        four = self._mean(4, "insert")
        assert 340 <= four <= 405
        assert four < 2 * self._mean(2, "insert")

    def test_modify_cheaper_than_insert(self):
        assert BASE_PER_TABLE_US["modify"] < BASE_PER_TABLE_US["insert"]

    def test_zero_tables_free(self):
        import random

        assert _batch_latency_us(0, "insert", random.Random(0)) == 0.0

    def test_update_is_5x_packet_latency(self):
        """Paper: 'A single table update is about 5x the end-to-end latency
        of a packet sent through a software middlebox' (~22.5 µs)."""
        ratio = self._mean(1, "insert") / 22.5
        assert 4.5 <= ratio <= 7.5


class TestLatencyCalibration:
    """Every sample stays inside the declared jitter band, and the
    jitter-free model reproduces Table 3 exactly."""

    def test_jitter_within_15_percent_every_sample(self):
        import random

        from repro.switchsim.control_plane import expected_batch_latency_us

        rng = random.Random(0)
        for op in ("insert", "modify", "delete"):
            for n_tables in (1, 2, 4):
                mean = expected_batch_latency_us(n_tables, op)
                for _ in range(500):
                    sample = _batch_latency_us(n_tables, op, rng)
                    assert 0.85 * mean <= sample <= 1.15 * mean, (op, n_tables)

    def test_matches_table3_matrix(self):
        from repro.switchsim.control_plane import expected_batch_latency_us

        # Paper Table 3, µs.  The two-segment linear model reproduces the
        # measured matrix to within ±1.5 µs.
        table3 = {
            ("insert", 1): 135.2, ("modify", 1): 128.6, ("delete", 1): 131.3,
            ("insert", 2): 270.1, ("modify", 2): 258.3, ("delete", 2): 262.7,
            ("insert", 4): 371.0, ("modify", 4): 363.0, ("delete", 4): 366.1,
        }
        for (op, n_tables), want in table3.items():
            got = expected_batch_latency_us(n_tables, op)
            assert abs(got - want) <= 1.5, (op, n_tables, got, want)

    def test_sublinear_beyond_two_tables(self):
        from repro.switchsim.control_plane import expected_batch_latency_us

        for op in ("insert", "modify", "delete"):
            one = expected_batch_latency_us(1, op)
            two = expected_batch_latency_us(2, op)
            four = expected_batch_latency_us(4, op)
            assert two == pytest.approx(2 * one)
            assert four < 2 * two  # incremental tables cost less



class TestRetryMachinery:
    def make_retrying(self, fates, max_attempts=4):
        from repro.switchsim.control_plane import RetryPolicy

        control, tables, registers = make_control()
        control.retry = RetryPolicy(max_attempts=max_attempts)
        schedule = iter(fates)
        control.fault_hook = lambda attempt: next(schedule, None)
        return control, tables

    def test_fail_then_succeed(self):
        control, tables = self.make_retrying(["fail", "fail", None])
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 5)])
        assert result.attempts == 3
        assert result.retry_wait_us > 0
        assert tables["t0"].lookup((1,)) == (True, 5)
        assert count(control, "batches_retried") == 2
        assert count(control, "batches_applied") == 1

    def test_all_fail_exhaustion_not_applied(self):
        from repro.switchsim.control_plane import UpdateBatchError

        control, tables = self.make_retrying(["fail"] * 4)
        with pytest.raises(UpdateBatchError) as excinfo:
            control.apply_batch([StateUpdate("insert", "t0", (1,), 5)])
        assert excinfo.value.applied is False
        assert excinfo.value.attempts == 4
        assert tables["t0"].lookup((1,)) == (False, 0)
        assert count(control, "batches_failed") == 1

    def test_timeout_then_fail_exhaustion_rolls_forward(self):
        """An early timed-out attempt lands the batch on the switch; if
        every later attempt is vetoed, exhaustion rolls *forward* from
        the undo log's high-water mark: the batch commits, the caller
        never sees an error, and the server keeps its updates too."""
        control, tables = self.make_retrying(["timeout", "fail", "fail", "fail"])
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 5)])
        assert result.decision == "rolled_forward"
        assert result.attempts == 4
        assert result.updates_applied == 1
        # The switch indeed kept the batch from the timed-out attempt.
        assert tables["t0"].lookup((1,)) == (True, 5)
        assert count(control, "batches_applied") == 1
        assert count(control, "batches_failed") == 0

    def test_timeout_retry_is_idempotent(self):
        control, tables = self.make_retrying(["timeout", None])
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 5)])
        assert result.attempts == 2
        assert tables["t0"].lookup((1,)) == (True, 5)
        assert tables["t0"].entry_count == 1  # re-applied, not duplicated

    def test_timeout_costs_more_than_fail(self):
        fail_control, _ = self.make_retrying(["fail", None])
        timeout_control, _ = self.make_retrying(["timeout", None])
        update = [StateUpdate("insert", "t0", (1,), 5)]
        fail_wait = fail_control.apply_batch(update).retry_wait_us
        timeout_wait = timeout_control.apply_batch(update).retry_wait_us
        assert timeout_wait > fail_wait

    def test_overflow_aborts_with_no_staged_residue(self):
        from repro.switchsim.control_plane import UpdateBatchError

        control, tables = self.make_retrying(["overflow"])
        with pytest.raises(UpdateBatchError) as excinfo:
            control.apply_batch([StateUpdate("insert", "t0", (1,), 5)])
        assert excinfo.value.kind == "overflow"
        assert not tables["t0"]._writeback
        assert tables["t0"].lookup((1,)) == (False, 0)

    def test_real_capacity_overflow_discards_residue(self):
        from repro.switchsim.control_plane import UpdateBatchError
        from repro.switchsim.tables import ExactMatchTable

        control = ControlPlane(
            {"tiny": ExactMatchTable("tiny", [32], 32, 2)},
            {},
            seed=0,
        )
        control.apply_batch([StateUpdate("insert", "tiny", (1,), 1)])
        control.apply_batch([StateUpdate("insert", "tiny", (2,), 2)])
        with pytest.raises(UpdateBatchError) as excinfo:
            control.apply_batch([StateUpdate("insert", "tiny", (3,), 3)])
        assert excinfo.value.kind == "overflow"
        assert not control.tables["tiny"]._writeback
        assert control.tables["tiny"].entry_count == 2


class TestUndoLog:
    """The switch-side undo log: byte-exact rollback, durable roll-forward."""

    def make_crashing(self, fates, max_attempts=4):
        from repro.switchsim.control_plane import RetryPolicy

        control, tables, registers = make_control()
        control.retry = RetryPolicy(max_attempts=max_attempts)
        schedule = iter(fates)
        control.fault_hook = lambda attempt: next(schedule, None)
        return control, tables, registers

    def test_undo_log_captures_preimages(self):
        control, _, _ = self.make_crashing([None])
        control.install_entries("t0", {(1,): 10})
        result = control.apply_batch([
            StateUpdate("modify", "t0", (1,), 99),
            StateUpdate("insert", "t1", (2,), 22),
            StateUpdate("register", "r", (), 7),
        ])
        undo = result.undo
        assert undo is not None
        assert undo.high_water == 3  # the whole batch landed
        by_target = {(rec.kind, rec.target, rec.key): rec
                     for rec in undo.records}
        assert by_target[("table", "t0", (1,))].existed is True
        assert by_target[("table", "t0", (1,))].value == 10
        assert by_target[("table", "t1", (2,))].existed is False
        assert by_target[("register", "r", None)].value == 0

    def test_mid_batch_crash_exhaustion_rolls_back_byte_exactly(self):
        """Every attempt's connection dies after the first table folded:
        a durable strict prefix.  Exhaustion must restore both tables
        (and the register) to their exact pre-batch images."""
        from repro.switchsim.control_plane import UpdateBatchError

        control, tables, registers = self.make_crashing(["crash"] * 4)
        control.install_entries("t0", {(1,): 10})
        registers["r"].control_write(7)
        with pytest.raises(UpdateBatchError) as excinfo:
            control.apply_batch([
                StateUpdate("modify", "t0", (1,), 99),
                StateUpdate("insert", "t1", (2,), 22),
                StateUpdate("register", "r", (), 55),
            ])
        assert excinfo.value.decision == "rolled_back"
        assert excinfo.value.undo.high_water == 1  # the strict prefix
        assert tables["t0"].lookup((1,)) == (True, 10)
        assert tables["t1"].lookup((2,)) == (False, 0)
        assert registers["r"].read() == 7
        assert not tables["t0"]._writeback
        assert not tables["t1"]._writeback

    def test_single_table_crash_rolls_forward(self):
        """When the crash lands the *whole* batch (single touched table)
        before the connection dies, the high-water mark covers it and
        exhaustion commits from the log instead of raising."""
        control, tables, _ = self.make_crashing(["crash"] * 4)
        result = control.apply_batch([
            StateUpdate("insert", "t0", (1,), 5),
            StateUpdate("insert", "t0", (2,), 6),
        ])
        assert result.decision == "rolled_forward"
        assert result.attempts == 4
        assert tables["t0"].lookup((1,)) == (True, 5)
        assert tables["t0"].lookup((2,)) == (True, 6)

    def test_rollback_restores_register_only_batch(self):
        from repro.switchsim.control_plane import UpdateBatchError

        control, _, registers = self.make_crashing(["fail"] * 4)
        registers["r"].control_write(7)
        with pytest.raises(UpdateBatchError):
            control.apply_batch([StateUpdate("register", "r", (), 99)])
        assert registers["r"].read() == 7

    def test_rollback_counters(self):
        from repro.switchsim.control_plane import UpdateBatchError

        control, _, _ = self.make_crashing(["crash"] * 4)
        with pytest.raises(UpdateBatchError):
            control.apply_batch([
                StateUpdate("insert", "t0", (1,), 1),
                StateUpdate("insert", "t1", (2,), 2),
            ])
        metrics = control.telemetry.metrics
        assert metrics.counter(
            "control_plane.batches_rolled_back"
        ).value == 1
        assert metrics.counter("control_plane.batches_applied").value == 0


class TestRpcQueueing:
    """The control channel is a FIFO RPC pipe: attempts queue behind
    outstanding batches (the load-dependent latency term)."""

    def make_queued(self, fates, max_attempts=4):
        from repro.switchsim.control_plane import RetryPolicy

        control, tables, _ = make_control()
        control.retry = RetryPolicy(
            max_attempts=max_attempts, jitter_fraction=0.0
        )
        schedule = iter(fates)
        control.fault_hook = lambda attempt: next(schedule, None)
        return control

    def test_idle_channel_has_no_queue_wait(self):
        control, _, _ = make_control()
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        assert result.queue_wait_us == 0.0

    def test_channel_drains_between_committed_batches(self):
        """The simulated clock advances past a batch's visibility at
        commit, so a healthy (no-retry) workload never queues."""
        control, _, _ = make_control()
        for key in range(5):
            result = control.apply_batch(
                [StateUpdate("insert", "t0", (key,), key)]
            )
            assert result.queue_wait_us == 0.0

    def test_storm_queues_behind_outstanding_rpc(self):
        """A batch submitted while an earlier RPC is still on the channel
        (a batch storm: the serial caller's clock has not reached its
        completion) waits exactly the residual service time — the
        deterministic M/M/1 FIFO term."""
        control, _, _ = make_control()
        now = control.telemetry.clock.now_us
        control.channel.inflight = [now + 500.0]
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        assert result.queue_wait_us == pytest.approx(500.0)
        # The wall-clock result prices the queueing in.
        assert result.visibility_latency_us > 500.0
        assert result.retry_wait_us == 0.0  # queueing is not a retry

    def test_queue_wait_grows_with_load(self):
        """Deeper channel backlog -> longer wait (load dependence): the
        attempt starts when the *last* outstanding RPC drains."""
        waits = []
        for backlog in ([], [200.0], [200.0, 900.0], [200.0, 900.0, 2_500.0]):
            control, _, _ = make_control()
            now = control.telemetry.clock.now_us
            control.channel.inflight = [now + t for t in backlog]
            result = control.apply_batch(
                [StateUpdate("insert", "t0", (1,), 1)]
            )
            waits.append(result.queue_wait_us)
        assert waits == [0.0, 200.0, 900.0, 2_500.0]

    def test_drained_rpcs_do_not_delay(self):
        """Completions at or before the current clock are dropped from
        the channel: only genuinely outstanding RPCs delay an attempt."""
        control, _, _ = make_control()
        control.telemetry.clock.advance(1_000.0)
        now = control.telemetry.clock.now_us
        control.channel.inflight = [now - 400.0, now]  # both already done
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        assert result.queue_wait_us == 0.0

    def test_serial_exhaustion_drains_exactly(self):
        """The retry loop's own wall clock (attempt costs + backoff) always
        covers its failed attempts' service times, so a *serial* caller
        never queues behind itself — queueing is strictly a concurrency
        (storm) phenomenon."""
        control = self.make_queued(["timeout", "fail", None])
        result = control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        assert result.attempts == 3
        assert result.queue_wait_us == 0.0
        assert result.retry_wait_us > 0.0

    def test_shared_channel_concurrent_submitters_queue(self):
        """Two control planes sharing one channel (two tenants on one
        switch) queue behind each other: each keeps its own clock, so a
        submission lands while the other tenant's RPC is still on the
        wire.  The same per-submitter workload on a private channel
        never waits (test_channel_drains_between_committed_batches) —
        queueing here is purely a co-residency effect."""
        from repro.switchsim.control_plane import RpcChannel

        channel = RpcChannel()
        first, _, _ = make_control()
        second, _, _ = make_control()
        first.attach_channel(channel)
        second.attach_channel(channel)
        waits = []
        for key in range(4):
            for control in (first, second):
                result = control.apply_batch(
                    [StateUpdate("insert", "t0", (key,), key)]
                )
                waits.append(result.queue_wait_us)
        assert waits[0] == 0.0  # nothing on the channel yet
        assert all(wait > 0.0 for wait in waits[1:])
        for control in (first, second):
            metrics = control.telemetry.metrics.to_dict()
            hist = metrics["histograms"]["control_plane.rpc_queue_wait_us"]
            assert hist["sum"] > 0.0

    def test_queue_metrics_emitted(self):
        control = self.make_queued(["timeout", None])
        control.apply_batch([StateUpdate("insert", "t0", (1,), 1)])
        metrics = control.telemetry.metrics.to_dict()
        histogram = metrics["histograms"]["control_plane.rpc_queue_wait_us"]
        assert histogram["count"] == 2  # one observation per attempt
        assert "control_plane.rpc_outstanding" in metrics["gauges"]

    def test_pinned_channel_and_retry_defaults(self):
        """Regression-pin the documented defaults: the fault corpus and
        the Table-3 calibration both assume these exact values."""
        from repro.switchsim.control_plane import (
            JITTER_FRACTION,
            OVERLAP_PER_TABLE_US,
            RetryPolicy,
            TIMEOUT_MULTIPLE,
        )

        policy = RetryPolicy()
        assert policy.max_attempts == 4
        assert policy.base_backoff_us == 200.0
        assert policy.backoff_multiplier == 2.0
        assert policy.max_backoff_us == 5_000.0
        assert policy.jitter_fraction == 0.1
        assert TIMEOUT_MULTIPLE == 3.0
        assert JITTER_FRACTION == 0.15
        assert BASE_PER_TABLE_US == {
            "insert": 135.2, "modify": 128.6, "delete": 131.3,
        }
        assert OVERLAP_PER_TABLE_US == {
            "insert": 50.5, "modify": 52.4, "delete": 51.7,
        }


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        import random

        from repro.switchsim.control_plane import RetryPolicy

        policy = RetryPolicy(base_backoff_us=100.0, backoff_multiplier=2.0,
                             max_backoff_us=500.0, jitter_fraction=0.0)
        rng = random.Random(0)
        waits = [policy.backoff_us(attempt, rng) for attempt in (1, 2, 3, 4, 5)]
        assert waits == [100.0, 200.0, 400.0, 500.0, 500.0]

    def test_jitter_bounds(self):
        import random

        from repro.switchsim.control_plane import RetryPolicy

        policy = RetryPolicy(base_backoff_us=100.0, jitter_fraction=0.1)
        rng = random.Random(0)
        for _ in range(200):
            assert 90.0 <= policy.backoff_us(1, rng) <= 110.0

    def test_dict_roundtrip(self):
        from repro.switchsim.control_plane import RetryPolicy

        policy = RetryPolicy(max_attempts=7, base_backoff_us=50.0,
                             backoff_multiplier=3.0, max_backoff_us=900.0,
                             jitter_fraction=0.25)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
