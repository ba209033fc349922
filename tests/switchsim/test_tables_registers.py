"""Tests for switch tables, write-back atomic updates, and registers."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.ir.instructions import BinOpKind
from repro.switchsim.registers import Register
from repro.switchsim.control_plane import ControlPlane
from repro.switchsim.tables import (
    _TOMBSTONE,
    ExactMatchTable,
    TableEntryLimit,
)


class TestExactMatchTable:
    def test_miss_returns_false(self):
        table = ExactMatchTable("t", [32], 32, 10)
        assert table.lookup((1,)) == (False, 0)

    def test_staged_entry_invisible_until_bit(self):
        table = ExactMatchTable("t", [32], 32, 10)
        table.stage((1,), 42)
        assert table.lookup((1,)) == (False, 0)
        table.set_visibility(True)
        assert table.lookup((1,)) == (True, 42)

    def test_three_step_protocol(self):
        """Stage → flip → fold leaves entries in the main table."""
        table = ExactMatchTable("t", [32], 32, 10)
        table.stage((1,), 7)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        assert table.lookup((1,)) == (True, 7)
        assert table.entry_count == 1

    def test_tombstone_deletes(self):
        table = ExactMatchTable("t", [32], 32, 10)
        table.stage((1,), 7)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        # Stage a deletion: visible as a miss once the bit flips.
        table.stage((1,), None)
        table.set_visibility(True)
        assert table.lookup((1,)) == (False, 0)
        table.fold_writeback()
        table.set_visibility(False)
        assert table.lookup((1,)) == (False, 0)
        assert table.entry_count == 0

    def test_capacity_enforced_across_stage(self):
        table = ExactMatchTable("t", [32], 32, 1)
        table.stage((1,), 1)
        with pytest.raises(TableEntryLimit):
            table.stage((2,), 2)

    def test_overwrite_existing_never_rejected(self):
        table = ExactMatchTable("t", [32], 32, 1)
        table.stage((1,), 1)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        table.stage((1,), 2)  # same key: fine at capacity

    def test_atomic_erase_insert_through_full_table(self):
        """A staged delete frees its slot within the same batch.

        Regression (difftest corpus ``table_stage_erase_insert``): the
        capacity check counted only staged inserts, so an erase+insert
        journal batch through a full table spuriously raised while the
        authoritative StateStore accepted the same sequence.
        """
        table = ExactMatchTable("t", [32], 32, 2)
        for key in (1, 2):
            table.stage((key,), key)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        # Full: erase one key, insert a different one — same batch.
        table.stage((1,), None)
        table.stage((3,), 30)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        assert table.snapshot() == {(2,): 2, (3,): 30}
        # But a plain second insert past capacity still raises.
        with pytest.raises(TableEntryLimit):
            table.stage((4,), 40)

    def test_insert_over_staged_tombstone_of_same_key(self):
        """delete+reinsert of one key through a full table is a no-op net."""
        table = ExactMatchTable("t", [32], 32, 1)
        table.stage((1,), 1)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        table.stage((1,), None)
        table.stage((1,), 5)  # net occupancy unchanged
        table.fold_writeback()
        assert table.snapshot() == {(1,): 5}

    def test_counters(self):
        table = ExactMatchTable("t", [32], 32, 4)
        table.stage((1,), 1)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        table.lookup((1,))
        table.lookup((2,))
        assert table.lookup_count == 2
        assert table.hit_count == 1

    def test_snapshot_respects_visibility(self):
        table = ExactMatchTable("t", [32], 32, 4)
        table.stage((1,), 5)
        assert table.snapshot() == {}
        table.set_visibility(True)
        assert table.snapshot() == {(1,): 5}

    @given(st.dictionaries(st.integers(0, 1000), st.integers(0, 2**32 - 1),
                           max_size=30))
    def test_install_matches_model(self, entries):
        """After a full stage/flip/fold cycle, the table equals the dict."""
        table = ExactMatchTable("t", [32], 32, 64)
        for key, value in entries.items():
            table.stage((key,), value)
        table.set_visibility(True)
        table.fold_writeback()
        table.set_visibility(False)
        for key, value in entries.items():
            assert table.lookup((key,)) == (True, value)


def recomputed_growth(table: ExactMatchTable, writeback=None) -> int:
    """What ``stage`` summed over the whole write-back stage (or a
    prospective one) on every call before it kept a running count: the
    reference for that count."""
    writeback = table._writeback if writeback is None else writeback
    return sum(
        (-1 if key in table._main else 0) if staged is _TOMBSTONE
        else (0 if key in table._main else 1)
        for key, staged in writeback.items()
    )


class TestStagedOccupancyCount:
    """The post-fold occupancy delta of the write-back stage is a running
    count; it must equal the recomputed sum after every operation, and
    refuse exactly the stagings the recomputed sum refuses."""

    def stage(self, table, key, value):
        """``stage`` next to the reference's verdict on the same call."""
        prospective = dict(table._writeback)
        prospective[key] = _TOMBSTONE if value is None else value
        refuses = (
            value is not None and len(table._main)
            + recomputed_growth(table, prospective) > table.size
        )
        before = dict(table._writeback), table._staged_growth
        if refuses:
            with pytest.raises(TableEntryLimit, match=r"table 't' full \(6"):
                table.stage(key, value)
            assert (dict(table._writeback), table._staged_growth) == before
        else:
            table.stage(key, value)
        assert table._staged_growth == recomputed_growth(table)
        return not refuses

    def test_seeded_sequences(self):
        rng = random.Random(0x57A6E)
        refused = staged = 0
        for _ in range(60):
            table = ExactMatchTable("t", [32], 32, 6)
            for _ in range(rng.randint(1, 8)):  # batches
                for _ in range(rng.randint(1, 7)):
                    key = (rng.randrange(12),)  # 12 keys, 6 slots: it fills
                    value = None if rng.random() < 0.3 else rng.randrange(99)
                    if self.stage(table, key, value):
                        staged += 1
                    else:
                        refused += 1
                outcome = rng.random()
                if outcome < 0.7:
                    table.set_visibility(True)
                    table.fold_writeback()
                    table.set_visibility(False)
                elif outcome < 0.9:
                    table.discard_writeback()
                else:
                    table.clear()
                assert table._staged_growth == recomputed_growth(table) == 0
                assert table.entry_count <= table.size
        assert refused > 20 and staged > 500

    def test_erase_then_insert_of_one_key_in_a_full_table(self):
        table = ExactMatchTable("t", [32], 32, 6)
        for key in range(6):
            assert self.stage(table, (key,), key)
        table.fold_writeback()
        assert not self.stage(table, (6,), 6)  # full
        assert self.stage(table, (2,), None)  # tombstone frees a slot...
        assert table._staged_growth == -1
        assert self.stage(table, (2,), 22)  # ...re-staged as a modify
        assert table._staged_growth == 0
        assert not self.stage(table, (6,), 6)  # full again
        assert self.stage(table, (3,), None)
        assert self.stage(table, (6,), 6)  # now it fits
        table.fold_writeback()
        assert table.snapshot() == {
            (0,): 0, (1,): 1, (2,): 22, (4,): 4, (5,): 5, (6,): 6}

    def test_tombstone_of_an_absent_key_frees_nothing(self):
        table = ExactMatchTable("t", [32], 32, 6)
        for key in range(6):
            assert self.stage(table, (key,), key)
        assert self.stage(table, (8,), None)
        assert table._staged_growth == 6
        assert not self.stage(table, (7,), 7)
        assert self.stage(table, (5,), None)  # staged, never folded: frees
        assert self.stage(table, (7,), 7)

    def test_bulk_install_is_linear(self):
        """``install_entries`` stages everything before it folds; the
        capacity check used to re-sum the stage per entry (4 000 entries:
        8 million deltas, 1.1 s).  Counted in deltas, not seconds."""
        deltas = 0

        class Counting(ExactMatchTable):
            @staticmethod
            def _staged_delta(present, staged):
                nonlocal deltas
                deltas += 1
                return ExactMatchTable._staged_delta(present, staged)

        entries = 4000
        table = Counting("t", [32], 32, entries)
        control = ControlPlane({"t": table}, {})
        control.install_entries("t", {(key,): key for key in range(entries)})
        assert table.entry_count == entries
        assert deltas <= 2 * entries
        with pytest.raises(TableEntryLimit):
            control.install_entries("t", {(entries,): 0})
        table.discard_writeback()
        control.install_entries("t", {(0,): 1})  # a modify still fits


class TestRegister:
    def test_read_initial(self):
        assert Register("r").read() == 0

    def test_rmw_returns_old_value(self):
        register = Register("r", 32)
        register.control_write(10)
        assert register.rmw(BinOpKind.ADD, 5) == 10
        assert register.read() == 15

    def test_width_wraps(self):
        register = Register("r", 16)
        register.control_write(0xFFFF)
        register.rmw(BinOpKind.ADD, 1)
        assert register.value == 0

    def test_control_write(self):
        register = Register("r", 8)
        register.control_write(0x1FF)
        assert register.value == 0xFF

    def test_counters(self):
        register = Register("r")
        register.read()
        register.rmw(BinOpKind.ADD, 1)
        register.control_write(0)
        assert register.read_count == 2
        assert register.write_count == 2
