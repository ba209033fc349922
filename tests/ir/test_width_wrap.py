"""Width-wrap semantics across the three scalar-state implementations.

``StateStore`` (server), ``Register`` (switch), and ``SwitchStateAdapter``
(data-plane facade) must mask scalar writes to the declared member width
identically — a store of a near-2**width value that wraps on the switch
but not on the server silently diverges the replicated state.  These
tests pin the uniform behaviour: every write path masks, and width
handling is explicit (missing or mismatched widths are hard errors, not
a 32-bit fallback).
"""

import pytest

from repro.ir.instructions import BinOpKind
from repro.ir.interp import InterpreterError, StateStore
from repro.switchsim.pipeline import DataPlaneViolation, SwitchStateAdapter
from repro.switchsim.registers import Register
from repro.switchsim.tables import ExactMatchTable
from tests.ir.test_interp import lower, run

WIDTHS = [8, 16, 32]


def make_state(width: int) -> StateStore:
    lowered = lower("pkt->send();", members=f"uint{width}_t ctr;")
    return StateStore(lowered.state)


class TestStoreScalarMasksToMemberWidth:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_near_boundary_store_wraps(self, width):
        state = make_state(width)
        state.store_scalar("ctr", (1 << width) + 5)
        assert state.scalars["ctr"] == 5
        # The journal carries the masked value: it is what replication
        # writes to the switch register, so it must already be wrapped.
        assert state.journal[-1] == ("store", "ctr", (), 5)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_max_value_kept_and_wrap_to_zero(self, width):
        state = make_state(width)
        state.store_scalar("ctr", (1 << width) - 1)
        assert state.scalars["ctr"] == (1 << width) - 1
        state.store_scalar("ctr", 1 << width)
        assert state.scalars["ctr"] == 0

    def test_lowered_narrow_counter_wraps(self):
        _, _, state = run(
            "ctr = ctr + 255 + 2; pkt->send();", members="uint8_t ctr;"
        )
        assert state.scalars["ctr"] == 1

    def test_missing_width_is_a_hard_error(self):
        state = StateStore({})
        with pytest.raises(InterpreterError, match="no resolvable width"):
            state.store_scalar("ghost", 1)


class TestRmwScalarWidths:
    def test_rmw_wraps_at_member_width(self):
        state = make_state(8)
        state.store_scalar("ctr", 250)
        old = state.rmw_scalar("ctr", BinOpKind.ADD, 10, 8)
        assert old == 250
        assert state.scalars["ctr"] == 4

    def test_rmw_width_mismatch_raises(self):
        state = make_state(16)
        with pytest.raises(InterpreterError, match="does not match"):
            state.rmw_scalar("ctr", BinOpKind.ADD, 1, 32)

    def test_rmw_missing_width_member_is_a_hard_error(self):
        state = StateStore({})
        with pytest.raises(InterpreterError, match="no resolvable width"):
            state.rmw_scalar("ghost", BinOpKind.ADD, 1, 32)

    def test_adapter_rmw_width_mismatch_raises(self):
        adapter = SwitchStateAdapter({}, {"r": Register("r", 16)})
        with pytest.raises(DataPlaneViolation, match="width"):
            adapter.rmw_scalar("r", BinOpKind.ADD, 1, 32)


class TestUniformityAcrossImplementations:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize(
        "value", [0, 5, (1 << 8) + 3, (1 << 16) + 3, (1 << 32) + 3]
    )
    def test_store_matches_register_control_write(self, width, value):
        state = make_state(width)
        state.store_scalar("ctr", value)
        register = Register("r", width)
        register.control_write(value)
        assert state.scalars["ctr"] == register.value

    @pytest.mark.parametrize("width", WIDTHS)
    def test_rmw_matches_switch_register_rmw(self, width):
        start, operand = (1 << width) - 3, 10
        state = make_state(width)
        state.store_scalar("ctr", start)
        state.rmw_scalar("ctr", BinOpKind.ADD, operand, width)

        register = Register("r", width)
        register.control_write(start)
        adapter = SwitchStateAdapter({}, {"r": register})
        adapter.rmw_scalar("r", BinOpKind.ADD, operand, width)

        assert state.scalars["ctr"] == register.value


# -- miss / out-of-range semantics, server vs. switch ------------------------


def _server_state():
    lowered = lower(
        "pkt->send();",
        members="HashMap<uint32_t, uint32_t> m; Vector<uint32_t> v;",
    )
    state = StateStore(lowered.state)
    state.map_insert("m", (3,), 33)
    state.vector_push("v", 7)
    return state


def _switch_state():
    table = ExactMatchTable("m", [32], 32, 16)
    table.stage((3,), 33)
    table.set_visibility(True)
    table.fold_writeback()
    table.set_visibility(False)
    vector = ExactMatchTable("v", [32], 32, 16)
    vector.stage((0,), 7)
    vector.set_visibility(True)
    vector.fold_writeback()
    vector.set_visibility(False)
    return SwitchStateAdapter({"m": table, "v": vector}, {})


@pytest.fixture(params=["server", "switch"])
def state_impl(request):
    return _server_state() if request.param == "server" else _switch_state()


class TestMissSemanticsPinnedAcrossImplementations:
    """Misses and out-of-range reads return 0 on *both* sides — the
    compiled switch pipeline relies on tables defaulting to 0, so the
    server interpreter must do the same or punted packets diverge."""

    def test_map_hit(self, state_impl):
        assert state_impl.map_find("m", (3,)) == (True, 33)

    def test_map_miss_returns_false_zero(self, state_impl):
        assert state_impl.map_find("m", (4,)) == (False, 0)

    def test_vector_get_in_range(self, state_impl):
        assert state_impl.vector_get("v", 0) == 7

    @pytest.mark.parametrize("index", [1, 100])
    def test_vector_get_out_of_range_returns_zero(self, state_impl, index):
        assert state_impl.vector_get("v", index) == 0
