"""Tests for shim header synthesis and encode/decode (Figure 5)."""

import dataclasses
import random
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, strategies as st

from repro.codegen.headers import (
    ShimDecodeError,
    ShimField,
    ShimLayout,
    synthesize_shim_layouts,
)
from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.ir.lowering import lower_program
from repro.ir.values import Reg
from repro.lang.parser import parse_program
from repro.lang.types import BOOL, UINT16, UINT32
from repro.middleboxes import MIDDLEBOX_NAMES
from repro.partition.partitioner import PartitionError, partition_middlebox
from repro.partition.plan import TransferSpec
from tests.conftest import get_compiled


class TestShimLayout:
    def test_byte_size_rounds_up(self):
        layout = ShimLayout("to_server", [ShimField("a", 1), ShimField("b", 16)])
        assert layout.total_bits == 17
        assert layout.byte_size == 3

    def test_encode_decode_round_trip(self):
        layout = ShimLayout(
            "to_server",
            [ShimField("flag", 1), ShimField("x", 16), ShimField("y", 32)],
        )
        values = {"flag": 1, "x": 0xABCD, "y": 0xDEADBEEF}
        assert layout.decode(layout.encode(values)) == values

    def test_missing_fields_encode_zero(self):
        layout = ShimLayout("to_server", [ShimField("x", 8)])
        assert layout.decode(layout.encode({})) == {"x": 0}

    def test_values_masked_to_width(self):
        layout = ShimLayout("to_server", [ShimField("x", 4)])
        assert layout.decode(layout.encode({"x": 0xFF}))["x"] == 0xF

    def test_empty_layout(self):
        layout = ShimLayout("to_server", [])
        assert layout.byte_size == 0
        assert layout.encode({}) == b""

    def test_short_buffer_rejected(self):
        layout = ShimLayout("to_server", [ShimField("x", 32)])
        with pytest.raises(ValueError):
            layout.decode(b"\x00")

    def test_layout_is_immutable(self):
        fields = [ShimField("a", 1), ShimField("b", 16)]
        layout = ShimLayout("to_server", fields)
        assert layout.fields == tuple(fields)
        fields.append(ShimField("c", 8))  # the caller's list is not ours
        assert layout.field_names() == ["a", "b"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.fields = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.byte_size = 0
        assert layout == ShimLayout("to_server", (ShimField("a", 1),
                                                  ShimField("b", 16)))

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 48),
                st.integers(0, 2**48 - 1),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_round_trip_property(self, spec):
        fields = [ShimField(f"f{i}", width) for i, (width, _) in enumerate(spec)]
        layout = ShimLayout("to_server", fields)
        values = {
            f"f{i}": value & ((1 << width) - 1)
            for i, (width, value) in enumerate(spec)
        }
        assert layout.decode(layout.encode(values)) == values


class TestSynthesis:
    def test_control_fields_present(self):
        to_server, to_switch = synthesize_shim_layouts(
            TransferSpec([]), TransferSpec([])
        )
        assert "__ingress_port" in to_server.field_names()
        assert "__verdict" in to_switch.field_names()
        assert "__egress_port" in to_switch.field_names()

    def test_flags_packed_before_wide_fields(self):
        to_server, _ = synthesize_shim_layouts(
            TransferSpec([Reg("wide", UINT32), Reg("bit", BOOL)]),
            TransferSpec([]),
        )
        names = to_server.field_names()
        assert names.index("bit") < names.index("wide")

    def test_deterministic_order(self):
        spec = TransferSpec([Reg("b", UINT16), Reg("a", UINT16)])
        first, _ = synthesize_shim_layouts(spec, TransferSpec([]))
        second, _ = synthesize_shim_layouts(spec, TransferSpec([]))
        assert first.field_names() == second.field_names()

    def test_middlebox_shims_within_budget(self, middlebox_name, compiled):
        # 20 bytes of payload plus the fixed control fields.
        assert compiled.shim_to_server.byte_size <= 22
        assert compiled.shim_to_switch.byte_size <= 23


# -- the codec against an oracle that shares no code with it ----------------------
#
# These are the field-by-field loops ``ShimLayout`` ran before its sizes,
# shifts and masks were settled at construction: the reference the
# table-driven codec must agree with byte for byte.


def reference_total_bits(fields: Sequence[ShimField]) -> int:
    return sum(f.width_bits for f in fields)


def reference_byte_size(fields: Sequence[ShimField]) -> int:
    return (reference_total_bits(fields) + 7) // 8


def reference_encode(fields: Sequence[ShimField],
                     values: Dict[str, int]) -> bytes:
    accumulator = 0
    bits = 0
    for shim_field in fields:
        width = shim_field.width_bits
        value = values.get(shim_field.name, 0) & ((1 << width) - 1)
        accumulator = (accumulator << width) | value
        bits += width
    byte_size = reference_byte_size(fields)
    accumulator <<= byte_size * 8 - bits
    return accumulator.to_bytes(byte_size, "big") if byte_size else b""


def reference_decode(fields: Sequence[ShimField],
                     data: bytes) -> Dict[str, int]:
    byte_size = reference_byte_size(fields)
    total_bits = reference_total_bits(fields)
    if len(data) < byte_size:
        raise ValueError(f"shim too short: {len(data)} < {byte_size} bytes")
    accumulator = int.from_bytes(data[:byte_size], "big")
    accumulator >>= byte_size * 8 - total_bits
    values: Dict[str, int] = {}
    remaining = total_bits
    for shim_field in fields:
        width = shim_field.width_bits
        remaining -= width
        values[shim_field.name] = (accumulator >> remaining) & (
            (1 << width) - 1
        )
    return values


def bundled_layouts() -> List[Tuple[str, ShimLayout]]:
    """The 12 layouts of the six bundled middleboxes."""
    return [
        (f"{name}.{layout.direction}", layout)
        for name in MIDDLEBOX_NAMES
        for layout in (get_compiled(name).shim_to_server,
                       get_compiled(name).shim_to_switch)
    ]


GENERATED_PROGRAMS = 40


@lru_cache(maxsize=None)
def generated_layouts() -> Tuple[Tuple[str, ShimLayout], ...]:
    """Both layouts of the first ``GENERATED_PROGRAMS`` difftest programs
    the partitioner accepts."""
    layouts = []
    index = 0
    while len(layouts) < 2 * GENERATED_PROGRAMS:
        program_seed, _ = derive_seeds(19, index)
        index += 1
        source = generate_program(program_seed).source()
        try:
            plan = partition_middlebox(lower_program(parse_program(source)))
        except PartitionError:
            continue
        for layout in synthesize_shim_layouts(plan.to_server, plan.to_switch):
            layouts.append((f"gen{index:03d}.{layout.direction}", layout))
    return tuple(layouts)


def seeded_values(layout: ShimLayout, rng: random.Random
                  ) -> List[Dict[str, int]]:
    """What a punt can hand the codec, and what it cannot but a caller
    might: in-range, over-wide and negative values, missing and extra
    names."""
    fields = layout.fields
    in_range = {f.name: rng.getrandbits(f.width_bits) for f in fields}
    over_wide = {
        f.name: rng.getrandbits(f.width_bits + rng.randint(1, 70))
        | (1 << f.width_bits)
        for f in fields
    }
    negative = {f.name: -rng.getrandbits(f.width_bits + 3) - 1
                for f in fields}
    missing = {f.name: value for f, value in zip(fields, in_range.values())
               if rng.random() < 0.5}
    extra = dict(in_range, **{"__unknown": 7, "spare.1": 1 << 40})
    extremes = {f.name: rng.choice((0, (1 << f.width_bits) - 1))
                for f in fields}
    return [in_range, over_wide, negative, missing, extra, extremes, {}]


class TestCodecAgainstTheReference:
    def test_there_are_enough_layouts(self):
        assert len(bundled_layouts()) == 12
        assert len(generated_layouts()) >= 2 * GENERATED_PROGRAMS
        widths = {tuple(f.width_bits for f in layout.fields)
                  for _, layout in generated_layouts()}
        assert len(widths) > 20  # not one shape forty times

    def test_sizes_match(self):
        for label, layout in (*bundled_layouts(), *generated_layouts()):
            assert layout.total_bits == reference_total_bits(layout.fields), label
            assert layout.byte_size == reference_byte_size(layout.fields), label

    def test_encode_and_decode_match(self):
        rng = random.Random(0x5117)
        cases = 0
        for label, layout in (*bundled_layouts(), *generated_layouts()):
            for values in seeded_values(layout, rng):
                encoded = layout.encode(values)
                assert encoded == reference_encode(layout.fields, values), (
                    label, values)
                # Trailing bytes (the rest of the frame) are ignored.
                for data in (encoded, encoded + b"\xa5\x5a"):
                    decoded = layout.decode(data)
                    reference = reference_decode(layout.fields, data)
                    assert decoded == reference, (label, values)
                    # Key order too: the prover and the emitters
                    # iterate a layout in field order.
                    assert list(decoded) == list(reference), label
                cases += 1
        assert cases >= 7 * (12 + 2 * GENERATED_PROGRAMS)

    def test_arbitrary_bytes_decode_alike(self):
        rng = random.Random(0xB17E)
        for label, layout in (*bundled_layouts(), *generated_layouts()):
            data = rng.randbytes(layout.byte_size + rng.randint(0, 4))
            assert layout.decode(data) == reference_decode(
                layout.fields, data), label


class TestShimDecodeError:
    """A short or missing shim ends in a diagnostic, not a traceback
    from inside the codec."""

    def test_every_short_prefix_raises_it(self):
        for label, layout in bundled_layouts():
            shim = layout.encode({f.name: 1 for f in layout.fields})
            assert len(shim) == layout.byte_size > 0
            for length in range(layout.byte_size):
                # ShimDecodeError and nothing else: an IndexError or
                # KeyError would propagate and fail the test.
                with pytest.raises(ShimDecodeError) as caught:
                    layout.decode(shim[:length])
                error = caught.value
                assert isinstance(error, ValueError)
                assert (error.direction, error.expected, error.received) == (
                    layout.direction, layout.byte_size, length), label
                assert layout.direction in str(error)
                assert f"{length} < {layout.byte_size} bytes" in str(error)
            assert layout.decode(shim)  # the whole shim decodes

    def test_an_empty_layout_accepts_no_bytes(self):
        assert ShimLayout("to_server", ()).decode(b"") == {}
