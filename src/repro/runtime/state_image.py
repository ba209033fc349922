"""The switch image of a middlebox's state (paper §4.3.3).

An offloaded member has two homes: the server's authoritative
:class:`~repro.ir.interp.StateStore` and the switch.  This module alone
decides how a member looks on the switch — a map is its entries, a
vector a table keyed ``(index,)``, a scalar a register — and which
members the switch owns or replicates.  Every copy between a store and
a switch, and every checker's choice of what to compare, goes through
it.  An *image* is a ``{name: server form}`` dict.
"""

from __future__ import annotations

from typing import Dict

from repro.partition.plan import PlacementKind

Image = Dict[str, object]


def authoritative(plan) -> tuple:
    """The registers the data plane writes: the switch copy is the state."""
    return tuple(
        placement for placement in plan.placements.values()
        if placement.kind is PlacementKind.SWITCH_REGISTER
    )


def replicated(plan) -> tuple:
    """What a server write updates on the switch, and convergence checks."""
    return tuple(p for p in plan.placements.values() if p.replicated)


def _section(state, placement) -> dict:
    return getattr(state, placement.member.kind + "s")


def stored(state, placement):
    """The member's server form in ``state``."""
    return _section(state, placement)[placement.member.name]


def write(switch, placement, value) -> None:
    """Server form → switch: write the register, or clear the table and
    install the entries (a stale entry must not survive a resync)."""
    name, kind = placement.member.name, placement.member.kind
    control = switch.control_plane
    if kind == "scalar":
        control.write_register(name, value)
        return
    if kind == "vector":
        value = {(index,): item for index, item in enumerate(value)}
    control.clear_table(name)
    control.install_entries(name, value)


def to_switch(switch, plan, state) -> None:
    """Rebuild every on-switch member from the store."""
    for placement in plan.placements.values():
        if placement.on_switch:
            write(switch, placement, stored(state, placement))


def read(switch, placement):
    """Switch → a fresh server form.  A vector is as long as its highest
    installed index, zero where no entry is."""
    name, kind = placement.member.name, placement.member.kind
    if kind == "scalar":
        return switch.registers[name].value
    entries = switch.tables[name].snapshot()
    if kind == "map":
        return entries
    vector = [0] * (1 + max((key[0] for key in entries), default=-1))
    for (index,), value in entries.items():
        vector[index] = value
    return vector


def from_switch(switch, placements, image: Image) -> Image:
    """:func:`read` each member into ``image`` in place; returns it."""
    for placement in placements:
        image[placement.member.name] = read(switch, placement)
    return image


def from_store(state, placements, image: Image) -> Image:
    """Copy each member's server form into ``image`` in place; returns it."""
    for placement in placements:
        image[placement.member.name] = _copy(stored(state, placement))
    return image


def replay(image: Image, journal) -> None:
    """Apply a store's write journal to the members ``image`` holds: an
    image equal to the store before the writes equals it after them, at
    the cost of the writes rather than of the members."""
    for op, name, keys, value in journal:
        if name not in image:
            continue
        if op == "store":
            image[name] = value
        elif op == "insert":
            image[name][keys] = value
        elif op == "erase":
            image[name].pop(keys, None)
        elif op == "push":
            image[name].append(value)


def to_store(state, placements, image: Image) -> None:
    """Put a copy of each member the image holds into the store."""
    for placement in placements:
        name = placement.member.name
        if name in image:
            _section(state, placement)[name] = _copy(image[name])


def _copy(value):
    return value.copy() if isinstance(value, (dict, list)) else value
