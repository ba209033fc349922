"""The term algebra on its own: what a smart constructor folds must be
what :func:`evaluate` computes, and structurally equal terms are one
object that lives no longer than its users.

``test_mirror_lockstep.py`` holds the algebra to the interpreter on
generated programs; a fold its tier-1 slice does not reach is held here
(the first generated program to write ``x > x`` is number 120).
"""

import gc

import pytest

from repro.ir.instructions import BinOpKind, UnOpKind
from repro.middleboxes import load
from repro.runtime.deployment import compile_middlebox
from repro.verify.symbolic import prover, terms, verify_symbolic
from repro.verify.symbolic.terms import (
    _mk_op,
    atom,
    binop,
    boolify,
    const,
    evaluate,
    ite,
    unop,
    wrap,
)

#: a non-constant term whose interval decides nothing against itself
SUM = binop(BinOpKind.ADD, atom("ip.saddr", 32), atom("ip.ttl", 8))
ASSIGNMENTS = [{"ip.saddr": 7, "ip.ttl": 3}, {"ip.saddr": 0xFFFFFFFF}]


@pytest.mark.parametrize("op, value", [
    (BinOpKind.EQ, 1), (BinOpKind.NE, 0), (BinOpKind.LT, 0),
    (BinOpKind.LE, 1), (BinOpKind.GT, 0), (BinOpKind.GE, 1),
], ids=lambda param: getattr(param, "name", param))
def test_a_term_compared_with_itself_folds(op, value):
    """``a > a`` used to stay ``gt(a, a)`` and cost a program comparing a
    value with itself a decision, and the prover an infeasible world."""
    assert not SUM.is_const
    # Built anew: terms are interned, so this is ``SUM`` itself, and the
    # fold is the identity test ``a is b``.
    again = binop(BinOpKind.ADD, atom("ip.saddr", 32), atom("ip.ttl", 8))
    assert again is SUM
    for other in (SUM, again):
        assert binop(op, SUM, other) is const(value)
        unfolded = _mk_op(op, (SUM, other), 0, 1)
        for assignment in ASSIGNMENTS:
            assert evaluate(unfolded, assignment) == value


def test_a_constant_left_shift_scales_both_bounds():
    shifted = binop(BinOpKind.SHL, atom("ip.ttl", 8), const(4))
    assert (shifted.lo, shifted.hi) == (0, 255 << 4)
    assert evaluate(shifted, {"ip.ttl": 255}) == shifted.hi


@pytest.mark.parametrize("value", [-(1 << 40), -257, -256, 0, 65_536,
                                   65_537, 1 << 70])
def test_a_constant_is_one_object_at_any_value(value):
    """The cache this replaced held -256 … 65 536; the intern table has no
    range."""
    assert const(value) is const(value)
    assert const(value) is binop(BinOpKind.ADD, const(value), const(0))


def test_atoms_of_two_symbolic_packets_are_one_object():
    first, _ = prover.make_symbolic_packet("tcp", b"", 1)
    second, atoms = prover.make_symbolic_packet("tcp", b"", 2)
    assert atoms
    for region, name, width in atoms.values():
        atom_term = first.get_field(region, name)
        assert atom_term is second.get_field(region, name)
        assert atom_term is atom(f"{region}.{name}", width)
    assert atom("ip.ttl", 8) is not atom("ip.ttl", 16)


def test_operation_nodes_are_one_object():
    saddr, ttl = atom("ip.saddr", 32), atom("ip.ttl", 8)

    def build():
        mixed = binop(BinOpKind.XOR, saddr, ttl)
        return (
            mixed,
            binop(BinOpKind.LT, mixed, ttl),
            unop(UnOpKind.NEG, ttl),
            wrap(binop(BinOpKind.ADD, saddr, ttl), 0xFFFF),
            boolify(binop(BinOpKind.SUB, ttl, saddr)),
            ite(binop(BinOpKind.EQ, ttl, const(6)), saddr, ttl),
        )

    once, again = build(), build()
    assert [term.op for term in once] == [
        BinOpKind.XOR, BinOpKind.LT, UnOpKind.NEG, "wrap", "bool", "ite",
    ]
    for built, rebuilt in zip(once, again):
        assert built is rebuilt
    # Equal payload and children, another operator: another term.
    assert binop(BinOpKind.OR, saddr, ttl) is not once[0]
    assert wrap(once[3].args[0], 0xFF) is not once[3]


def test_a_lookup_chain_folds_and_evaluates_as_its_arms():
    """``ite``: a decided test or equal arms fold away; otherwise the
    interval is the union of the arms' and :func:`evaluate` takes the arm
    the test picks."""
    ttl, tos = atom("ip.ttl", 8), atom("ip.tos", 8)
    test = binop(BinOpKind.EQ, ttl, const(6))
    assert ite(const(1), ttl, tos) is ttl and ite(const(0), ttl, tos) is tos
    assert ite(test, tos, tos) is tos
    chain = ite(test, const(300), binop(BinOpKind.ADD, tos, const(1)))
    assert (chain.lo, chain.hi, repr(chain)) == (
        1, 300, "ite(eq(ip.ttl, 6), 300, add(ip.tos, 1))")
    assert evaluate(chain, {"ip.ttl": 6, "ip.tos": 9}) == 300
    assert evaluate(chain, {"ip.ttl": 7, "ip.tos": 9}) == 10


def _live_operations() -> list:
    return [term for term in (ref() for ref in terms._INTERNED.values())
            if term is not None and term.kind == "op"]


@pytest.mark.parametrize("name", ["trojan", "firewall"])
def test_a_finished_proof_leaves_no_operation_in_the_intern_table(
        monkeypatch, name):
    """The table holds its terms weakly: once ``verify_symbolic`` returns,
    the operation nodes it built are gone with the proof — firewall's
    merged lookups' chains too, which the proof's memo holds."""
    middlebox = load(name)
    plan, program = compile_middlebox(middlebox.source)
    gc.collect()
    before = set(_live_operations())
    held = []
    run_world = prover._run_world

    def counting(*args):
        world = run_world(*args)
        held.append(len(_live_operations()))
        return world

    monkeypatch.setattr(prover, "_run_world", counting)
    assert verify_symbolic(plan, program, config=middlebox.config).proved
    assert max(held) > len(before), "the proof held no operation"
    gc.collect()
    assert [term for term in _live_operations() if term not in before] == []
