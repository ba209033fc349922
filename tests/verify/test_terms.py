"""The term algebra on its own: what a smart constructor folds must be
what :func:`evaluate` computes.

``test_mirror_lockstep.py`` holds the algebra to the interpreter on
generated programs; a fold its tier-1 slice does not reach is held here
(the first generated program to write ``x > x`` is number 120).
"""

import pytest

from repro.ir.instructions import BinOpKind
from repro.verify.symbolic.terms import (
    _mk_op,
    atom,
    binop,
    const,
    evaluate,
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
    # Structurally the same term, not the same object.
    again = binop(BinOpKind.ADD, atom("ip.saddr", 32), atom("ip.ttl", 8))
    for other in (SUM, again):
        assert binop(op, SUM, other) is const(value)
        unfolded = _mk_op(op, (SUM, other), 0, 1)
        for assignment in ASSIGNMENTS:
            assert evaluate(unfolded, assignment) == value


def test_a_constant_left_shift_scales_both_bounds():
    shifted = binop(BinOpKind.SHL, atom("ip.ttl", 8), const(4))
    assert (shifted.lo, shifted.hi) == (0, 255 << 4)
    assert evaluate(shifted, {"ip.ttl": 255}) == shifted.hi
