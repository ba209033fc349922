"""Bit-vector terms for the translation validator (no external solver).

A :class:`Term` is a constant, an atom (one symbolic packet input), or an
operation node over unbounded Python integers with the meaning the IR
interpreter's concrete domain gives it (:class:`repro.ir.interp.IntDomain`:
constants fold through its ``binop`` / ``unop``, and :func:`evaluate` maps
any term back onto it).  Every node carries an unsigned interval
``[lo, hi]`` computed at construction — the only "theory" the prover
needs, because all runtime values are wrapped to their register width
immediately after every operation, so interval reasoning decides most
branch conditions and wrap nodes fold away whenever the operand already
fits.

Smart constructors fold constants eagerly (with exactly the interpreter's
arithmetic, so a folded term and a concrete interpretation can never
disagree) and canonicalize just enough that the source function and the
switch⊕server composition — which execute the *same* projected
instructions routed through width-masking shim headers — produce
structurally identical terms on equivalent paths.  Structural identity is
the proof; anything else becomes a case split or a counterexample search.

Every term is interned: the constructors look each node up in one
weak-valued table — a constant by its value, an atom by ``(name, width)``,
an operation by ``(op, payload, *children)`` — so structurally equal terms
are one object, ``==`` and ``hash`` are identity, and a memo keyed by a
term hashes a pointer instead of a nested tuple.  That is sound because a
term never changes after construction and its interval is a function of
its operator, payload and children; the table holds no term alive, so a
finished proof's terms are freed with it.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.ir.instructions import BinOpKind, UnOpKind
from repro.ir.interp import _apply_binop, _apply_unop

_COMPARISONS = {
    BinOpKind.EQ, BinOpKind.NE, BinOpKind.LT, BinOpKind.LE,
    BinOpKind.GT, BinOpKind.GE, BinOpKind.LAND, BinOpKind.LOR,
}


class Term:
    """One node of a symbolic expression DAG (immutable, interned: build
    one only through the constructors below)."""

    __slots__ = ("kind", "op", "args", "value", "name", "lo", "hi",
                 "is_const", "known", "__weakref__")

    def __init__(self, kind, op, args, value, name, lo, hi):
        self.kind = kind  # "const" | "atom" | "op"
        self.op = op  # BinOpKind/UnOpKind/"wrap"/"bool"/"ite" for kind == "op"
        self.args = args  # tuple of Terms
        self.value = value  # int payload: const value, or wrap mask
        self.name = name  # atom name
        self.lo = lo
        self.hi = hi
        self.is_const = kind == "const"
        #: the truth value the interval implies, else None (:func:`truth`)
        self.known = False if lo == hi == 0 else (
            True if lo > 0 or hi < 0 else None
        )

    def __repr__(self):
        if self.kind == "const":
            return f"{self.value}"
        if self.kind == "atom":
            return f"{self.name}"
        op = getattr(self.op, "name", self.op)
        if self.op == "wrap":
            return f"wrap({self.args[0]!r}, {self.value:#x})"
        return f"{str(op).lower()}({', '.join(repr(a) for a in self.args)})"


#: structure -> the one live term with it (see the module docstring)
_INTERNED: Dict[object, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _INTERNED.get(ref.key) is ref:
        del _INTERNED[ref.key]


def _interned(key, kind, op, args, value, name, lo, hi) -> Term:
    ref = _INTERNED.get(key)
    if ref is not None:
        term = ref()
        if term is not None:
            return term
    term = Term(kind, op, args, value, name, lo, hi)
    _INTERNED[key] = weakref.KeyedRef(term, _forget, key)
    return term


def const(value: int) -> Term:
    return _interned(value, "const", None, (), value, None, value, value)


def atom(name: str, width: int) -> Term:
    return _interned((name, width), "atom", None, (), width, name, 0,
                     (1 << width) - 1)


def _mk_op(op, args: Tuple[Term, ...], lo: int, hi: int,
           value: Optional[int] = None) -> Term:
    return _interned((op, value, *args), "op", op, args, value, None, lo, hi)


def truth(term: Term) -> Optional[bool]:
    """Truthiness of ``term`` if the interval decides it, else ``None``
    (a constant's interval is its value, so a constant is always decided)."""
    return term.known


def _bits_hi(*terms: Term) -> int:
    width = max(t.hi.bit_length() for t in terms)
    return (1 << width) - 1


def binop(op: BinOpKind, a: Term, b: Term) -> Term:
    """Build ``op(a, b)`` with the interpreter's exact semantics."""
    if a.is_const and b.is_const:
        return const(_apply_binop(op, a.value, b.value))
    kind = BinOpKind
    if op is kind.ADD:
        if a.is_const and a.value == 0:
            return b
        if b.is_const and b.value == 0:
            return a
        return _mk_op(op, (a, b), a.lo + b.lo, a.hi + b.hi)
    if op is kind.SUB:
        if b.is_const and b.value == 0:
            return a
        if a is b:
            return const(0)
        return _mk_op(op, (a, b), a.lo - b.hi, a.hi - b.lo)
    if op is kind.MUL:
        if (a.is_const and a.value == 0) or (b.is_const and b.value == 0):
            return const(0)
        if a.is_const and a.value == 1:
            return b
        if b.is_const and b.value == 1:
            return a
        corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return _mk_op(op, (a, b), min(corners), max(corners))
    if op is kind.DIV:
        # a // b with b == 0 -> 0; operands are wrapped register values
        # (non-negative), so the quotient stays within [0, a.hi].
        if a.lo >= 0 and b.lo >= 0:
            return _mk_op(op, (a, b), 0, a.hi)
        return _mk_op(op, (a, b), -(abs(a.lo) + abs(a.hi)),
                      abs(a.lo) + abs(a.hi))
    if op is kind.MOD:
        if a.lo >= 0 and b.lo >= 0:
            return _mk_op(op, (a, b), 0, max(b.hi - 1, 0))
        return _mk_op(op, (a, b), -(abs(b.hi)), abs(b.hi))
    if op is kind.AND:
        if (a.is_const and a.value == 0) or (b.is_const and b.value == 0):
            return const(0)
        if a is b:
            return a
        if a.lo >= 0 and b.lo >= 0:
            return _mk_op(op, (a, b), 0, min(a.hi, b.hi))
        return _mk_op(op, (a, b), min(a.lo, b.lo, 0), max(a.hi, b.hi, 0))
    if op is kind.OR:
        if a.is_const and a.value == 0:
            return b
        if b.is_const and b.value == 0:
            return a
        if a is b:
            return a
        if a.lo >= 0 and b.lo >= 0:
            return _mk_op(op, (a, b), max(a.lo, b.lo), _bits_hi(a, b))
        return _mk_op(op, (a, b), min(a.lo, b.lo), -1 if (a.hi < 0 or b.hi < 0) else _bits_hi(a, b))
    if op is kind.XOR:
        if a is b:
            return const(0)
        if a.lo >= 0 and b.lo >= 0:
            return _mk_op(op, (a, b), 0, _bits_hi(a, b))
        return _mk_op(op, (a, b), -(1 << 64), 1 << 64)
    if op is kind.SHL:
        if b.is_const:
            shift = b.value & 63
            if shift == 0:
                return a
            return _mk_op(op, (a, b), a.lo << shift, a.hi << shift)
        if a.lo >= 0:
            return _mk_op(op, (a, b), 0, a.hi << 63)
        return _mk_op(op, (a, b), a.lo << 63, max(a.hi, 0) << 63)
    if op is kind.SHR:
        if b.is_const:
            shift = b.value & 63
            if shift == 0:
                return a
            return _mk_op(op, (a, b), a.lo >> shift, a.hi >> shift)
        if a.lo >= 0:
            return _mk_op(op, (a, b), 0, a.hi)
        return _mk_op(op, (a, b), a.lo, max(a.hi, 0))
    if op in _COMPARISONS:
        decided = _decide_comparison(op, a, b)
        if decided is not None:
            return const(decided)
        return _mk_op(op, (a, b), 0, 1)
    raise ValueError(f"unknown binop {op}")


def _decide_comparison(op: BinOpKind, a: Term, b: Term) -> Optional[int]:
    kind = BinOpKind
    same = a is b
    disjoint = a.hi < b.lo or b.hi < a.lo
    if op is kind.EQ:
        if same:
            return 1
        if disjoint:
            return 0
    elif op is kind.NE:
        if same:
            return 0
        if disjoint:
            return 1
    elif op is kind.LT:
        if a.hi < b.lo:
            return 1
        if same or a.lo >= b.hi:
            # a >= b everywhere -> a < b is false
            return 0
    elif op is kind.LE:
        if same or a.hi <= b.lo:
            return 1
        if a.lo > b.hi:
            return 0
    elif op is kind.GT:
        if b.hi < a.lo:
            return 1
        if same or b.lo >= a.hi:
            return 0
    elif op is kind.GE:
        if same or b.hi <= a.lo:
            return 1
        if b.lo > a.hi:
            return 0
    elif op is kind.LAND:
        ta, tb = truth(a), truth(b)
        if ta is False or tb is False:
            return 0
        if ta is True and tb is True:
            return 1
    elif op is kind.LOR:
        ta, tb = truth(a), truth(b)
        if ta is True or tb is True:
            return 1
        if ta is False and tb is False:
            return 0
    return None


def unop(op: UnOpKind, a: Term) -> Term:
    if a.is_const:
        return const(_apply_unop(op, a.value))
    if op is UnOpKind.NEG:
        return _mk_op(op, (a,), -a.hi, -a.lo)
    if op is UnOpKind.NOT:
        return _mk_op(op, (a,), ~a.hi, ~a.lo)
    # LNOT
    tv = truth(a)
    if tv is not None:
        return const(int(not tv))
    return _mk_op(op, (a,), 0, 1)


def wrap(a: Term, mask: int) -> Term:
    """``a & mask``: a result as a ``mask``-wide register holds it."""
    if a.is_const:
        return const(a.value & mask)
    if 0 <= a.lo and a.hi <= mask:
        return a
    return _mk_op("wrap", (a,), 0, mask, value=mask)


def boolify(a: Term) -> Term:
    """``1 if a else 0``: a result as a ``bool`` register holds it."""
    tv = truth(a)
    if tv is not None:
        return const(int(tv))
    if a.lo >= 0 and a.hi <= 1:
        return a  # already 0/1
    return _mk_op("bool", (a,), 0, 1)


def ite(cond: Term, then: Term, other: Term) -> Term:
    """``then if cond else other``: which stored value a lookup returns,
    as one term over its key tests."""
    known = cond.known
    if known is not None:
        return then if known else other
    if then is other:
        return then
    return _mk_op("ite", (cond, then, other), min(then.lo, other.lo),
                  max(then.hi, other.hi))


def evaluate(term: Term, assignment: Dict[str, int],
             _memo: Optional[dict] = None) -> int:
    """Concretely evaluate ``term`` (atoms default to 0)."""
    memo = _memo if _memo is not None else {}
    cached = memo.get(term)
    if cached is not None:
        return cached
    if term.kind == "const":
        result = term.value
    elif term.kind == "atom":
        result = assignment.get(term.name, 0)
    else:
        args = [evaluate(a, assignment, memo) for a in term.args]
        op = term.op
        if op == "wrap":
            result = args[0] & term.value
        elif op == "bool":
            result = 1 if args[0] else 0
        elif op == "ite":
            result = args[1] if args[0] else args[2]
        elif isinstance(op, UnOpKind):
            result = _apply_unop(op, args[0])
        else:
            result = _apply_binop(op, args[0], args[1])
    memo[term] = result
    return result


def atoms_of(terms: Iterable[Term]) -> Dict[str, int]:
    """Atom name -> bit width over a collection of terms."""
    out: Dict[str, int] = {}
    stack: List[Term] = list(terms)
    seen: Set[Term] = set()
    while stack:
        term = stack.pop()
        if term in seen:
            continue
        seen.add(term)
        if term.kind == "atom":
            out[term.name] = term.value
        stack.extend(term.args)
    return out


def constants_of(terms: Iterable[Term]) -> Set[int]:
    """Constant values appearing anywhere in ``terms`` (witness pools)."""
    out: Set[int] = set()
    stack: List[Term] = list(terms)
    seen: Set[Term] = set()
    while stack:
        term = stack.pop()
        if term in seen:
            continue
        seen.add(term)
        if term.kind == "const":
            out.add(term.value)
        elif term.op == "wrap":
            out.add(term.value)
        stack.extend(term.args)
    return out
