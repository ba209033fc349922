"""Delta-debugging minimizer for diverging (program, stream) pairs.

Classic ddmin-style reduction specialized to the generator's statement
tree: the shrinker repeatedly applies structural mutations — truncate the
packet stream, drop statements, unwrap a conditional into one of its
arms, drop unused class members, shrink numeric literals, simplify
expressions — and keeps a mutation only while the caller's *divergence
predicate* still holds.  Invalid mutants (e.g. a deleted ``Let`` whose
name is still referenced) simply fail to compile, which the oracle
classifies as a crash or refusal — a different outcome, so the predicate
returns False and validity never needs special-casing.  A predicate that
*raises* is a bug in the harness and propagates.

The predicate contract: ``predicate(program, stream) -> bool``, True iff
the interesting behaviour (usually "the oracle still reports the same
divergence class") persists.  ``shrink_case`` guarantees the returned
pair satisfies the predicate — it never returns a non-diverging
candidate.

When the failure carries divergence provenance (the first-divergent-event
:class:`~repro.telemetry.diff.TraceDiff` the oracle attaches), pass it as
``trace_diff``: the shrinker then tries candidates the divergent stream
never touched *first* — truncating the packet stream right after the
divergent packet, and deleting statements that don't mention the
divergent state members — before falling back to blind bisection, which
converges in fewer oracle calls.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from repro.difftest.generator import GenProgram, MapLookup, If, Stmt
from repro.difftest.oracle import StreamSpec

Predicate = Callable[[GenProgram, StreamSpec], bool]

_INT_RE = re.compile(r"\b(0[xX][0-9a-fA-F]+|\d+)\b")


@dataclass(frozen=True)
class ShrinkHints:
    """Candidate-ordering guidance distilled from a failure's trace diff.

    ``packet`` is the index of the packet the first divergent effect
    belongs to (later packets cannot have caused it); ``names`` are the
    state members appearing in the divergent event and its context
    (statements never touching them are the likeliest dead weight).
    Empty hints degrade every guided pass to its blind behaviour.
    """

    packet: Optional[int] = None
    names: FrozenSet[str] = frozenset()

    @classmethod
    def from_trace_diff(cls, diff) -> "ShrinkHints":
        if diff is None:
            return cls()
        data = diff.to_dict() if hasattr(diff, "to_dict") else dict(diff)
        if not data.get("divergent"):
            return cls()
        packets: List[int] = []
        names = set()
        events = [data.get("lhs_event"), data.get("rhs_event")]
        events += list(data.get("lhs_context", []))
        events += list(data.get("rhs_context", []))
        for event in events:
            if not event:
                continue
            if event.get("packet") is not None:
                packets.append(int(event["packet"]))
            name = event.get("detail", {}).get("name")
            if name:
                names.add(str(name))
        return cls(
            packet=max(packets) if packets else None,
            names=frozenset(names),
        )

    def mentions(self, stmt: "Stmt") -> bool:
        if not self.names:
            return False
        text = "\n".join(stmt.lines(0))
        return any(
            re.search(rf"\b{re.escape(name)}\b", text) is not None
            for name in self.names
        )


_NO_HINTS = ShrinkHints()


def _shrink_stream(program: GenProgram, stream: StreamSpec,
                   predicate: Predicate,
                   hints: ShrinkHints = _NO_HINTS) -> StreamSpec:
    """Truncate the packet stream as far as the divergence allows."""
    # Guided first cut: everything after the divergent packet is noise.
    if hints.packet is not None and hints.packet + 1 < stream.count:
        candidate = StreamSpec(stream.seed, hints.packet + 1,
                               stream.udp_ratio)
        if predicate(program, candidate):
            stream = candidate
    while stream.count > 1:
        for count in (1, stream.count // 2, stream.count - 1):
            if count < 1 or count >= stream.count:
                continue
            candidate = StreamSpec(stream.seed, count, stream.udp_ratio)
            if predicate(program, candidate):
                stream = candidate
                break
        else:
            break
    return stream


def _drop_one_statement(program: GenProgram, stream: StreamSpec,
                        predicate: Predicate,
                        hints: ShrinkHints = _NO_HINTS) -> bool:
    blocks = program.all_blocks()
    candidates = [
        (block_index, stmt_index)
        for block_index, block in enumerate(blocks)
        for stmt_index in range(len(block))
    ]
    if hints.names:
        # Statements never touching the divergent state members are the
        # likeliest dead weight — try deleting those first (stable sort,
        # so the blind order is preserved within each class).
        candidates.sort(
            key=lambda pos: hints.mentions(blocks[pos[0]][pos[1]])
        )
    for block_index, stmt_index in candidates:
        candidate = copy.deepcopy(program)
        del candidate.all_blocks()[block_index][stmt_index]
        if predicate(candidate, stream):
            del blocks[block_index][stmt_index]
            return True
    return False


def _unwrap_one_branch(program: GenProgram, stream: StreamSpec, predicate: Predicate) -> bool:
    """Replace an If/MapLookup with the contents of one of its arms."""
    for block_index, block in enumerate(program.all_blocks()):
        for stmt_index, stmt in enumerate(block):
            if not isinstance(stmt, (If, MapLookup)):
                continue
            for arm_index, arm in enumerate(stmt.blocks()):
                candidate = copy.deepcopy(program)
                cand_block = candidate.all_blocks()[block_index]
                cand_arm = cand_block[stmt_index].blocks()[arm_index]
                cand_block[stmt_index:stmt_index + 1] = cand_arm
                if predicate(candidate, stream):
                    block[stmt_index:stmt_index + 1] = stmt.blocks()[arm_index]
                    return True
    return False


def _drop_unused_members(program: GenProgram, stream: StreamSpec, predicate: Predicate) -> bool:
    changed = False
    body_text = "\n".join(line for stmt in program.body for line in stmt.lines(0))
    for spec in list(program.maps):
        if re.search(rf"\b{re.escape(spec.name)}\b", body_text):
            continue
        candidate = copy.deepcopy(program)
        candidate.maps = [m for m in candidate.maps if m.name != spec.name]
        if predicate(candidate, stream):
            program.maps = [m for m in program.maps if m.name != spec.name]
            changed = True
    for scalar in list(program.scalars):
        if re.search(rf"\b{re.escape(scalar)}\b", body_text):
            continue
        candidate = copy.deepcopy(program)
        candidate.scalars = [s for s in candidate.scalars if s != scalar]
        if predicate(candidate, stream):
            program.scalars = [s for s in program.scalars if s != scalar]
            changed = True
    return changed


def _all_stmts(program: GenProgram) -> List[Stmt]:
    return [stmt for block in program.all_blocks() for stmt in block]


def _literal_candidates(value: int) -> List[int]:
    out = []
    for repl in (0, 1, value // 2):
        if repl < value and repl not in out:
            out.append(repl)
    return out


def _shrink_one_literal(program: GenProgram, stream: StreamSpec, predicate: Predicate) -> bool:
    for stmt_index, stmt in enumerate(_all_stmts(program)):
        for attr in stmt.EXPR_ATTRS:
            expr = getattr(stmt, attr)
            for match in _INT_RE.finditer(expr):
                value = int(match.group(0), 0)
                for repl in _literal_candidates(value):
                    new_expr = expr[: match.start()] + str(repl) + expr[match.end():]
                    candidate = copy.deepcopy(program)
                    setattr(_all_stmts(candidate)[stmt_index], attr, new_expr)
                    if predicate(candidate, stream):
                        setattr(stmt, attr, new_expr)
                        return True
    return False


def _simplify_one_expr(program: GenProgram, stream: StreamSpec, predicate: Predicate) -> bool:
    """Try replacing whole expression slots with the constant 0."""
    for stmt_index, stmt in enumerate(_all_stmts(program)):
        for attr in stmt.EXPR_ATTRS:
            expr = getattr(stmt, attr)
            if expr.strip() == "0" or attr == "cond":
                continue
            candidate = copy.deepcopy(program)
            setattr(_all_stmts(candidate)[stmt_index], attr, "0")
            if predicate(candidate, stream):
                setattr(stmt, attr, "0")
                return True
    return False


def shrink_case(
    program: GenProgram,
    stream: StreamSpec,
    predicate: Predicate,
    trace_diff=None,
) -> Tuple[GenProgram, StreamSpec]:
    """Reduce ``(program, stream)`` while ``predicate`` keeps holding.

    ``trace_diff`` (a :class:`~repro.telemetry.diff.TraceDiff` or its
    dict form) orders candidates by the first-divergent-event stream —
    see the module docstring.  Raises ``ValueError`` if the initial pair
    does not satisfy the predicate (nothing to shrink).
    """
    hints = ShrinkHints.from_trace_diff(trace_diff)
    program = copy.deepcopy(program)
    if not predicate(program, stream):
        raise ValueError("shrink_case: initial case does not satisfy the predicate")
    stream = _shrink_stream(program, stream, predicate, hints)
    for _ in range(500):  # every round shrinks; the bound caps wall time
        if _drop_one_statement(program, stream, predicate, hints):
            continue
        if _unwrap_one_branch(program, stream, predicate):
            continue
        if _drop_unused_members(program, stream, predicate):
            continue
        if _simplify_one_expr(program, stream, predicate):
            continue
        if _shrink_one_literal(program, stream, predicate):
            continue
        break
    stream = _shrink_stream(program, stream, predicate)
    return program, stream
