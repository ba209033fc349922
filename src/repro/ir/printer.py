"""Human-readable IR printing (for docs, debugging, and golden tests)."""

from __future__ import annotations

from repro.ir import instructions as ir
from repro.ir.function import Function


def format_instruction(inst: ir.Instruction) -> str:
    if isinstance(inst, ir.Assign):
        return f"{inst.dst} = {inst.src}"
    if isinstance(inst, ir.BinOp):
        return f"{inst.dst} = {inst.lhs} {inst.op.value} {inst.rhs}"
    if isinstance(inst, ir.UnOp):
        return f"{inst.dst} = {inst.op.value}{inst.src}"
    if isinstance(inst, ir.Cast):
        return f"{inst.dst} = ({inst.to_type}) {inst.src}"
    if isinstance(inst, ir.LoadPacketField):
        return f"{inst.dst} = pkt.{inst.region}.{inst.field}"
    if isinstance(inst, ir.StorePacketField):
        return f"pkt.{inst.region}.{inst.field} = {inst.src}"
    if isinstance(inst, ir.LoadState):
        return f"{inst.dst} = state.{inst.state}"
    if isinstance(inst, ir.StoreState):
        return f"state.{inst.state} = {inst.src}"
    if isinstance(inst, ir.RegisterRMW):
        return (
            f"{inst.dst} = rmw state.{inst.state} {inst.op.value} {inst.operand}"
        )
    if isinstance(inst, ir.MapFind):
        keys = ", ".join(str(k) for k in inst.keys)
        value = f", {inst.value}" if inst.value is not None else ""
        return f"{inst.found}{value} = map_find state.{inst.state} [{keys}]"
    if isinstance(inst, ir.MapInsert):
        keys = ", ".join(str(k) for k in inst.keys)
        return f"map_insert state.{inst.state} [{keys}] <- {inst.value}"
    if isinstance(inst, ir.MapErase):
        keys = ", ".join(str(k) for k in inst.keys)
        return f"map_erase state.{inst.state} [{keys}]"
    if isinstance(inst, ir.VectorGet):
        return f"{inst.dst} = state.{inst.state}[{inst.index}]"
    if isinstance(inst, ir.VectorLen):
        return f"{inst.dst} = len state.{inst.state}"
    if isinstance(inst, ir.VectorPush):
        return f"vector_push state.{inst.state} <- {inst.value}"
    if isinstance(inst, ir.ExternCall):
        args = ", ".join(str(a) for a in inst.args)
        prefix = f"{inst.dst} = " if inst.dst is not None else ""
        return f"{prefix}extern {inst.name}({args})"
    if isinstance(inst, ir.SendTo):
        return f"send_to {inst.port}"
    if isinstance(inst, ir.Send):
        return "send"
    if isinstance(inst, ir.Drop):
        return "drop"
    if isinstance(inst, ir.Jump):
        return f"jump {inst.target}"
    if isinstance(inst, ir.Branch):
        return f"branch {inst.cond} ? {inst.if_true} : {inst.if_false}"
    if isinstance(inst, ir.Return):
        suffix = f" {inst.value}" if inst.value is not None else ""
        return f"return{suffix}"
    return f"<unknown {type(inst).__name__}>"


def format_function(function: Function) -> str:
    lines = [f"function {function.name} (entry={function.entry}):"]
    for block_name in function.block_order():
        block = function.blocks[block_name]
        lines.append(f"{block_name}:")
        for inst in block.instructions:
            lines.append(f"  {format_instruction(inst)}")
    return "\n".join(lines)
