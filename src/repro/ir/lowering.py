"""AST → IR lowering.

This is the reproduction's counterpart of Clang emitting LLVM IR plus the
paper's annotation-driven pointer analysis (§4.1): when the source program
dereferences a pointer, "Gallium traces the origin of the pointer and uses
the annotation ... to determine that this is an access to the packet's IP
header".  We implement that tracing with *pointer descriptors* — each
pointer-typed value carries a symbolic description of what it points at
(packet region, local variable, or a map lookup result) — and resolve every
dereference to a concrete IR instruction with explicit read/write sets.

Lowering also:

* inlines same-class helper method calls ("Gallium inlines all other
  function calls before constructing the read and write sets"),
* lowers short-circuit ``&&``/``||`` eagerly (operands are checked to be
  call-free, so this is semantics-preserving),
* runs a peephole pass combining scalar-state read/modify/write sequences
  into :class:`~repro.ir.instructions.RegisterRMW`, the stateful-ALU pattern
  that lets e.g. MazuNAT's port counter live on the switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import FrontendError, SourceLocation
from repro.lang.types import (
    BOOL,
    HashMapType,
    HeaderType,
    IntType,
    PacketType,
    PointerType,
    TupleType,
    Type,
    UINT32,
    VectorType,
    VOID,
    bit_width_of,
)
from repro.ir import instructions as irin
from repro.ir.builder import FunctionBuilder
from repro.ir.externs import extern_spec
from repro.ir.function import Function
from repro.ir.instructions import BinOpKind, UnOpKind
from repro.ir.validate import validate_function
from repro.ir.values import Const, Operand, Reg


class LoweringError(FrontendError):
    """Raised when source is outside the lowerable subset."""


# ---------------------------------------------------------------------------
# Pointer descriptors (the pointer-analysis lattice)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PacketPtr:
    """The ``Packet *pkt`` handle itself."""


@dataclass(frozen=True)
class PacketRegionPtr:
    """Pointer into a packet header region (from ``network_header()`` etc.)."""

    region: str
    header: HeaderType


@dataclass(frozen=True)
class LocalPtr:
    """``&local`` — address of a named local variable."""

    var_name: str
    var_type: Type


@dataclass(frozen=True)
class MapValuePtr:
    """Result of ``HashMap::find``: NULL-ness plus the value if present."""

    found: Reg
    value: Optional[Reg]


@dataclass(frozen=True)
class StateRef:
    """A member naming element state (map / vector / scalar)."""

    name: str
    member_type: Type


Descriptor = Union[PacketPtr, PacketRegionPtr, LocalPtr, MapValuePtr, StateRef]


# ---------------------------------------------------------------------------
# State member metadata
# ---------------------------------------------------------------------------


@dataclass
class StateMember:
    """Metadata about one element state member."""

    name: str
    member_type: Type
    annotations: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        if isinstance(self.member_type, HashMapType):
            return "map"
        if isinstance(self.member_type, VectorType):
            return "vector"
        return "scalar"

    @property
    def max_entries(self) -> Optional[int]:
        value = self.annotations.get("max_entries")
        return int(value) if value is not None else None

    def key_types(self) -> List[Type]:
        if not isinstance(self.member_type, HashMapType):
            raise TypeError(f"{self.name} is not a map")
        key = self.member_type.key
        if isinstance(key, TupleType):
            return list(key.elements)
        return [key]

    def value_type(self) -> Type:
        if isinstance(self.member_type, HashMapType):
            return self.member_type.value
        if isinstance(self.member_type, VectorType):
            return self.member_type.element
        return self.member_type

    def field_widths(self) -> List[int]:
        """Bit widths of one switch entry: the key fields, then the value.
        A vector is keyed by its 32-bit index; a scalar is its value alone.
        :func:`repro.partition.constraints.entry_bytes` prices them."""
        if self.kind == "scalar":
            return [self.member_type.bit_width()]
        keys = self.key_types() if self.kind == "map" else [UINT32]
        return [t.bit_width() for t in keys] + [self.value_type().bit_width()]


@dataclass
class LoweredMiddlebox:
    """The lowering result for one middlebox class."""

    name: str
    process: Function
    configure: Optional[Function]
    state: Dict[str, StateMember]
    program: ast.Program


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class _Scope:
    """Lexical scope mapping source names to regs or pointer descriptors."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.bindings: Dict[str, Union[Reg, Descriptor]] = {}

    def lookup(self, name: str):
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def bind(self, name: str, value) -> None:
        self.bindings[name] = value


_MAX_INLINE_DEPTH = 16


class _MethodLowering:
    """Lowers one entry method (``process`` or ``configure``) to IR."""

    def __init__(self, middlebox: ast.ClassDecl, method: ast.MethodDecl):
        self.middlebox = middlebox
        self.method = method
        self.builder = FunctionBuilder(f"{middlebox.name}.{method.name}")
        for member in middlebox.members:
            entries = member.annotations.get("max_entries")
            if entries is not None and not isinstance(entries, int):
                raise LoweringError(
                    f"member {member.name!r}: max_entries must be an"
                    f" integer, got {entries!r}",
                    member.location,
                )
        self.state: Dict[str, StateMember] = {
            m.name: StateMember(m.name, m.member_type, m.annotations)
            for m in middlebox.members
        }
        self._var_counter = 0
        self._loop_stack: List[tuple] = []  # (break_block, continue_block)
        self._inline_stack: List[str] = [method.name]
        self.is_process = method.name == "process"

    # -- entry ------------------------------------------------------------

    def lower(self) -> Function:
        scope = _Scope()
        for param in self.method.params:
            if isinstance(param.param_type, PointerType) and isinstance(
                param.param_type.pointee, PacketType
            ):
                scope.bind(param.name, PacketPtr())
            else:
                raise LoweringError(
                    f"unsupported parameter type {param.param_type} on"
                    f" {self.method.name}",
                    param.location,
                )
        self._lower_body(self.method.body, scope)
        if not self.builder.terminated:
            if self.is_process:
                raise LoweringError(
                    "process() may fall off the end without send()/drop()",
                    self.method.location,
                )
            self.builder.emit(irin.Return())
        function = self.builder.function
        _peephole_register_rmw(function)
        function.prune_unreachable()
        validate_function(function)
        return function

    # -- statements ----------------------------------------------------------

    def _lower_body(self, body: List[ast.Stmt], scope: _Scope) -> None:
        for index, stmt in enumerate(body):
            if self.builder.terminated:
                raise LoweringError(
                    "unreachable statement after send()/drop()/return",
                    stmt.location,
                )
            self._lower_stmt(stmt, scope)

    def _lower_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._lower_decl(stmt, scope)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr_stmt(stmt, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt, scope)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt, scope)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt, scope)
        elif isinstance(stmt, ast.BreakStmt):
            self._lower_break(stmt)
        elif isinstance(stmt, ast.ContinueStmt):
            self._lower_continue(stmt)
        else:
            raise LoweringError(
                f"unsupported statement {type(stmt).__name__}", stmt.location
            )

    def _fresh_var(self, name: str, type_: Type) -> Reg:
        self._var_counter += 1
        return Reg(f"{name}.{self._var_counter}", type_, is_temp=False)

    def _lower_decl(self, stmt: ast.DeclStmt, scope: _Scope) -> None:
        decl_type = stmt.decl_type
        if isinstance(decl_type, PointerType):
            if stmt.init is None:
                raise LoweringError(
                    f"pointer {stmt.name!r} must be initialized", stmt.location
                )
            value = self._lower_expr(stmt.init, scope, stmt.stmt_id)
            if isinstance(value, (PacketRegionPtr, LocalPtr, MapValuePtr, PacketPtr)):
                scope.bind(stmt.name, value)
                return
            raise LoweringError(
                f"cannot bind pointer {stmt.name!r} to a non-pointer value",
                stmt.location,
            )
        if not decl_type.is_integer:
            raise LoweringError(
                f"unsupported local type {decl_type}", stmt.location
            )
        reg = self._fresh_var(stmt.name, decl_type)
        scope.bind(stmt.name, reg)
        if stmt.init is not None:
            value = self._lower_expr(stmt.init, scope, stmt.stmt_id)
            operand = self._as_operand(value, stmt.location, stmt.stmt_id)
            operand = self._coerce(operand, decl_type, stmt.stmt_id)
            self.builder.emit(
                irin.Assign(reg, operand, stmt_id=stmt.stmt_id, location=stmt.location)
            )

    def _lower_assign(self, stmt: ast.AssignStmt, scope: _Scope) -> None:
        op_text = stmt.op
        target = stmt.target
        # Evaluate RHS first (C evaluation order is unspecified; RHS-first is
        # consistent and matches what the reference interpreter does).
        rhs_value = self._lower_expr(stmt.value, scope, stmt.stmt_id)

        if isinstance(target, ast.NameRef):
            binding = scope.lookup(target.name)
            if isinstance(binding, Reg):
                self._store_local(binding, op_text, rhs_value, stmt)
                return
            if binding is None and self.middlebox.member(target.name) is not None:
                self._store_state_scalar(target.name, op_text, rhs_value, stmt, scope)
                return
            raise LoweringError(
                f"cannot assign to {target.name!r}", stmt.location
            )
        if isinstance(target, ast.FieldAccess):
            base = self._lower_expr(target.base, scope, stmt.stmt_id)
            if isinstance(base, PacketRegionPtr):
                self._store_packet_field(base, target.field, op_text, rhs_value, stmt)
                return
            raise LoweringError(
                f"cannot assign through {type(base).__name__}", stmt.location
            )
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointee = self._lower_expr(target.operand, scope, stmt.stmt_id)
            if isinstance(pointee, LocalPtr):
                binding = scope.lookup(pointee.var_name)
                if isinstance(binding, Reg):
                    self._store_local(binding, op_text, rhs_value, stmt)
                    return
            raise LoweringError(
                "unsupported store through pointer", stmt.location
            )
        raise LoweringError("unsupported assignment target", stmt.location)

    def _store_local(self, reg: Reg, op_text: str, rhs_value, stmt: ast.Stmt) -> None:
        operand = self._as_operand(rhs_value, stmt.location, stmt.stmt_id)
        if op_text != "=":
            kind = BinOpKind(op_text[:-1])
            result = self.builder.fresh_temp(reg.type)
            self.builder.emit(
                irin.BinOp(result, kind, reg, operand, stmt_id=stmt.stmt_id,
                           location=stmt.location)
            )
            operand = result
        operand = self._coerce(operand, reg.type, stmt.stmt_id)
        self.builder.emit(
            irin.Assign(reg, operand, stmt_id=stmt.stmt_id, location=stmt.location)
        )

    def _store_state_scalar(
        self, member_name: str, op_text: str, rhs_value, stmt: ast.Stmt, scope: _Scope
    ) -> None:
        member = self.state[member_name]
        if member.kind != "scalar":
            raise LoweringError(
                f"cannot assign whole {member.kind} member {member_name!r}",
                stmt.location,
            )
        operand = self._as_operand(rhs_value, stmt.location, stmt.stmt_id)
        if op_text != "=":
            # Compound update of a scalar global: emit the stateful-ALU RMW
            # directly (dst receives the *old* value and is discarded).
            kind = BinOpKind(op_text[:-1])
            old = self.builder.fresh_temp(member.member_type, hint="old")
            self.builder.emit(
                irin.RegisterRMW(
                    old, member_name, kind, operand,
                    stmt_id=stmt.stmt_id, location=stmt.location,
                )
            )
            return
        operand = self._coerce(operand, member.member_type, stmt.stmt_id)
        self.builder.emit(
            irin.StoreState(member_name, operand, stmt_id=stmt.stmt_id,
                            location=stmt.location)
        )

    def _store_packet_field(
        self, base: PacketRegionPtr, field_name: str, op_text: str, rhs_value,
        stmt: ast.Stmt,
    ) -> None:
        if not base.header.has_field(field_name):
            raise LoweringError(
                f"{base.header.name} has no field {field_name!r}", stmt.location
            )
        width = base.header.field_width(field_name)
        field_type = IntType(width) if width in (8, 16, 32, 64) else IntType(32)
        operand = self._as_operand(rhs_value, stmt.location, stmt.stmt_id)
        if op_text != "=":
            kind = BinOpKind(op_text[:-1])
            current = self.builder.fresh_temp(field_type)
            self.builder.emit(
                irin.LoadPacketField(
                    current, base.region, field_name,
                    stmt_id=stmt.stmt_id, location=stmt.location,
                )
            )
            result = self.builder.fresh_temp(field_type)
            self.builder.emit(
                irin.BinOp(result, kind, current, operand,
                           stmt_id=stmt.stmt_id, location=stmt.location)
            )
            operand = result
        operand = self._coerce(operand, field_type, stmt.stmt_id)
        self.builder.emit(
            irin.StorePacketField(base.region, field_name, operand,
                                  stmt_id=stmt.stmt_id, location=stmt.location)
        )

    def _lower_expr_stmt(self, stmt: ast.ExprStmt, scope: _Scope) -> None:
        expr = stmt.expr
        if not isinstance(expr, ast.CallExpr):
            raise LoweringError(
                "expression statements must be calls", stmt.location
            )
        self._lower_call(expr, scope, stmt.stmt_id, result_needed=False)

    def _lower_if(self, stmt: ast.IfStmt, scope: _Scope) -> None:
        cond = self._lower_condition(stmt.cond, scope, stmt.stmt_id)
        then_block = self.builder.fresh_block("then")
        join_block = self.builder.fresh_block("join")
        if stmt.else_body:
            else_block = self.builder.fresh_block("else")
        else:
            else_block = join_block
        self.builder.emit(
            irin.Branch(cond, then_block.name, else_block.name,
                        stmt_id=stmt.stmt_id, location=stmt.location)
        )
        self.builder.enter_block(then_block)
        self._lower_body(stmt.then_body, _Scope(scope))
        self.builder.ensure_jump_to(join_block, stmt.stmt_id)
        if stmt.else_body:
            self.builder.enter_block(else_block)
            self._lower_body(stmt.else_body, _Scope(scope))
            self.builder.ensure_jump_to(join_block, stmt.stmt_id)
        self.builder.enter_block(join_block)
        # If both arms terminated, the join block is unreachable: give it a
        # terminator so it stays well-formed (the builder then reports
        # "terminated", making any trailing statement an error), and let the
        # unreachable-block prune remove it.
        preds = self.builder.function.predecessors()
        if not preds.get(join_block.name):
            self.builder.emit(irin.Return(stmt_id=stmt.stmt_id))

    def _lower_while(self, stmt: ast.WhileStmt, scope: _Scope) -> None:
        header = self.builder.fresh_block("loop_head")
        body = self.builder.fresh_block("loop_body")
        exit_block = self.builder.fresh_block("loop_exit")
        self.builder.ensure_jump_to(header, stmt.stmt_id)
        self.builder.enter_block(header)
        cond = self._lower_condition(stmt.cond, scope, stmt.stmt_id)
        self.builder.emit(
            irin.Branch(cond, body.name, exit_block.name,
                        stmt_id=stmt.stmt_id, location=stmt.location)
        )
        self._loop_stack.append((exit_block, header))
        self.builder.enter_block(body)
        self._lower_body(stmt.body, _Scope(scope))
        self.builder.ensure_jump_to(header, stmt.stmt_id)
        self._loop_stack.pop()
        self.builder.enter_block(exit_block)

    def _lower_for(self, stmt: ast.ForStmt, scope: _Scope) -> None:
        for_scope = _Scope(scope)
        if stmt.init is not None:
            self._lower_stmt(stmt.init, for_scope)
        header = self.builder.fresh_block("for_head")
        body = self.builder.fresh_block("for_body")
        step_block = self.builder.fresh_block("for_step")
        exit_block = self.builder.fresh_block("for_exit")
        self.builder.ensure_jump_to(header, stmt.stmt_id)
        self.builder.enter_block(header)
        if stmt.cond is not None:
            cond = self._lower_condition(stmt.cond, for_scope, stmt.stmt_id)
        else:
            cond = Const(1, BOOL)
        self.builder.emit(
            irin.Branch(cond, body.name, exit_block.name,
                        stmt_id=stmt.stmt_id, location=stmt.location)
        )
        self._loop_stack.append((exit_block, step_block))
        self.builder.enter_block(body)
        self._lower_body(stmt.body, _Scope(for_scope))
        self.builder.ensure_jump_to(step_block, stmt.stmt_id)
        self._loop_stack.pop()
        self.builder.enter_block(step_block)
        if not self.builder.terminated:
            if stmt.step is not None:
                self._lower_stmt(stmt.step, for_scope)
            self.builder.ensure_jump_to(header, stmt.stmt_id)
        self.builder.enter_block(exit_block)

    def _lower_return(self, stmt: ast.ReturnStmt, scope: _Scope) -> None:
        if self.is_process:
            raise LoweringError(
                "process() must end with pkt->send() or pkt->drop(), not return",
                stmt.location,
            )
        value = None
        if stmt.value is not None:
            lowered = self._lower_expr(stmt.value, scope, stmt.stmt_id)
            value = self._as_operand(lowered, stmt.location, stmt.stmt_id)
        self.builder.emit(
            irin.Return(value, stmt_id=stmt.stmt_id, location=stmt.location)
        )

    def _lower_break(self, stmt: ast.BreakStmt) -> None:
        if not self._loop_stack:
            raise LoweringError("break outside loop", stmt.location)
        exit_block, _ = self._loop_stack[-1]
        self.builder.emit(irin.Jump(exit_block.name, stmt_id=stmt.stmt_id))

    def _lower_continue(self, stmt: ast.ContinueStmt) -> None:
        if not self._loop_stack:
            raise LoweringError("continue outside loop", stmt.location)
        _, continue_block = self._loop_stack[-1]
        self.builder.emit(irin.Jump(continue_block.name, stmt_id=stmt.stmt_id))

    # -- expressions ------------------------------------------------------------

    def _lower_condition(self, expr: ast.Expr, scope: _Scope, stmt_id: int) -> Operand:
        value = self._lower_expr(expr, scope, stmt_id)
        operand = self._as_bool(value, expr.location, stmt_id)
        return operand

    def _lower_expr(self, expr: ast.Expr, scope: _Scope, stmt_id: int):
        if isinstance(expr, ast.IntLiteral):
            return Const(expr.value & 0xFFFFFFFFFFFFFFFF, _literal_type(expr.value))
        if isinstance(expr, ast.BoolLiteral):
            return Const(1 if expr.value else 0, BOOL)
        if isinstance(expr, ast.NullLiteral):
            return expr  # only meaningful in comparisons; handled there
        if isinstance(expr, ast.NameRef):
            return self._lower_name(expr, scope, stmt_id)
        if isinstance(expr, ast.FieldAccess):
            return self._lower_field_access(expr, scope, stmt_id)
        if isinstance(expr, ast.IndexExpr):
            return self._lower_index(expr, scope, stmt_id)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr, scope, stmt_id)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr, scope, stmt_id)
        if isinstance(expr, ast.CastExpr):
            value = self._lower_expr(expr.operand, scope, stmt_id)
            operand = self._as_operand(value, expr.location, stmt_id)
            if not isinstance(expr.target_type, (IntType,)):
                raise LoweringError(
                    f"unsupported cast target {expr.target_type}", expr.location
                )
            dst = self.builder.fresh_temp(expr.target_type)
            self.builder.emit(
                irin.Cast(dst, operand, expr.target_type,
                          stmt_id=stmt_id, location=expr.location)
            )
            return dst
        if isinstance(expr, ast.ConditionalExpr):
            return self._lower_ternary(expr, scope, stmt_id)
        if isinstance(expr, ast.CallExpr):
            result = self._lower_call(expr, scope, stmt_id, result_needed=True)
            if result is None:
                raise LoweringError(
                    f"call to void function {expr.callee!r} used as a value",
                    expr.location,
                )
            return result
        raise LoweringError(
            f"unsupported expression {type(expr).__name__}", expr.location
        )

    def _lower_name(self, expr: ast.NameRef, scope: _Scope, stmt_id: int):
        binding = scope.lookup(expr.name)
        if binding is not None:
            return binding
        member = self.middlebox.member(expr.name)
        if member is not None:
            info = self.state[expr.name]
            if info.kind == "scalar":
                dst = self.builder.fresh_temp(info.member_type)
                self.builder.emit(
                    irin.LoadState(dst, expr.name, stmt_id=stmt_id,
                                   location=expr.location)
                )
                return dst
            return StateRef(expr.name, member.member_type)
        raise LoweringError(f"unknown name {expr.name!r}", expr.location)

    def _lower_field_access(self, expr: ast.FieldAccess, scope: _Scope, stmt_id: int):
        base = self._lower_expr(expr.base, scope, stmt_id)
        if isinstance(base, PacketRegionPtr):
            if not base.header.has_field(expr.field):
                raise LoweringError(
                    f"{base.header.name} has no field {expr.field!r}",
                    expr.location,
                )
            width = base.header.field_width(expr.field)
            dst = self.builder.fresh_temp(
                IntType(width) if width in (8, 16, 32, 48, 64) else IntType(32)
            )
            self.builder.emit(
                irin.LoadPacketField(dst, base.region, expr.field,
                                     stmt_id=stmt_id, location=expr.location)
            )
            return dst
        raise LoweringError(
            f"unsupported field access on {type(base).__name__}", expr.location
        )

    def _lower_index(self, expr: ast.IndexExpr, scope: _Scope, stmt_id: int):
        base = self._lower_expr(expr.base, scope, stmt_id)
        if isinstance(base, StateRef) and isinstance(base.member_type, VectorType):
            index = self._as_operand(
                self._lower_expr(expr.index, scope, stmt_id), expr.location, stmt_id
            )
            dst = self.builder.fresh_temp(base.member_type.element)
            self.builder.emit(
                irin.VectorGet(dst, base.name, index,
                               stmt_id=stmt_id, location=expr.location)
            )
            return dst
        raise LoweringError("indexing is only supported on Vector members",
                            expr.location)

    def _lower_unary(self, expr: ast.UnaryOp, scope: _Scope, stmt_id: int):
        if expr.op == "&":
            if isinstance(expr.operand, ast.NameRef):
                binding = scope.lookup(expr.operand.name)
                if isinstance(binding, Reg):
                    return LocalPtr(expr.operand.name, binding.type)
                if binding is not None:
                    return binding  # already a descriptor
            raise LoweringError("'&' is only supported on local variables",
                                expr.location)
        value = self._lower_expr(expr.operand, scope, stmt_id)
        if expr.op == "*":
            if isinstance(value, LocalPtr):
                binding = scope.lookup(value.var_name)
                if isinstance(binding, Reg):
                    return binding
                raise LoweringError("dangling local pointer", expr.location)
            if isinstance(value, MapValuePtr):
                if value.value is None:
                    raise LoweringError(
                        "dereferencing a contains()-style lookup", expr.location
                    )
                return value.value
            raise LoweringError(
                f"unsupported dereference of {type(value).__name__}",
                expr.location,
            )
        operand = self._as_operand(value, expr.location, stmt_id)
        op_map = {"-": UnOpKind.NEG, "~": UnOpKind.NOT, "!": UnOpKind.LNOT}
        kind = op_map[expr.op]
        result_type = BOOL if kind is UnOpKind.LNOT else operand.type
        if kind is UnOpKind.LNOT:
            operand = self._as_bool(value, expr.location, stmt_id)
        dst = self.builder.fresh_temp(result_type)
        self.builder.emit(
            irin.UnOp(dst, kind, operand, stmt_id=stmt_id, location=expr.location)
        )
        return dst

    def _lower_binary(self, expr: ast.BinaryOp, scope: _Scope, stmt_id: int):
        op = expr.op
        # NULL comparisons resolve pointer descriptors to found-ness.
        if op in ("==", "!=") and (
            isinstance(expr.lhs, ast.NullLiteral) or isinstance(expr.rhs, ast.NullLiteral)
        ):
            other = expr.rhs if isinstance(expr.lhs, ast.NullLiteral) else expr.lhs
            value = self._lower_expr(other, scope, stmt_id)
            if isinstance(value, MapValuePtr):
                if op == "==":  # ptr == NULL  ->  !found
                    dst = self.builder.fresh_bool()
                    self.builder.emit(
                        irin.UnOp(dst, UnOpKind.LNOT, value.found,
                                  stmt_id=stmt_id, location=expr.location)
                    )
                    return dst
                return value.found
            if isinstance(value, (LocalPtr, PacketRegionPtr, PacketPtr)):
                # These pointers are never NULL in the subset.
                return Const(0 if op == "==" else 1, BOOL)
            raise LoweringError("NULL comparison on a non-pointer", expr.location)
        if op in ("&&", "||"):
            _reject_calls(expr.lhs)
            _reject_calls(expr.rhs)
            lhs = self._as_bool(
                self._lower_expr(expr.lhs, scope, stmt_id), expr.location, stmt_id
            )
            rhs = self._as_bool(
                self._lower_expr(expr.rhs, scope, stmt_id), expr.location, stmt_id
            )
            dst = self.builder.fresh_bool()
            kind = BinOpKind.LAND if op == "&&" else BinOpKind.LOR
            self.builder.emit(
                irin.BinOp(dst, kind, lhs, rhs, stmt_id=stmt_id,
                           location=expr.location)
            )
            return dst
        lhs = self._as_operand(
            self._lower_expr(expr.lhs, scope, stmt_id), expr.location, stmt_id
        )
        rhs = self._as_operand(
            self._lower_expr(expr.rhs, scope, stmt_id), expr.location, stmt_id
        )
        kind = BinOpKind(op)
        if kind.is_comparison:
            result_type: Type = BOOL
        else:
            result_type = _wider_type(lhs.type, rhs.type)
        dst = self.builder.fresh_temp(result_type)
        self.builder.emit(
            irin.BinOp(dst, kind, lhs, rhs, stmt_id=stmt_id, location=expr.location)
        )
        return dst

    def _lower_ternary(self, expr: ast.ConditionalExpr, scope: _Scope, stmt_id: int):
        cond = self._lower_condition(expr.cond, scope, stmt_id)
        result = self._fresh_var("sel", UINT32)
        then_block = self.builder.fresh_block("sel_then")
        else_block = self.builder.fresh_block("sel_else")
        join_block = self.builder.fresh_block("sel_join")
        self.builder.emit(
            irin.Branch(cond, then_block.name, else_block.name,
                        stmt_id=stmt_id, location=expr.location)
        )
        self.builder.enter_block(then_block)
        then_val = self._as_operand(
            self._lower_expr(expr.then, scope, stmt_id), expr.location, stmt_id
        )
        self.builder.emit(irin.Assign(result, then_val, stmt_id=stmt_id))
        self.builder.emit(irin.Jump(join_block.name, stmt_id=stmt_id))
        self.builder.enter_block(else_block)
        else_val = self._as_operand(
            self._lower_expr(expr.otherwise, scope, stmt_id), expr.location, stmt_id
        )
        self.builder.emit(irin.Assign(result, else_val, stmt_id=stmt_id))
        self.builder.emit(irin.Jump(join_block.name, stmt_id=stmt_id))
        self.builder.enter_block(join_block)
        return result

    # -- calls --------------------------------------------------------------------

    def _lower_call(
        self, expr: ast.CallExpr, scope: _Scope, stmt_id: int, result_needed: bool
    ):
        if expr.receiver is not None:
            receiver = self._lower_expr(expr.receiver, scope, stmt_id)
            if isinstance(receiver, PacketPtr):
                return self._lower_packet_call(expr, scope, stmt_id)
            if isinstance(receiver, StateRef):
                return self._lower_state_call(receiver, expr, scope, stmt_id)
            raise LoweringError(
                f"unsupported method call on {type(receiver).__name__}",
                expr.location,
            )
        # Externs.
        spec = extern_spec(expr.callee)
        if spec is not None:
            return self._lower_extern(spec, expr, scope, stmt_id)
        # Same-class helper: inline.
        helper = self.middlebox.method(expr.callee)
        if helper is not None:
            return self._inline_helper(helper, expr, scope, stmt_id)
        raise LoweringError(f"unknown function {expr.callee!r}", expr.location)

    def _lower_packet_call(self, expr: ast.CallExpr, scope: _Scope, stmt_id: int):
        name = expr.callee
        loc = expr.location
        if name == "network_header":
            from repro.lang.types import IPHDR

            return PacketRegionPtr("ip", IPHDR)
        if name in ("transport_header", "tcp_header"):
            from repro.lang.types import TCPHDR

            return PacketRegionPtr("tcp", TCPHDR)
        if name == "udp_header":
            from repro.lang.types import UDPHDR

            return PacketRegionPtr("udp", UDPHDR)
        if name == "ether_header":
            from repro.lang.types import ETHHDR

            return PacketRegionPtr("eth", ETHHDR)
        if name == "ingress_port":
            dst = self.builder.fresh_temp(IntType(8))
            self.builder.emit(
                irin.LoadPacketField(dst, "meta", "ingress_port",
                                     stmt_id=stmt_id, location=loc)
            )
            return dst
        if name == "length":
            total = self.builder.fresh_temp(IntType(16))
            self.builder.emit(
                irin.LoadPacketField(total, "ip", "tot_len", stmt_id=stmt_id,
                                     location=loc)
            )
            dst = self.builder.fresh_temp(UINT32)
            self.builder.emit(
                irin.BinOp(dst, BinOpKind.ADD, total, Const(14, UINT32),
                           stmt_id=stmt_id, location=loc)
            )
            return dst
        if name == "send":
            self.builder.emit(irin.Send(stmt_id=stmt_id, location=loc))
            return None
        if name == "send_to":
            if len(expr.args) != 1:
                raise LoweringError(
                    f"Packet.send_to expects 1 argument, got {len(expr.args)}",
                    loc,
                )
            port = self._as_operand(
                self._lower_expr(expr.args[0], scope, stmt_id), loc, stmt_id
            )
            self.builder.emit(irin.SendTo(port, stmt_id=stmt_id, location=loc))
            return None
        if name == "drop":
            self.builder.emit(irin.Drop(stmt_id=stmt_id, location=loc))
            return None
        raise LoweringError(f"unknown Packet method {name!r}", loc)

    def _lower_state_call(
        self, receiver: StateRef, expr: ast.CallExpr, scope: _Scope, stmt_id: int
    ):
        member = self.state[receiver.name]
        name = expr.callee
        loc = expr.location
        if member.kind == "map":
            key_arity = len(member.key_types())
            if name in ("find", "contains"):
                if len(expr.args) != key_arity:
                    raise LoweringError(
                        f"{receiver.name}.{name} expects {key_arity} key args,"
                        f" got {len(expr.args)}",
                        loc,
                    )
                keys = [
                    self._key_operand(arg, scope, stmt_id) for arg in expr.args
                ]
                found = self.builder.fresh_bool(hint="found")
                value: Optional[Reg] = None
                if name == "find":
                    value = self.builder.fresh_temp(
                        member.member_type.value, hint="val"
                    )
                self.builder.emit(
                    irin.MapFind(found, value, receiver.name, keys,
                                 stmt_id=stmt_id, location=loc)
                )
                if name == "contains":
                    return found
                return MapValuePtr(found, value)
            if name == "insert":
                if len(expr.args) != key_arity + 1:
                    raise LoweringError(
                        f"{receiver.name}.insert expects {key_arity + 1} args,"
                        f" got {len(expr.args)}",
                        loc,
                    )
                keys = [
                    self._key_operand(arg, scope, stmt_id)
                    for arg in expr.args[:-1]
                ]
                value_op = self._key_operand(expr.args[-1], scope, stmt_id)
                self.builder.emit(
                    irin.MapInsert(receiver.name, keys, value_op,
                                   stmt_id=stmt_id, location=loc)
                )
                return None
            if name == "erase":
                keys = [
                    self._key_operand(arg, scope, stmt_id) for arg in expr.args
                ]
                self.builder.emit(
                    irin.MapErase(receiver.name, keys, stmt_id=stmt_id,
                                  location=loc)
                )
                return None
            raise LoweringError(f"unknown HashMap method {name!r}", loc)
        if member.kind == "vector":
            if name == "size":
                dst = self.builder.fresh_temp(UINT32)
                self.builder.emit(
                    irin.VectorLen(dst, receiver.name, stmt_id=stmt_id,
                                   location=loc)
                )
                return dst
            if name == "at":
                index = self._as_operand(
                    self._lower_expr(expr.args[0], scope, stmt_id), loc, stmt_id
                )
                dst = self.builder.fresh_temp(member.member_type.element)
                self.builder.emit(
                    irin.VectorGet(dst, receiver.name, index,
                                   stmt_id=stmt_id, location=loc)
                )
                return dst
            if name == "push_back":
                value_op = self._as_operand(
                    self._lower_expr(expr.args[0], scope, stmt_id), loc, stmt_id
                )
                self.builder.emit(
                    irin.VectorPush(receiver.name, value_op, stmt_id=stmt_id,
                                    location=loc)
                )
                return None
            raise LoweringError(f"unknown Vector method {name!r}", loc)
        raise LoweringError(
            f"method call on scalar member {receiver.name!r}", loc
        )

    def _key_operand(self, arg: ast.Expr, scope: _Scope, stmt_id: int) -> Operand:
        """Evaluate a map key/value argument; ``&local`` reads the local."""
        value = self._lower_expr(arg, scope, stmt_id)
        if isinstance(value, LocalPtr):
            binding = scope.lookup(value.var_name)
            if isinstance(binding, Reg):
                return binding
            raise LoweringError("dangling key pointer", arg.location)
        return self._as_operand(value, arg.location, stmt_id)

    def _lower_extern(self, spec, expr: ast.CallExpr, scope: _Scope, stmt_id: int):
        args = list(expr.args)
        if spec.takes_packet:
            if not args or not isinstance(args[0], ast.NameRef):
                raise LoweringError(
                    f"{spec.name} expects the packet as first argument",
                    expr.location,
                )
            first = self._lower_expr(args[0], scope, stmt_id)
            if not isinstance(first, PacketPtr):
                raise LoweringError(
                    f"{spec.name} expects the packet as first argument",
                    expr.location,
                )
            args = args[1:]
        if len(args) != len(spec.params):
            raise LoweringError(
                f"{spec.name} expects {len(spec.params)} args, got {len(args)}",
                expr.location,
            )
        operands = [
            self._as_operand(self._lower_expr(a, scope, stmt_id), a.location, stmt_id)
            for a in args
        ]
        dst = None
        if spec.return_type is not VOID:
            dst = self.builder.fresh_temp(spec.return_type, hint="x")
        self.builder.emit(
            irin.ExternCall(dst, spec.name, operands,
                            extra_reads=spec.reads, extra_writes=spec.writes,
                            stmt_id=stmt_id, location=expr.location)
        )
        return dst

    def _inline_helper(
        self, helper: ast.MethodDecl, expr: ast.CallExpr, scope: _Scope, stmt_id: int
    ):
        if helper.name in self._inline_stack:
            raise LoweringError(
                f"recursive call to {helper.name!r} cannot be inlined",
                expr.location,
            )
        if len(self._inline_stack) >= _MAX_INLINE_DEPTH:
            raise LoweringError("inlining depth exceeded", expr.location)
        if len(expr.args) != len(helper.params):
            raise LoweringError(
                f"{helper.name} expects {len(helper.params)} args,"
                f" got {len(expr.args)}",
                expr.location,
            )
        helper_scope = _Scope()  # helpers see only their params + members
        for param, arg in zip(helper.params, expr.args):
            if isinstance(param.param_type, PointerType):
                value = self._lower_expr(arg, scope, stmt_id)
                if isinstance(
                    value, (PacketPtr, PacketRegionPtr, LocalPtr, MapValuePtr)
                ):
                    helper_scope.bind(param.name, value)
                    continue
                raise LoweringError(
                    f"argument for pointer parameter {param.name!r} is not"
                    " a pointer",
                    arg.location,
                )
            operand = self._as_operand(
                self._lower_expr(arg, scope, stmt_id), arg.location, stmt_id
            )
            reg = self._fresh_var(f"{helper.name}.{param.name}", param.param_type)
            self.builder.emit(irin.Assign(reg, operand, stmt_id=stmt_id))
            helper_scope.bind(param.name, reg)
        self._inline_stack.append(helper.name)
        result = self._inline_body(helper, helper_scope, expr.location)
        self._inline_stack.pop()
        return result

    def _inline_body(self, helper: ast.MethodDecl, scope: _Scope,
                     call_loc: SourceLocation):
        """Inline a helper whose returns are restricted to a trailing one."""
        body = helper.body
        trailing_return: Optional[ast.ReturnStmt] = None
        if body and isinstance(body[-1], ast.ReturnStmt):
            trailing_return = body[-1]
            body = body[:-1]
        for stmt in body:
            for inner in ast.walk_statements([stmt]):
                if isinstance(inner, ast.ReturnStmt):
                    raise LoweringError(
                        f"helper {helper.name!r}: only a single trailing"
                        " return is supported for inlining",
                        inner.location,
                    )
        self._lower_body(body, scope)
        if trailing_return is not None and trailing_return.value is not None:
            if self.builder.terminated:
                return None
            return self._lower_expr(
                trailing_return.value, scope, trailing_return.stmt_id
            )
        return None

    # -- coercions ------------------------------------------------------------

    def _as_operand(self, value, location: SourceLocation, stmt_id: int) -> Operand:
        if isinstance(value, (Const, Reg)):
            return value
        if isinstance(value, MapValuePtr):
            # A bare find-result in value position means its truthiness.
            return value.found
        raise LoweringError(
            f"expected a value, found {type(value).__name__}", location
        )

    def _as_bool(self, value, location: SourceLocation, stmt_id: int) -> Operand:
        if isinstance(value, MapValuePtr):
            return value.found
        operand = self._as_operand(value, location, stmt_id)
        if operand.type is BOOL or (
            isinstance(operand.type, IntType) and operand.type.bits == 1
        ):
            return operand
        dst = self.builder.fresh_bool()
        zero = Const(0, operand.type)
        self.builder.emit(
            irin.BinOp(dst, BinOpKind.NE, operand, zero, stmt_id=stmt_id,
                       location=location)
        )
        return dst

    def _coerce(self, operand: Operand, target: Type, stmt_id: int) -> Operand:
        if operand.type == target:
            return operand
        if isinstance(operand, Const):
            if isinstance(target, IntType):
                return Const(target.wrap(operand.value), target)
            return operand
        if isinstance(target, IntType) and isinstance(operand.type, (IntType,)):
            if operand.type.bit_width() == target.bit_width():
                return operand
            dst = self.builder.fresh_temp(target)
            self.builder.emit(irin.Cast(dst, operand, target, stmt_id=stmt_id))
            return dst
        return operand


# ---------------------------------------------------------------------------
# Post-lowering passes
# ---------------------------------------------------------------------------


def _peephole_register_rmw(function: Function) -> None:
    """Combine ``x = load S; t = x <op> c; store S, t`` into one RMW.

    This is the pattern a fetch-and-add port counter lowers to; merging it
    lets the partitioner place the counter on the switch as a P4 register
    with a single stateful access (constraint 3).
    """
    all_insts = list(function.instructions())
    for block in function.blocks.values():
        insts = block.instructions
        i = 0
        while i < len(insts):
            load = insts[i]
            if not isinstance(load, irin.LoadState):
                i += 1
                continue
            state = load.state
            match = _find_rmw_tail(insts, i + 1, load)
            if match is not None:
                binop_index, store_index, binop = match
                rmw = irin.RegisterRMW(
                    load.dst, state, binop.op, binop.rhs,
                    stmt_id=load.stmt_id, location=load.location,
                )
                # The binop result is used only by the store (checked in
                # _find_rmw_tail), so all three instructions collapse into
                # the single RMW, whose dst receives the pre-update value.
                del insts[store_index]
                del insts[binop_index]
                insts[i] = rmw
                i += 1
                continue
            # Second pattern: ``x = load S; ...; S <op>= c`` where the
            # compound assignment already lowered to an RMW whose old-value
            # destination is unused.  Fold the load into that RMW so the
            # register is touched once (a fetch-and-add).
            merge = _find_mergeable_rmw(insts, i + 1, load, all_insts)
            if merge is not None:
                # Replace the load (earliest point) with the merged RMW so
                # intermediate uses of the loaded value stay defined, and
                # drop the original RMW.
                rmw_index, old_rmw = merge
                insts[i] = irin.RegisterRMW(
                    load.dst, state, old_rmw.op, old_rmw.operand,
                    stmt_id=load.stmt_id, location=load.location,
                )
                del insts[rmw_index]
                continue
            i += 1


def _find_rmw_tail(insts, start: int, load: irin.LoadState):
    """Find ``t = load.dst <op> c`` and ``store S, t`` after ``load``.

    Requirements: no intervening access to the state, the binop uses the
    loaded value exactly once with a constant/independent other operand, and
    the binop result is used only by the store.
    """
    state = load.state
    loaded = load.dst
    # Follow simple copies of the loaded value (named locals assigned from
    # the load's temp) so the common `uint32_t t = counter; counter = t + 1`
    # source pattern matches.
    aliases = {loaded.name}
    binop_index = None
    binop = None
    for j in range(start, len(insts)):
        inst = insts[j]
        state_locs = {
            loc.name for loc in (inst.reads() | inst.writes()) if loc.is_global
        }
        if (
            isinstance(inst, irin.Assign)
            and isinstance(inst.src, Reg)
            and inst.src.name in aliases
            and binop_index is None
        ):
            aliases.add(inst.dst.name)
            continue
        if isinstance(inst, irin.BinOp) and binop_index is None:
            # Require the loaded value on the LHS so non-commutative ops
            # (sub, shifts) keep their operand order in the RMW.
            # The merged RMW executes at the load's position, so the other
            # operand must be a constant (a register could be defined in
            # between).
            uses_loaded = (
                isinstance(inst.lhs, Reg)
                and inst.lhs.name in aliases
                and isinstance(inst.rhs, Const)
            )
            if uses_loaded and inst.op in irin.P4_SUPPORTED_BINOPS:
                binop_index = j
                binop = inst
                continue
        if (
            isinstance(inst, irin.StoreState)
            and inst.state == state
            and binop is not None
            and isinstance(inst.src, Reg)
            and inst.src.name == binop.dst.name
        ):
            # Check the binop result isn't used anywhere else.
            uses = sum(
                reg.name == binop.dst.name
                for other in insts for reg in other.uses()
            )
            if uses == 1:
                return binop_index, j, binop
            return None
        if state in state_locs:
            return None
    return None


def _find_mergeable_rmw(insts, start: int, load: irin.LoadState, all_insts):
    """Find a same-block ``RegisterRMW`` on ``load``'s state whose old-value
    destination is never used, with no intervening access to the state."""
    state = load.state
    from repro.ir.values import Const

    for j in range(start, len(insts)):
        inst = insts[j]
        if isinstance(inst, irin.RegisterRMW) and inst.state == state:
            # The merged RMW moves up to the load's position, so its operand
            # must not depend on anything defined in between.
            if not isinstance(inst.operand, Const):
                return None
            used = any(
                reg.name == inst.dst.name
                for other in all_insts for reg in other.uses()
            )
            return None if used else (j, inst)
        state_locs = {
            loc.name for loc in (inst.reads() | inst.writes()) if loc.is_global
        }
        if state in state_locs:
            return None
    return None


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def lower_program(program: ast.Program) -> LoweredMiddlebox:
    """Lower a parsed middlebox class to IR.

    Returns the lowered ``process`` function (required) and ``configure``
    (optional; runs once on the server at deployment).
    """
    middlebox = program.middlebox
    process_decl = middlebox.method("process")
    if process_decl is None:
        raise LoweringError(
            f"middlebox {middlebox.name!r} has no process() method",
            middlebox.location,
        )
    process_lowering = _MethodLowering(middlebox, process_decl)
    process = process_lowering.lower()
    configure = None
    configure_decl = middlebox.method("configure")
    if configure_decl is not None:
        configure = _MethodLowering(middlebox, configure_decl).lower()
    return LoweredMiddlebox(
        name=middlebox.name,
        process=process,
        configure=configure,
        state=process_lowering.state,
        program=program,
    )


def _literal_type(value: int) -> IntType:
    if value <= 0xFFFFFFFF:
        return UINT32
    return IntType(64)


def _wider_type(a: Type, b: Type) -> Type:
    width = max(bit_width_of(a, 32), bit_width_of(b, 32), 8)
    # Normalize bool arithmetic to 8-bit.
    for candidate in (8, 16, 32, 64):
        if width <= candidate:
            return IntType(candidate)
    return IntType(64)


def _reject_calls(expr: ast.Expr) -> None:
    """Ensure an eagerly-lowered logical operand performs no calls."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.CallExpr):
            raise LoweringError(
                "calls are not allowed inside '&&'/'||' operands"
                " (lowered eagerly)",
                node.location,
            )
        for attr in ("lhs", "rhs", "operand", "base", "index", "cond",
                     "then", "otherwise"):
            child = getattr(node, attr, None)
            if isinstance(child, ast.Expr):
                stack.append(child)
