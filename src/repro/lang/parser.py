"""Recursive-descent parser for the C++ subset.

Grammar (informal)::

    program     := class_decl
    class_decl  := "class" IDENT "{" access_spec? (member | method)* "}" ";"?
    member      := type IDENT ";"
    method      := type IDENT "(" params ")" "{" stmt* "}"
    stmt        := decl | assign | if | while | for | return | break
                 | continue | expr ";" | "{" stmt* "}"
    expr        := standard C precedence-climbing expression grammar over
                   the subset's operators

Types accepted: named scalar/header types, ``HashMap<T, T>``, ``Vector<T>``,
and pointers thereto.  Expressions cover everything the five evaluation
middleboxes use; anything outside the subset is a :class:`ParseError` with a
source location, matching how the paper's Clang frontend would reject input
it cannot analyze.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import ParseError
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.types import (
    HashMapType,
    PointerType,
    TupleType,
    Type,
    lookup_named_type,
    VectorType,
)

# Binary operator precedence (higher binds tighter), C-compatible.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    """Parses one middlebox class from a token stream."""

    def __init__(self, tokens: List[Token], filename: str = "<input>"):
        self.tokens = tokens
        self.index = 0
        self.filename = filename
        self._next_stmt_id = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _expect_punct(self, text: str) -> Token:
        token = self._peek()
        if not token.is_punct(text):
            raise ParseError(
                f"expected {text!r}, found {token.text!r}", token.location
            )
        return self._advance()

    def _expect_ident(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}", token.location
            )
        return self._advance()

    def _accept_punct(self, text: str) -> Optional[Token]:
        if self._peek().is_punct(text):
            return self._advance()
        return None

    def _accept_keyword(self, text: str) -> Optional[Token]:
        if self._peek().is_keyword(text):
            return self._advance()
        return None

    def _alloc_stmt_id(self) -> int:
        stmt_id = self._next_stmt_id
        self._next_stmt_id += 1
        return stmt_id

    # -- types -----------------------------------------------------------------

    def _looks_like_type(self) -> bool:
        """True if the upcoming tokens start a type (for decl-vs-expr)."""
        token = self._peek()
        if token.is_keyword("const"):
            return True
        if token.is_keyword("unsigned") or token.is_keyword("int"):
            return True
        if token.is_keyword("bool") or token.is_keyword("void"):
            return True
        if token.kind is not TokenKind.IDENT:
            return False
        if token.text in ("HashMap", "Vector", "Tuple"):
            return True
        return lookup_named_type(token.text) is not None

    def parse_type(self) -> Type:
        self._accept_keyword("const")
        token = self._peek()
        base: Optional[Type] = None
        if token.is_keyword("unsigned"):
            self._advance()
            self._accept_keyword("int")
            base = lookup_named_type("unsigned")
        elif token.is_keyword("int"):
            self._advance()
            base = lookup_named_type("int")
        elif token.is_keyword("bool"):
            self._advance()
            base = lookup_named_type("bool")
        elif token.is_keyword("void"):
            self._advance()
            base = lookup_named_type("void")
        elif token.kind is TokenKind.IDENT and token.text == "HashMap":
            self._advance()
            self._expect_punct("<")
            key_type = self.parse_type()
            self._expect_punct(",")
            value_type = self.parse_type()
            self._expect_template_close()
            base = HashMapType(key_type, value_type)
        elif token.kind is TokenKind.IDENT and token.text == "Vector":
            self._advance()
            self._expect_punct("<")
            element = self.parse_type()
            self._expect_template_close()
            base = VectorType(element)
        elif token.kind is TokenKind.IDENT and token.text == "Tuple":
            self._advance()
            self._expect_punct("<")
            elements = [self.parse_type()]
            while self._accept_punct(","):
                elements.append(self.parse_type())
            self._expect_template_close()
            base = TupleType(tuple(elements))
        elif token.kind is TokenKind.IDENT:
            named = lookup_named_type(token.text)
            if named is None:
                raise ParseError(f"unknown type {token.text!r}", token.location)
            self._advance()
            base = named
        if base is None:
            raise ParseError(f"expected type, found {token.text!r}", token.location)
        while self._accept_punct("*"):
            base = PointerType(base)
        return base

    def _expect_template_close(self) -> None:
        """Consume ``>`` handling the ``>>`` maximal-munch collision."""
        token = self._peek()
        if token.is_punct(">"):
            self._advance()
            return
        if token.is_punct(">>"):
            # Split ">>" into two ">" tokens.
            token.text = ">"
            return
        raise ParseError(f"expected '>', found {token.text!r}", token.location)

    # -- top level ----------------------------------------------------------------

    def parse_program(self, source: str = "") -> ast.Program:
        token = self._peek()
        if not token.is_keyword("class") and not token.is_keyword("struct"):
            raise ParseError("expected 'class' at top level", token.location)
        class_decl = self.parse_class()
        eof = self._peek()
        if eof.kind is not TokenKind.EOF:
            raise ParseError(
                f"trailing tokens after class: {eof.text!r}", eof.location
            )
        return ast.Program(class_decl.location, class_decl, source)

    def parse_class(self) -> ast.ClassDecl:
        keyword = self._advance()  # class / struct
        name = self._expect_ident()
        self._expect_punct("{")
        members: List[ast.MemberDecl] = []
        methods: List[ast.MethodDecl] = []
        while not self._peek().is_punct("}"):
            token = self._peek()
            if token.is_keyword("public") or token.is_keyword("private"):
                self._advance()
                self._expect_punct(":")
                continue
            annotations = dict(token.annotations)
            decl_type = self.parse_type()
            decl_name = self._expect_ident()
            if self._peek().is_punct("("):
                methods.append(self._parse_method(decl_type, decl_name))
            else:
                self._expect_punct(";")
                members.append(
                    ast.MemberDecl(
                        decl_name.location, decl_type, decl_name.text, annotations
                    )
                )
        self._expect_punct("}")
        self._accept_punct(";")
        return ast.ClassDecl(keyword.location, name.text, members, methods)

    def _parse_method(self, return_type: Type, name: Token) -> ast.MethodDecl:
        self._expect_punct("(")
        params: List[ast.ParamDecl] = []
        if not self._peek().is_punct(")"):
            while True:
                param_type = self.parse_type()
                param_name = self._expect_ident()
                params.append(
                    ast.ParamDecl(param_name.location, param_type, param_name.text)
                )
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        self._expect_punct("{")
        body = self._parse_block_body()
        return ast.MethodDecl(name.location, return_type, name.text, params, body)

    # -- statements ---------------------------------------------------------------

    def _parse_block_body(self) -> List[ast.Stmt]:
        """Parse statements until the matching ``}`` (which is consumed)."""
        body: List[ast.Stmt] = []
        while not self._peek().is_punct("}"):
            if self._peek().kind is TokenKind.EOF:
                raise ParseError("unexpected end of input in block", self._peek().location)
            body.append(self.parse_statement())
        self._expect_punct("}")
        return body

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.is_punct("{"):
            # A bare block is flattened into an IfStmt-less sequence; we wrap
            # it in an if(true) to keep one statement node.  In practice the
            # middlebox sources never use bare blocks, but accept them.
            self._advance()
            body = self._parse_block_body()
            stmt = ast.IfStmt(
                token.location,
                ast.BoolLiteral(token.location, True),
                body,
                [],
                stmt_id=self._alloc_stmt_id(),
            )
            return stmt
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("return"):
            self._advance()
            value = None
            if not self._peek().is_punct(";"):
                value = self.parse_expression()
            self._expect_punct(";")
            return ast.ReturnStmt(token.location, value, stmt_id=self._alloc_stmt_id())
        if token.is_keyword("break"):
            self._advance()
            self._expect_punct(";")
            return ast.BreakStmt(token.location, stmt_id=self._alloc_stmt_id())
        if token.is_keyword("continue"):
            self._advance()
            self._expect_punct(";")
            return ast.ContinueStmt(token.location, stmt_id=self._alloc_stmt_id())
        if self._looks_like_type() and self._is_declaration():
            return self._parse_declaration()
        return self._parse_expr_or_assign()

    def _is_declaration(self) -> bool:
        """Disambiguate ``type name ...`` declarations from expressions.

        Strategy: tentatively parse a type and check that an identifier
        follows.  ``a * b;`` never appears as a statement in the subset, so a
        leading type name is decisive.
        """
        saved = self.index
        try:
            self.parse_type()
            result = self._peek().kind is TokenKind.IDENT
        except ParseError:
            result = False
        finally:
            self.index = saved
        return result

    def _parse_declaration(self) -> ast.Stmt:
        location = self._peek().location
        decl_type = self.parse_type()
        name = self._expect_ident()
        init = None
        if self._accept_punct("="):
            init = self.parse_expression()
        self._expect_punct(";")
        return ast.DeclStmt(
            location, decl_type, name.text, init, stmt_id=self._alloc_stmt_id()
        )

    def _parse_if(self) -> ast.Stmt:
        token = self._advance()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        then_body = self._parse_stmt_or_block()
        else_body: List[ast.Stmt] = []
        if self._accept_keyword("else"):
            if self._peek().is_keyword("if"):
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_stmt_or_block()
        return ast.IfStmt(
            token.location, cond, then_body, else_body, stmt_id=self._alloc_stmt_id()
        )

    def _parse_while(self) -> ast.Stmt:
        token = self._advance()
        self._expect_punct("(")
        cond = self.parse_expression()
        self._expect_punct(")")
        body = self._parse_stmt_or_block()
        return ast.WhileStmt(token.location, cond, body, stmt_id=self._alloc_stmt_id())

    def _parse_for(self) -> ast.Stmt:
        token = self._advance()
        self._expect_punct("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_punct(";"):
            if self._looks_like_type() and self._is_declaration():
                init = self._parse_declaration()
            else:
                init = self._parse_expr_or_assign()
        else:
            self._advance()
        cond: Optional[ast.Expr] = None
        if not self._peek().is_punct(";"):
            cond = self.parse_expression()
        self._expect_punct(";")
        step: Optional[ast.Stmt] = None
        if not self._peek().is_punct(")"):
            step = self._parse_assign_like(consume_semicolon=False)
        self._expect_punct(")")
        body = self._parse_stmt_or_block()
        return ast.ForStmt(
            token.location, init, cond, step, body, stmt_id=self._alloc_stmt_id()
        )

    def _parse_stmt_or_block(self) -> List[ast.Stmt]:
        if self._accept_punct("{"):
            return self._parse_block_body()
        return [self.parse_statement()]

    def _parse_expr_or_assign(self) -> ast.Stmt:
        return self._parse_assign_like(consume_semicolon=True)

    def _parse_assign_like(self, consume_semicolon: bool) -> ast.Stmt:
        location = self._peek().location
        expr = self.parse_expression()
        token = self._peek()
        stmt: ast.Stmt
        if token.kind is TokenKind.PUNCT and token.text in _ASSIGN_OPS:
            self._advance()
            value = self.parse_expression()
            stmt = ast.AssignStmt(
                location, expr, value, token.text, stmt_id=self._alloc_stmt_id()
            )
        elif token.is_punct("++") or token.is_punct("--"):
            self._advance()
            one = ast.IntLiteral(token.location, 1)
            op = "+=" if token.text == "++" else "-="
            stmt = ast.AssignStmt(
                location, expr, one, op, stmt_id=self._alloc_stmt_id()
            )
        else:
            stmt = ast.ExprStmt(location, expr, stmt_id=self._alloc_stmt_id())
        if consume_semicolon:
            self._expect_punct(";")
        return stmt

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._accept_punct("?"):
            then = self.parse_expression()
            self._expect_punct(":")
            otherwise = self.parse_expression()
            return ast.ConditionalExpr(cond.location, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is not TokenKind.PUNCT:
                break
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self._advance()
            rhs = self._parse_binary(precedence + 1)
            lhs = ast.BinaryOp(lhs.location, token.text, lhs, rhs)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text in ("-", "~", "!", "*", "&"):
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(token.location, token.text, operand)
        # C-style cast: "(" type ")" unary — only when the parenthesized
        # tokens form a type.
        if token.is_punct("("):
            saved = self.index
            self._advance()
            if self._looks_like_type():
                try:
                    target_type = self.parse_type()
                    if self._peek().is_punct(")"):
                        self._advance()
                        operand = self._parse_unary()
                        return ast.CastExpr(token.location, target_type, operand)
                except ParseError:
                    pass
            self.index = saved
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.is_punct(".") or token.is_punct("->"):
                arrow = token.text == "->"
                self._advance()
                name = self._expect_ident()
                if self._peek().is_punct("("):
                    args = self._parse_call_args()
                    expr = ast.CallExpr(
                        token.location, name.text, expr, args, receiver_arrow=arrow
                    )
                else:
                    expr = ast.FieldAccess(token.location, expr, name.text, arrow)
            elif token.is_punct("["):
                self._advance()
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.IndexExpr(token.location, expr, index)
            else:
                break
        return expr

    def _parse_call_args(self) -> List[ast.Expr]:
        self._expect_punct("(")
        args: List[ast.Expr] = []
        if not self._peek().is_punct(")"):
            while True:
                args.append(self.parse_expression())
                if not self._accept_punct(","):
                    break
        self._expect_punct(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.IntLiteral(token.location, token.value)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLiteral(token.location, True)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLiteral(token.location, False)
        if token.is_keyword("NULL") or token.is_keyword("nullptr"):
            self._advance()
            return ast.NullLiteral(token.location)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(token.location, token.text)
        if token.is_punct("("):
            self._advance()
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._peek().is_punct("("):
                args = self._parse_call_args()
                return ast.CallExpr(token.location, token.text, None, args)
            return ast.NameRef(token.location, token.text)
        raise ParseError(f"unexpected token {token.text!r}", token.location)


def parse_program(source: str, filename: str = "<input>") -> ast.Program:
    """Parse a middlebox source string into an AST."""
    tokens = tokenize(source, filename)
    parser = Parser(tokens, filename)
    try:
        return parser.parse_program(source)
    except RecursionError:
        # Recursive descent: hostile nesting runs out of stack, not grammar.
        raise ParseError(
            "nesting too deep to parse", parser._peek().location
        ) from None
