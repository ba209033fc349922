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

    def _advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    # A token with a tag, or of any kind the grammar names, is not the EOF
    # token: the parser steps past one it has looked at with
    # ``self.index += 1``.

    def _expect_punct(self, text: str) -> Token:
        token = self.tokens[self.index]
        if token.tag != text:
            raise ParseError(
                f"expected {text!r}, found {token.text!r}", token.location
            )
        self.index += 1
        return token

    def _expect_ident(self) -> Token:
        token = self.tokens[self.index]
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected identifier, found {token.text!r}", token.location
            )
        self.index += 1
        return token

    def _accept(self, text: str) -> Optional[Token]:
        """The next token if it is the punctuator or keyword ``text``."""
        token = self.tokens[self.index]
        if token.tag == text:
            self.index += 1
            return token
        return None

    def _alloc_stmt_id(self) -> int:
        stmt_id = self._next_stmt_id
        self._next_stmt_id += 1
        return stmt_id

    # -- types -----------------------------------------------------------------

    def _looks_like_type(self) -> bool:
        """True if the upcoming tokens start a type (for decl-vs-expr)."""
        token = self.tokens[self.index]
        if token.tag == "const":
            return True
        if token.tag == "unsigned" or token.tag == "int":
            return True
        if token.tag == "bool" or token.tag == "void":
            return True
        if token.kind is not TokenKind.IDENT:
            return False
        if token.text in ("HashMap", "Vector", "Tuple"):
            return True
        return lookup_named_type(token.text) is not None

    def parse_type(self) -> Type:
        self._accept("const")
        token = self.tokens[self.index]
        base: Optional[Type] = None
        if token.tag == "unsigned":
            self.index += 1
            self._accept("int")
            base = lookup_named_type("unsigned")
        elif token.tag == "int":
            self.index += 1
            base = lookup_named_type("int")
        elif token.tag == "bool":
            self.index += 1
            base = lookup_named_type("bool")
        elif token.tag == "void":
            self.index += 1
            base = lookup_named_type("void")
        elif token.kind is TokenKind.IDENT and token.text == "HashMap":
            self.index += 1
            self._expect_punct("<")
            key_type = self.parse_type()
            self._expect_punct(",")
            value_type = self.parse_type()
            self._expect_template_close()
            base = HashMapType(key_type, value_type)
        elif token.kind is TokenKind.IDENT and token.text == "Vector":
            self.index += 1
            self._expect_punct("<")
            element = self.parse_type()
            self._expect_template_close()
            base = VectorType(element)
        elif token.kind is TokenKind.IDENT and token.text == "Tuple":
            self.index += 1
            self._expect_punct("<")
            elements = [self.parse_type()]
            while self._accept(","):
                elements.append(self.parse_type())
            self._expect_template_close()
            base = TupleType(tuple(elements))
        elif token.kind is TokenKind.IDENT:
            named = lookup_named_type(token.text)
            if named is None:
                raise ParseError(f"unknown type {token.text!r}", token.location)
            self.index += 1
            base = named
        if base is None:
            raise ParseError(f"expected type, found {token.text!r}", token.location)
        while self._accept("*"):
            base = PointerType(base)
        return base

    def _expect_template_close(self) -> None:
        """Consume ``>`` handling the ``>>`` maximal-munch collision."""
        token = self.tokens[self.index]
        if token.tag == ">":
            self.index += 1
            return
        if token.tag == ">>":
            # Split ">>" into two ">" tokens.
            self.tokens[self.index] = token._replace(text=">", tag=">")
            return
        raise ParseError(f"expected '>', found {token.text!r}", token.location)

    # -- top level ----------------------------------------------------------------

    def parse_program(self, source: str = "") -> ast.Program:
        token = self.tokens[self.index]
        if token.tag != "class" and token.tag != "struct":
            raise ParseError("expected 'class' at top level", token.location)
        class_decl = self.parse_class()
        eof = self.tokens[self.index]
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
        while self.tokens[self.index].tag != "}":
            token = self.tokens[self.index]
            if token.tag == "public" or token.tag == "private":
                self.index += 1
                self._expect_punct(":")
                continue
            annotations = dict(token.annotations)
            decl_type = self.parse_type()
            decl_name = self._expect_ident()
            if self.tokens[self.index].tag == "(":
                methods.append(self._parse_method(decl_type, decl_name))
            else:
                self._expect_punct(";")
                members.append(
                    ast.MemberDecl(
                        decl_name.location, decl_type, decl_name.text, annotations
                    )
                )
        self._expect_punct("}")
        self._accept(";")
        return ast.ClassDecl(keyword.location, name.text, members, methods)

    def _parse_method(self, return_type: Type, name: Token) -> ast.MethodDecl:
        self._expect_punct("(")
        params: List[ast.ParamDecl] = []
        if self.tokens[self.index].tag != ")":
            while True:
                param_type = self.parse_type()
                param_name = self._expect_ident()
                params.append(
                    ast.ParamDecl(param_name.location, param_type, param_name.text)
                )
                if not self._accept(","):
                    break
        self._expect_punct(")")
        self._expect_punct("{")
        body = self._parse_block_body()
        return ast.MethodDecl(name.location, return_type, name.text, params, body)

    # -- statements ---------------------------------------------------------------

    def _parse_block_body(self) -> List[ast.Stmt]:
        """Parse statements until the matching ``}`` (which is consumed)."""
        body: List[ast.Stmt] = []
        while self.tokens[self.index].tag != "}":
            if self.tokens[self.index].kind is TokenKind.EOF:
                raise ParseError("unexpected end of input in block", self.tokens[self.index].location)
            body.append(self.parse_statement())
        self._expect_punct("}")
        return body

    def parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.index]
        if token.tag == "{":
            # A bare block is flattened into an IfStmt-less sequence; we wrap
            # it in an if(true) to keep one statement node.  In practice the
            # middlebox sources never use bare blocks, but accept them.
            self.index += 1
            body = self._parse_block_body()
            stmt = ast.IfStmt(
                token.location,
                ast.BoolLiteral(token.location, True),
                body,
                [],
                stmt_id=self._alloc_stmt_id(),
            )
            return stmt
        if token.tag == "if":
            return self._parse_if()
        if token.tag == "while":
            return self._parse_while()
        if token.tag == "for":
            return self._parse_for()
        if token.tag == "return":
            self.index += 1
            value = None
            if self.tokens[self.index].tag != ";":
                value = self.parse_expression()
            self._expect_punct(";")
            return ast.ReturnStmt(token.location, value, stmt_id=self._alloc_stmt_id())
        if token.tag == "break":
            self.index += 1
            self._expect_punct(";")
            return ast.BreakStmt(token.location, stmt_id=self._alloc_stmt_id())
        if token.tag == "continue":
            self.index += 1
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
            result = self.tokens[self.index].kind is TokenKind.IDENT
        except ParseError:
            result = False
        finally:
            self.index = saved
        return result

    def _parse_declaration(self) -> ast.Stmt:
        location = self.tokens[self.index].location
        decl_type = self.parse_type()
        name = self._expect_ident()
        init = None
        if self._accept("="):
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
        if self._accept("else"):
            if self.tokens[self.index].tag == "if":
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
        if self.tokens[self.index].tag != ";":
            if self._looks_like_type() and self._is_declaration():
                init = self._parse_declaration()
            else:
                init = self._parse_expr_or_assign()
        else:
            self.index += 1
        cond: Optional[ast.Expr] = None
        if self.tokens[self.index].tag != ";":
            cond = self.parse_expression()
        self._expect_punct(";")
        step: Optional[ast.Stmt] = None
        if self.tokens[self.index].tag != ")":
            step = self._parse_assign_like(consume_semicolon=False)
        self._expect_punct(")")
        body = self._parse_stmt_or_block()
        return ast.ForStmt(
            token.location, init, cond, step, body, stmt_id=self._alloc_stmt_id()
        )

    def _parse_stmt_or_block(self) -> List[ast.Stmt]:
        if self._accept("{"):
            return self._parse_block_body()
        return [self.parse_statement()]

    def _parse_expr_or_assign(self) -> ast.Stmt:
        return self._parse_assign_like(consume_semicolon=True)

    def _parse_assign_like(self, consume_semicolon: bool) -> ast.Stmt:
        location = self.tokens[self.index].location
        expr = self.parse_expression()
        token = self.tokens[self.index]
        stmt: ast.Stmt
        if token.kind is TokenKind.PUNCT and token.text in _ASSIGN_OPS:
            self.index += 1
            value = self.parse_expression()
            stmt = ast.AssignStmt(
                location, expr, value, token.text, stmt_id=self._alloc_stmt_id()
            )
        elif token.tag == "++" or token.tag == "--":
            self.index += 1
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
        """A conditional expression, or the binary one it starts with."""
        cond = self._parse_binary(1)
        if self._accept("?"):
            then = self.parse_expression()
            self._expect_punct(":")
            otherwise = self.parse_expression()
            return ast.ConditionalExpr(cond.location, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        lhs = self._parse_unary()
        while True:
            token = self.tokens[self.index]
            if token.kind is not TokenKind.PUNCT:
                break
            precedence = _BINARY_PRECEDENCE.get(token.text)
            if precedence is None or precedence < min_precedence:
                break
            self.index += 1
            rhs = self._parse_binary(precedence + 1)
            lhs = ast.BinaryOp(lhs.location, token.text, lhs, rhs)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.index]
        if token.kind is TokenKind.PUNCT and token.text in ("-", "~", "!", "*", "&"):
            self.index += 1
            operand = self._parse_unary()
            return ast.UnaryOp(token.location, token.text, operand)
        # C-style cast: "(" type ")" unary — only when the parenthesized
        # tokens form a type.
        if token.tag == "(":
            saved = self.index
            self.index += 1
            if self._looks_like_type():
                try:
                    target_type = self.parse_type()
                    if self.tokens[self.index].tag == ")":
                        self.index += 1
                        operand = self._parse_unary()
                        return ast.CastExpr(token.location, target_type, operand)
                except ParseError:
                    pass
            self.index = saved
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self.tokens[self.index]
            if token.tag == "." or token.tag == "->":
                arrow = token.text == "->"
                self.index += 1
                name = self._expect_ident()
                if self.tokens[self.index].tag == "(":
                    args = self._parse_call_args()
                    expr = ast.CallExpr(
                        token.location, name.text, expr, args, receiver_arrow=arrow
                    )
                else:
                    expr = ast.FieldAccess(token.location, expr, name.text, arrow)
            elif token.tag == "[":
                self.index += 1
                index = self.parse_expression()
                self._expect_punct("]")
                expr = ast.IndexExpr(token.location, expr, index)
            else:
                break
        return expr

    def _parse_call_args(self) -> List[ast.Expr]:
        self._expect_punct("(")
        args: List[ast.Expr] = []
        if self.tokens[self.index].tag != ")":
            while True:
                args.append(self.parse_expression())
                if not self._accept(","):
                    break
        self._expect_punct(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        token = self.tokens[self.index]
        if token.kind is TokenKind.NUMBER:
            self.index += 1
            return ast.IntLiteral(token.location, token.value)
        if token.tag == "true":
            self.index += 1
            return ast.BoolLiteral(token.location, True)
        if token.tag == "false":
            self.index += 1
            return ast.BoolLiteral(token.location, False)
        if token.tag == "NULL" or token.tag == "nullptr":
            self.index += 1
            return ast.NullLiteral(token.location)
        if token.kind is TokenKind.STRING:
            self.index += 1
            return ast.StringLiteral(token.location, token.text)
        if token.tag == "(":
            self.index += 1
            inner = self.parse_expression()
            self._expect_punct(")")
            return inner
        if token.kind is TokenKind.IDENT:
            self.index += 1
            if self.tokens[self.index].tag == "(":
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
            "nesting too deep to parse", parser.tokens[parser.index].location
        ) from None
