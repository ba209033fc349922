"""The character-walk tokenizer ``repro.lang.lexer`` had before it became
one compiled alternation, kept literally as the oracle of
``test_lexer_oracle.py`` (the way ``tests/partition/test_label_engine.py``
keeps the rule sweep and ``projection_oracle.py`` the old projection).

Two inputs lex differently on purpose since (``test_lexer_oracle.py``
asserts each on its own): a hex literal now takes the C integer suffixes
a decimal one always took (``0xFFu`` was NUMBER then IDENT here), and a
literal running straight into an identifier character (``123abc``) is a
``LexError`` where this walk yields two tokens.
"""

from __future__ import annotations

import re
from typing import List

from repro.lang.diagnostics import LexError, SourceLocation
from repro.lang.lexer import (
    KEYWORDS,
    Token,
    TokenKind,
    _ANNOTATION_RE,
    _parse_annotation_comment,
)

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=",
    ">>=",
    "->",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "++",
    "--",
    "::",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "<",
    ">",
    ";",
    ",",
    ".",
    "=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "?",
    ":",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_DEC_RE = re.compile(r"[0-9]+")


class CharacterWalk:
    """The tokenizer as ``repro.lang.lexer.Lexer`` was: one Python step per
    character, a punctuator found by ``startswith`` down the list."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column, self.filename)

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        pending_annotations: dict = {}
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            # Comments.
            if src.startswith("//", self.pos):
                end = src.find("\n", self.pos)
                if end == -1:
                    end = len(src)
                comment = src[self.pos : end]
                match = _ANNOTATION_RE.match(comment)
                if match:
                    pending_annotations.update(
                        _parse_annotation_comment(match.group(1))
                    )
                self._advance(end - self.pos)
                continue
            if src.startswith("/*", self.pos):
                end = src.find("*/", self.pos + 2)
                if end == -1:
                    raise LexError("unterminated block comment", self._location())
                self._advance(end + 2 - self.pos)
                continue
            location = self._location()
            # Numbers.
            match = _HEX_RE.match(src, self.pos)
            if match:
                text = match.group(0)
                token = Token(TokenKind.NUMBER, text, location, int(text, 16))
                self._advance(len(text))
                out.append(self._attach(token, pending_annotations))
                pending_annotations = {}
                continue
            match = _DEC_RE.match(src, self.pos)
            if match:
                text = match.group(0)
                # Swallow C integer suffixes (10U, 10UL ...).
                end = self.pos + len(text)
                suffix = 0
                while end + suffix < len(src) and src[end + suffix] in "uUlL":
                    suffix += 1
                token = Token(TokenKind.NUMBER, text, location, int(text, 10))
                self._advance(len(text) + suffix)
                out.append(self._attach(token, pending_annotations))
                pending_annotations = {}
                continue
            # Identifiers / keywords.
            match = _IDENT_RE.match(src, self.pos)
            if match:
                text = match.group(0)
                kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                token = Token(kind, text, location)
                self._advance(len(text))
                out.append(self._attach(token, pending_annotations))
                pending_annotations = {}
                continue
            # Strings (only used in config snippets).
            if ch == '"':
                end = self.pos + 1
                while end < len(src) and src[end] != '"':
                    if src[end] == "\\":
                        end += 1
                    end += 1
                if end >= len(src):
                    raise LexError("unterminated string literal", location)
                text = src[self.pos + 1 : end]
                token = Token(TokenKind.STRING, text, location)
                self._advance(end + 1 - self.pos)
                out.append(self._attach(token, pending_annotations))
                pending_annotations = {}
                continue
            # Punctuators.
            for punct in _PUNCTUATORS:
                if src.startswith(punct, self.pos):
                    token = Token(TokenKind.PUNCT, punct, location)
                    self._advance(len(punct))
                    out.append(self._attach(token, pending_annotations))
                    pending_annotations = {}
                    break
            else:
                raise LexError(f"unexpected character {ch!r}", location)
        out.append(Token(TokenKind.EOF, "", self._location()))
        return out

    @staticmethod
    def _attach(token: Token, annotations: dict) -> Token:
        if annotations:
            return token._replace(annotations=dict(annotations))
        return token


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    return CharacterWalk(source, filename).tokens()
