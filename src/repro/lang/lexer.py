"""Tokenizer for the C++ subset.

Produces a flat token stream with source locations.  Comments are skipped
except for ``// @gallium: key=value`` annotation comments, which are attached
to the following token so the parser can pick up per-declaration annotations
(e.g. the maximum size of an offloaded ``HashMap``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang.diagnostics import LexError, SourceLocation


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punct"
    KEYWORD = "keyword"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "class",
        "struct",
        "public",
        "private",
        "void",
        "bool",
        "true",
        "false",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "NULL",
        "nullptr",
        "const",
        "unsigned",
        "int",
    }
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
_ANNOTATION_RE = re.compile(r"//\s*@gallium:\s*(.*)")


@dataclass
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation
    value: Optional[int] = None
    # Annotation key/value pairs from an immediately preceding
    # ``// @gallium: ...`` comment.
    annotations: dict = field(default_factory=dict)

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r}, {self.location})"


def _parse_annotation_comment(body: str) -> dict:
    """Parse ``key=value, key2=value2`` from an annotation comment body."""
    result = {}
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" in piece:
            key, _, value = piece.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                result[key] = int(value, 0)
            except ValueError:
                result[key] = value
        else:
            result[piece] = True
    return result


class Lexer:
    """Single-pass tokenizer."""

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
            token.annotations = dict(annotations)
        return token


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return Lexer(source, filename).tokens()
