"""Tokenizer for the C++ subset.

Produces a flat token stream with source locations.  Comments are skipped
except for ``// @gallium: key=value`` annotation comments, which are attached
to the following token so the parser can pick up per-declaration annotations
(e.g. the maximum size of an offloaded ``HashMap``).
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Mapping, Optional

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

#: One token, comment or run of blanks per match, the alternatives in the
#: order a hand-written scanner would try them.  Hex and decimal literals
#: take the C integer suffixes (``10UL``, ``0xFFu``); a literal that runs
#: straight into an identifier character is ``badnumber``, a comment or a
#: string that never closes ``unclosed``.
_TOKEN_RE = re.compile(
    r"""
      (?P<blank>[ \t\r\n]+)
    | (?P<line>//[^\n]*)
    | (?P<block>/\*.*?\*/)
    | (?P<number>(?:0[xX][0-9a-fA-F]+|[0-9]+)[uUlL]*(?![A-Za-z0-9_]))
    | (?P<badnumber>[0-9][A-Za-z0-9_]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<unclosed>/\*|")
    | (?P<punct>%s)
    """ % "|".join(re.escape(punct) for punct in _PUNCTUATORS),
    re.VERBOSE | re.DOTALL,
)
_ANNOTATION_RE = re.compile(r"//\s*@gallium:\s*(.*)")


#: The annotations of every token no ``// @gallium:`` comment precedes:
#: one read-only empty map, shared.
_NO_ANNOTATIONS: Mapping[str, object] = MappingProxyType({})


def _no_annotations() -> Mapping[str, object]:
    return _NO_ANNOTATIONS


@dataclass(slots=True)
class Token:
    kind: TokenKind
    text: str
    location: SourceLocation
    value: Optional[int] = None
    # Annotation key/value pairs from an immediately preceding
    # ``// @gallium: ...`` comment.
    annotations: Mapping[str, object] = field(default_factory=_no_annotations)

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
    """Single-pass tokenizer: one :data:`_TOKEN_RE` match per token."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        #: offset of the first character of each line
        self._line_starts = [0]
        self._line_starts.extend(
            match.end() for match in re.finditer("\n", source)
        )

    def _location(self, offset: int) -> SourceLocation:
        line = bisect_right(self._line_starts, offset)
        return SourceLocation(
            line, offset - self._line_starts[line - 1] + 1, self.filename
        )

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        pending_annotations: dict = {}
        src = self.source
        match_at = _TOKEN_RE.match
        pos, end = 0, len(src)
        while pos < end:
            match = match_at(src, pos)
            if match is None:
                raise LexError(
                    f"unexpected character {src[pos]!r}", self._location(pos)
                )
            kind = match.lastgroup
            text = match.group()
            pos = match.end()
            if kind == "blank" or kind == "block":
                continue
            if kind == "line":
                annotation = _ANNOTATION_RE.match(text)
                if annotation:
                    pending_annotations.update(
                        _parse_annotation_comment(annotation.group(1))
                    )
                continue
            location = self._location(match.start())
            if kind == "ident":
                token = Token(
                    TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT,
                    text, location,
                )
            elif kind == "punct":
                token = Token(TokenKind.PUNCT, text, location)
            elif kind == "number":
                text = text.rstrip("uUlL")
                base = 16 if text[1:2] in ("x", "X") else 10
                token = Token(TokenKind.NUMBER, text, location, int(text, base))
            elif kind == "string":
                # Only used in config snippets.
                token = Token(TokenKind.STRING, text[1:-1], location)
            elif kind == "badnumber":
                raise LexError(
                    f"identifier character directly after an integer"
                    f" literal: {text!r}", location,
                )
            elif text == '"':
                raise LexError("unterminated string literal", location)
            else:
                raise LexError("unterminated block comment", location)
            if pending_annotations:
                token.annotations = pending_annotations
                pending_annotations = {}
            out.append(token)
        out.append(Token(TokenKind.EOF, "", self._location(len(src))))
        return out


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return Lexer(source, filename).tokens()
