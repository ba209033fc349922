"""Tokenizer for the C++ subset.

Produces a flat token stream with source locations.  Comments are skipped
except for ``// @gallium: key=value`` annotation comments, which are attached
to the following token so the parser can pick up per-declaration annotations
(e.g. the maximum size of an offloaded ``HashMap``).
"""

from __future__ import annotations

import enum
import re
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Optional

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

#: One token or comment per match, with the blanks before it, the
#: alternatives in the order a hand-written scanner would try them; the
#: last two, any other character and the end of the input, make every
#: character part of some match, so ``findall`` skips nothing.  Hex and
#: decimal literals take the C integer suffixes (``10UL``, ``0xFFu``); a
#: literal that runs straight into an identifier character is
#: ``badnumber``, a comment or a string that never closes ``unclosed``.
_TOKEN_RE = re.compile(
    r"""
      (?P<blank>[ \t\r\n]*)
      (?:
        (?P<line>//[^\n]*)
      | (?P<block>/\*.*?\*/)
      | (?P<number>(?:0[xX][0-9a-fA-F]+|[0-9]+)[uUlL]*(?![A-Za-z0-9_]))
      | (?P<badnumber>[0-9][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"(?:\\.|[^"\\])*")
      | (?P<unclosed>/\*|")
      | (?P<punct>%s)
      | (?P<unexpected>.)
      | \Z
      )
    """ % "|".join(re.escape(punct) for punct in _PUNCTUATORS),
    re.VERBOSE | re.DOTALL,
)
_ANNOTATION_RE = re.compile(r"//\s*@gallium:\s*(.*)")


#: The annotations of every token no ``// @gallium:`` comment precedes:
#: one read-only empty map, shared.
_NO_ANNOTATIONS: Mapping[str, object] = MappingProxyType({})


class Token(NamedTuple):
    """One token: a tuple, so the lexer builds one with ``tuple.__new__``
    and no Python ``__init__`` runs per token."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: Optional[int] = None
    # Annotation key/value pairs from an immediately preceding
    # ``// @gallium: ...`` comment.
    annotations: Mapping[str, object] = _NO_ANNOTATIONS
    #: the text of a punctuator or keyword, what the parser matches on;
    #: None for any other token
    tag: Optional[str] = None

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
    """Single-pass tokenizer: the groups of every :data:`_TOKEN_RE` match
    at once, positions counted forward from their lengths, the line from
    the blanks, comments and strings that hold newlines."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        append = out.append
        pending_annotations: dict = {}
        filename = self.filename
        new = tuple.__new__
        keywords = KEYWORDS
        punct_kind, ident_kind, keyword_kind, number_kind = (
            TokenKind.PUNCT, TokenKind.IDENT, TokenKind.KEYWORD,
            TokenKind.NUMBER,
        )
        none = _NO_ANNOTATIONS
        line, line_start, pos = 1, 0, 0
        for (
            blank, comment, block, number, badnumber, ident, string,
            unclosed, punct, unexpected,
        ) in _TOKEN_RE.findall(self.source):
            if blank:
                newlines = blank.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + blank.rindex("\n") + 1
                pos += len(blank)
            location = new(
                SourceLocation, (line, pos - line_start + 1, filename)
            )
            annotations = none
            if pending_annotations and (ident or punct or number or string):
                annotations, pending_annotations = pending_annotations, {}
            if ident:
                pos += len(ident)
                if ident in keywords:
                    append(new(Token, (keyword_kind, ident, location, None,
                                       annotations, ident)))
                else:
                    append(new(Token, (ident_kind, ident, location, None,
                                       annotations, None)))
            elif punct:
                pos += len(punct)
                append(new(Token, (punct_kind, punct, location, None,
                                   annotations, punct)))
            elif number:
                pos += len(number)
                text = number.rstrip("uUlL")
                base = 16 if text[1:2] in ("x", "X") else 10
                append(new(Token, (number_kind, text, location,
                                   int(text, base), annotations, None)))
            elif comment:
                pos += len(comment)
                annotation = _ANNOTATION_RE.match(comment)
                if annotation:
                    pending_annotations.update(
                        _parse_annotation_comment(annotation.group(1))
                    )
            elif block or string:
                text = block or string
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
                pos += len(text)
                if string:
                    # Only used in config snippets.
                    append(Token(TokenKind.STRING, string[1:-1], location,
                                 None, annotations))
            elif badnumber:
                raise LexError(
                    f"identifier character directly after an integer"
                    f" literal: {badnumber!r}", location,
                )
            elif unclosed == '"':
                raise LexError("unterminated string literal", location)
            elif unclosed:
                raise LexError("unterminated block comment", location)
            elif unexpected:
                raise LexError(
                    f"unexpected character {unexpected!r}", location
                )
        append(Token(TokenKind.EOF, "", SourceLocation(
            line, pos - line_start + 1, filename
        )))
        return out


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` into a list ending with an EOF token."""
    return Lexer(source, filename).tokens()
