"""Tests for the tokenizer."""

import hashlib

import pytest

from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.lang.diagnostics import LexError
from repro.lang.lexer import TokenKind, tokenize
from repro.middleboxes import MIDDLEBOX_NAMES, load

#: sha256 of ``(kind, text, value, line, column, annotations)`` of every
#: token of the six bundled sources and 50 generated programs, recorded
#: while each token built a fresh annotation dict and a frozen
#: ``SourceLocation`` through ``__setattr__``.
TOKEN_STREAM = (
    "853c43b8a61710879222ae2f2baa1b5e08b57b849d649250f19707e581b40987"
)


def test_token_stream_pinned():
    sources = [load(name).source for name in MIDDLEBOX_NAMES] + [
        generate_program(derive_seeds(0, index)[0]).source()
        for index in range(50)
    ]
    digest = hashlib.sha256()
    for source in sources:
        for token in tokenize(source):
            digest.update(repr((
                token.kind.value, token.text, token.value,
                token.location.line, token.location.column,
                sorted(token.annotations.items()),
            )).encode())
    assert digest.hexdigest() == TOKEN_STREAM


class TestBasicTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("class Foo if while uint32_t")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [
            (TokenKind.KEYWORD, "class"),
            (TokenKind.IDENT, "Foo"),
            (TokenKind.KEYWORD, "if"),
            (TokenKind.KEYWORD, "while"),
            (TokenKind.IDENT, "uint32_t"),
        ]

    def test_ends_with_eof(self):
        assert tokenize("x")[-1].kind is TokenKind.EOF
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_decimal_numbers(self):
        token = tokenize("12345")[0]
        assert token.kind is TokenKind.NUMBER
        assert token.value == 12345

    def test_hex_numbers(self):
        assert tokenize("0xFFFF")[0].value == 0xFFFF
        assert tokenize("0X10")[0].value == 16

    def test_integer_suffixes_swallowed(self):
        tokens = tokenize("10U 10UL 7u")
        assert [t.value for t in tokens[:-1]] == [10, 10, 7]

    def test_multichar_punctuators_maximal_munch(self):
        texts = [t.text for t in tokenize("a->b << >> <= == != && || +=")[:-1]]
        assert texts == ["a", "->", "b", "<<", ">>", "<=", "==", "!=", "&&", "||", "+="]

    def test_string_literal(self):
        token = tokenize('"hello world"')[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "hello world"

    def test_locations_tracked(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3


class TestComments:
    def test_line_comments_skipped(self):
        tokens = tokenize("a // comment here\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_block_comments_skipped(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_annotation_comment_attaches_to_next_token(self):
        tokens = tokenize("// @gallium: max_entries=4096\nHashMap")
        assert tokens[0].annotations == {"max_entries": 4096}

    def test_annotation_multiple_keys(self):
        tokens = tokenize("// @gallium: max_entries=16, replicate=true\nx")
        assert tokens[0].annotations["max_entries"] == 16
        assert tokens[0].annotations["replicate"] == "true"

    def test_plain_comment_no_annotation(self):
        tokens = tokenize("// just words\nx")
        assert tokens[0].annotations == {}


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"open')
