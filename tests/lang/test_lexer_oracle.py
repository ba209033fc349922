"""The one-regex tokenizer is the character walk it replaced, token for
token; and no input makes the frontend fall over.

``lexer_oracle.py`` keeps the retired walk.  Over the six bundled sources,
60 generated programs and seeded one-byte mutations of all of them
(delete, insert, replace — with quotes, comment openers, NULs and
non-ASCII in the alphabet — and every prefix of one bundled source) both
tokenizers must yield the same ``(kind, text, location, value,
annotations)`` list or the same ``LexError``, message and location.  The
two inputs that lex differently on purpose are recognised on the source
text, left out of the comparison and asserted on their own below.

The same mutants then go through ``parse_program``: it returns, or it
raises a ``FrontendError`` — never an ``IndexError`` / ``KeyError`` /
``AttributeError`` / ``RecursionError`` (ROADMAP's hostile-input item,
``repro.lang`` half).
"""

import random
import re
from typing import Iterator, List

import pytest

from repro.difftest.generator import generate_program
from repro.difftest.runner import derive_seeds
from repro.lang import lexer
from repro.lang.diagnostics import FrontendError, LexError, SourceLocation
from repro.lang.parser import parse_program
from repro.middleboxes import MIDDLEBOX_NAMES, load
from tests.lang import lexer_oracle

GENERATED = 60
MUTANTS_PER_SOURCE = 12
PREFIX_SOURCE = "minilb"

ALPHABET = [chr(code) for code in range(128)] + ["é", " ", "﻿"]
#: drawn as often as the whole of ``ALPHABET``: what opens and closes things
HOSTILE = ['"', "/", "*", "\\", "\n", "@", "0", "x", "u", "L", "_", "9"]

#: A literal that runs into an identifier character: the walk cut it in
#: two tokens, the tokenizer takes a hex literal's integer suffix
#: (``0xFFu``) and refuses anything else (``123abc``, ``0xZ``, ``10ULx``,
#: ``37u5``).
CHANGED_ON_PURPOSE = re.compile(
    r"(?<![A-Za-z0-9_])"
    r"(?:0[xX][0-9a-fA-F]++[A-Za-z_]"
    r"|(?!0[xX][0-9a-fA-F])[0-9]++[uUlL]*+[A-Za-z0-9_])"
)


def sources() -> Iterator[str]:
    for name in MIDDLEBOX_NAMES:
        yield load(name).source
    for index in range(GENERATED):
        yield generate_program(derive_seeds(0, index)[0]).source()


def mutants(source: str, rng: random.Random) -> Iterator[str]:
    for _ in range(MUTANTS_PER_SOURCE):
        at = rng.randrange(len(source))
        byte = rng.choice(HOSTILE if rng.random() < 0.5 else ALPHABET)
        yield rng.choice((
            source[:at] + source[at + 1:],
            source[:at] + byte + source[at:],
            source[:at] + byte + source[at + 1:],
        ))


def corpus() -> List[str]:
    rng = random.Random(24)
    found = []
    for source in sources():
        found.append(source)
        found.extend(mutants(source, rng))
    prefixed = load(PREFIX_SOURCE).source
    found.extend(prefixed[:cut] for cut in range(len(prefixed)))
    return found


CORPUS = corpus()


def outcome(tokenize, source: str):
    try:
        return [
            (token.kind, token.text, token.location, token.value,
             token.annotations)
            for token in tokenize(source, "hostile.cc")
        ]
    except LexError as refusal:
        return type(refusal), refusal.bare_message, refusal.location


def test_the_tokenizer_is_the_character_walk():
    compared = refused = 0
    for source in CORPUS:
        if CHANGED_ON_PURPOSE.search(source):
            continue
        compared += 1
        tokens = outcome(lexer.tokenize, source)
        assert tokens == outcome(lexer_oracle.tokenize, source), source
        refused += not isinstance(tokens, list)
    # The exception must stay an exception, and both ends be compared.
    assert compared > 0.97 * len(CORPUS)
    assert 20 < refused < compared // 2


@pytest.mark.parametrize("source, value", [
    ("0xFFu", 0xFF), ("0x10UL", 0x10), ("0XabLu", 0xAB), ("10UL", 10),
])
def test_a_hex_literal_takes_the_integer_suffixes(source, value):
    number, eof = lexer.tokenize(source + " ")
    assert (number.kind, number.value) == (lexer.TokenKind.NUMBER, value)
    assert number.text == source.rstrip("uUlL")
    assert eof.kind is lexer.TokenKind.EOF
    # ... which the walk gave a decimal literal only.
    walked = lexer_oracle.tokenize(source)
    assert (len(walked) == 2) == (source == "10UL")


@pytest.mark.parametrize(
    "run", ["123abc", "0xZ", "10ULx", "0xFFuz", "7_", "1e5", "37u5"]
)
def test_a_literal_running_into_an_identifier_is_refused(run):
    source = f"a =\n  {run};"
    with pytest.raises(LexError) as refusal:
        lexer.tokenize(source, "glued.cc")
    assert refusal.value.location == SourceLocation(2, 3, "glued.cc")
    assert run in refusal.value.bare_message
    # The walk cut it in two and went on.
    assert len(lexer_oracle.tokenize(source)) >= 6
    assert CHANGED_ON_PURPOSE.search(source)


#: not one mutation away from anything, but what a fuzzer tries first
DEEP = 5000
CRAFTED = [
    "", "class", "class A {", "class A { void f() {", "\x00", "﻿",
    "class A { void f() { x = " + "(" * DEEP + "1" + ")" * DEEP + "; } };",
    "class A { void f() { x = " + "!" * DEEP + "1; } };",
    "class A { void f() { x = " + "-" * DEEP + "1; } };",
    "class A { void f() " + "{" * DEEP + "}" * DEEP + " };",
    "class A { void f() { " + "if (a) " * DEEP + "x = 1; } };",
    "class A { void f() { x = a" + ".b" * DEEP + "; } };",
    "class A { void f() { x = a" + "[0]" * DEEP + "; } };",
    "class A { void f() { x = 1" + " + 1" * DEEP + "; } };",
    "class A { HashMap<" * 50,
    "class A { " + "Vector<" * DEEP + "int" + ">" * DEEP + " v; };",
]


@pytest.mark.parametrize(
    "source", CRAFTED, ids=[f"crafted{at}" for at in range(len(CRAFTED))]
)
def test_crafted_input_ends_in_a_frontend_error(source):
    try:
        parse_program(source, "hostile.cc")
    except FrontendError as refusal:
        assert refusal.location is not None


def test_every_mutant_parses_or_is_refused_with_a_location():
    refused = 0
    for source in CORPUS:
        try:
            parse_program(source, "hostile.cc")
        except FrontendError as refusal:
            refused += 1
            assert refusal.location.filename in ("hostile.cc", "<unknown>")
    assert refused > len(CORPUS) // 4
