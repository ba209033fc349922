"""Source-located diagnostics for the frontend."""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A (line, column) position in a named source buffer.

    A tuple, so one is built by ``tuple.__new__`` — the tokenizer makes
    one per token — where a frozen dataclass sets each field through
    ``object.__setattr__``.  It is equal only to another location, never
    to a bare tuple, and hashes as the tuple of its fields, as the frozen
    dataclass did.
    """

    line: int = 0
    column: int = 0
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return type(other) is SourceLocation and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def unknown(cls) -> "SourceLocation":
        return _UNKNOWN


#: Where a synthetic instruction comes from: one location, shared.
_UNKNOWN = SourceLocation(0, 0, "<unknown>")


class FrontendError(Exception):
    """Base class for all frontend errors."""

    def __init__(self, message: str, location: SourceLocation = None):
        self.location = location or SourceLocation.unknown()
        super().__init__(f"{self.location}: {message}")
        self.bare_message = message


class LexError(FrontendError):
    """Raised on malformed tokens."""


class ParseError(FrontendError):
    """Raised on malformed syntax."""
