"""Source-located diagnostics for the frontend."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SourceLocation:
    """A (line, column) position in a named source buffer."""

    line: int = 0
    column: int = 0
    filename: str = "<input>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"

    @classmethod
    def unknown(cls) -> "SourceLocation":
        return cls(0, 0, "<unknown>")


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
