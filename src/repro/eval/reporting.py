"""Plain-text table rendering for the experiment harness."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for row in str_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[index]) for index, cell in enumerate(cells)
        ).rstrip()

    lines = [fmt(list(header)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
