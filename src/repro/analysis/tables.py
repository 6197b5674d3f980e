"""Table rendering for experiment output: structured first, text on top.

Every experiment emits rows (lists of dicts).  :func:`render_rows` is
the structured core — it resolves column order and renders every cell to
its canonical string, and is what non-text presentation layers (the
dashboard's HTML tables and CSV exports) consume, so a number formats
identically in the terminal, a web page, and a spreadsheet.
:func:`format_table` lays those strings out as the aligned ASCII table
each experiment of README.md's E1-E12 table prints, and
:func:`rows_to_csv` writes them as RFC-4180 CSV; both are thin views over
the same structured pass.
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, Sequence

__all__ = ["format_table", "render_rows", "rows_to_csv"]


def _render(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def render_rows(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
) -> tuple[list[str], list[list[str]]]:
    """Resolve ``(header, cell_strings)`` for a row set.

    ``columns`` fixes the order (default: keys of the first row); missing
    cells render empty.  Every consumer of experiment rows — ASCII, CSV,
    HTML — goes through this one rendering pass.
    """
    if not rows:
        return list(columns) if columns is not None else [], []
    cols = list(columns) if columns is not None else list(rows[0].keys())
    return cols, [[_render(row.get(col, "")) for col in cols] for row in rows]


def rows_to_csv(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
) -> str:
    """Render rows as CSV text (header line first, ``\\n`` line ends)."""
    cols, rendered = render_rows(rows, columns)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(cols)
    writer.writerows(rendered)
    return out.getvalue()


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table.

    ``columns`` fixes the order (default: keys of the first row).  Missing
    cells render empty.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols, rendered = render_rows(rows, columns)
    widths = [
        max(len(col), *(len(line[i]) for line in rendered))
        for i, col in enumerate(cols)
    ]
    parts = []
    if title:
        parts.append(title)
    header = "  ".join(col.ljust(width) for col, width in zip(cols, widths))
    parts.append(header)
    parts.append("  ".join("-" * width for width in widths))
    for line in rendered:
        parts.append("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))
    return "\n".join(parts)
