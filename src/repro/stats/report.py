"""Plain-text rendering of result tables.

The benchmark harness prints the same rows/series the paper reports;
this module owns the formatting so every bench produces consistent,
diff-able output (captured into ``bench_output.txt``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

__all__ = ["Table", "render_table"]


@dataclass
class Table:
    """A titled table: header row plus data rows (stringified cells)."""

    title: str
    header: Sequence[str]
    rows: List[Sequence[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are converted with ``str``."""
        if len(cells) != len(self.header):
            raise ValueError(
                f"row has {len(cells)} cells, header has {len(self.header)}"
            )
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        """The table as aligned monospace text."""
        return render_table(self)


def render_table(table: Table) -> str:
    """Render *table* with column alignment and a rule under the header."""
    columns = len(table.header)
    widths = [len(str(h)) for h in table.header]
    for row in table.rows:
        for i in range(columns):
            widths[i] = max(widths[i], len(row[i]))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(str(cells[i]).ljust(widths[i]) for i in range(columns)).rstrip()

    lines = [table.title, fmt([str(h) for h in table.header]), "-" * (sum(widths) + 2 * (columns - 1))]
    lines.extend(fmt(row) for row in table.rows)
    return "\n".join(lines)
