"""Result tables and human-readable formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = ["format_bytes", "format_seconds", "ResultTable"]


def format_bytes(num_bytes: "int | float | None") -> str:
    """Format a byte count the way the paper does (941MB, 2.71GB).

    The value is rounded before the unit is picked: the largest unit whose
    *rounded* figure is at least 1 wins, so 999 600 bytes print as 1MB.
    """
    if num_bytes is None:
        return "-"
    value = float(num_bytes)
    for unit, scale in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        scaled = value / scale
        if scaled >= 100:
            text = f"{scaled:.0f}"
        else:
            text = f"{scaled:.2f}".rstrip("0").rstrip(".")
        if float(text) >= 1:
            return f"{text}{unit}"
    return f"{int(value)}B"


def format_seconds(seconds: "float | None") -> str:
    """Format seconds as ``8h9m50s`` / ``3m20s`` / ``1.25s``.

    Rounded before the unit is picked: 59.996 s prints as 1m0s.
    """
    if seconds is None:
        return "-"
    if round(seconds, 2) < 60:
        return f"{seconds:.2f}s"
    total = int(round(seconds))
    hours, remainder = divmod(total, 3600)
    minutes, secs = divmod(remainder, 60)
    if hours:
        return f"{hours}h{minutes}m{secs}s"
    return f"{minutes}m{secs}s"


@dataclass
class ResultTable:
    """A column-aligned text table, and the figures behind it.

    ``measures`` maps a name to a number or a string: the figures an
    experiment's checks read, unformatted.  :meth:`render` does not print them.
    """

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    measures: dict[str, "float | str"] = field(default_factory=dict)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def render(self) -> str:
        """Render the table as aligned monospace text."""
        headers = [str(col) for col in self.columns]
        str_rows = [[str(value) for value in row] for row in self.rows]
        widths = [len(header) for header in headers]
        for row in str_rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def render_many(tables: Iterable["ResultTable"]) -> str:
        return "\n\n".join(table.render() for table in tables)
