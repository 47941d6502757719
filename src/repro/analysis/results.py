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
    """A simple column-aligned text table (the benchmark output format)."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_values(self, column: str) -> list[object]:
        index = list(self.columns).index(column)
        return [row[index] for row in self.rows]

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

    def print(self) -> None:  # pragma: no cover - console convenience
        print("\n" + self.render() + "\n")

    @staticmethod
    def render_many(tables: Iterable["ResultTable"]) -> str:
        return "\n\n".join(table.render() for table in tables)
