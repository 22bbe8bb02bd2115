"""Result containers shared by the table and figure runners."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TableResult", "FigureResult"]


@dataclass(frozen=True)
class TableResult:
    """One reproduced table.

    ``rows`` holds the measured values; ``paper_rows`` the corresponding
    published values (same keys) where the paper reports them, so the
    EXPERIMENTS.md report can print measured-vs-paper side by side.
    """

    table_id: str
    title: str
    columns: tuple[str, ...]
    rows: list[dict] = field(repr=False)
    paper_rows: list[dict] | None = None
    notes: str = ""

    def column(self, name: str) -> list:
        """Extract one column across the measured rows."""
        return [row[name] for row in self.rows]

    def row_for(self, key_column: str, key: object) -> dict:
        """Find the measured row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column}={key!r} in table {self.table_id}")


@dataclass(frozen=True)
class FigureResult:
    """One reproduced figure: named data series over a shared x-axis."""

    figure_id: str
    title: str
    x_label: str
    x_values: list[float] = field(repr=False)
    series: dict[str, list[float]] = field(repr=False)
    notes: str = ""
