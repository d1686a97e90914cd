"""Labeled report tables with significance annotations.

Tables serialize to a long-format CSV, with floats that read back
exactly, and to a human-readable Markdown mirror where significant
cells are bold.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


@dataclass
class Cell:
    value: float
    significant: bool = False
    p_value: float | None = None
    population: int | None = None

    def __post_init__(self):
        if self.significant and self.p_value is None:
            raise ValueError("significant cells must record their p-value")


@dataclass
class ReportTable:
    title: str
    columns: list
    rows: list = field(default_factory=list)
    cells: dict = field(default_factory=dict)  # (row, col) -> Cell
    footnotes: list = field(default_factory=list)
    header: dict = field(default_factory=dict)  # config/provenance metadata

    def set(self, row, col, value, significant=False, p_value=None, population=None):
        if row not in self.rows:
            self.rows.append(row)
        if col not in self.columns:
            raise KeyError(f"unknown column {col!r}")
        self.cells[(row, col)] = Cell(value, significant, p_value, population)

    def get(self, row, col) -> Cell | None:
        return self.cells.get((row, col))

    def value(self, row, col):
        cell = self.cells.get((row, col))
        return cell.value if cell is not None else None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# title: {self.title}\n")
        for key in sorted(self.header):
            out.write(f"# {key}: {self.header[key]}\n")
        for note in self.footnotes:
            out.write(f"# note: {note}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["row", "column", "value", "significant", "p_value", "population"])
        for row in self.rows:
            for col in self.columns:
                cell = self.cells.get((row, col))
                if cell is None:
                    continue
                writer.writerow([
                    row,
                    col,
                    repr(float(cell.value)),
                    "1" if cell.significant else "0",
                    "" if cell.p_value is None else repr(float(cell.p_value)),
                    "" if cell.population is None else str(cell.population),
                ])
        return out.getvalue()

    def to_markdown(self) -> str:
        lines = [f"## {self.title}", ""]
        for key in sorted(self.header):
            lines.append(f"- {key}: {self.header[key]}")
        if self.header:
            lines.append("")
        lines.append("| | " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "---|" * (len(self.columns) + 1))
        for row in self.rows:
            rendered = []
            for col in self.columns:
                cell = self.cells.get((row, col))
                if cell is None:
                    rendered.append("")
                elif cell.significant:
                    rendered.append(f"**{cell.value:.4g}**")
                else:
                    rendered.append(f"{cell.value:.4g}")
            lines.append("| " + str(row) + " | " + " | ".join(rendered) + " |")
        for note in self.footnotes:
            lines.append(f"\n*{note}*")
        lines.append("")
        return "\n".join(lines)
