import csv

import pytest

from sessionterms.report import Cell, ReportTable


def sample_table():
    table = ReportTable(title="Demo table", columns=["a", "b"])
    table.header["config"] = "deadbeef01"
    table.set("first", "a", 0.125, population=10)
    table.set("first", "b", 0.5, significant=True, p_value=0.003, population=10)
    table.set("second", "a", 1 / 3)
    table.footnotes.append("one footnote")
    return table


class TestCell:
    def test_significant_requires_p_value(self):
        with pytest.raises(ValueError):
            Cell(1.0, significant=True)
        Cell(1.0, significant=True, p_value=0.01)

    def test_defaults(self):
        cell = Cell(2.5)
        assert not cell.significant
        assert cell.p_value is None and cell.population is None


class TestTableAccess:
    def test_set_registers_rows_in_order(self):
        table = sample_table()
        assert table.rows == ["first", "second"]

    def test_unknown_column_rejected(self):
        with pytest.raises(KeyError):
            sample_table().set("first", "zzz", 1.0)

    def test_missing_cell_is_none(self):
        table = sample_table()
        assert table.get("second", "b") is None
        assert table.value("second", "b") is None


def csv_cells(text):
    """{(row, column): Cell} of a `to_csv` text, in file order, read with
    `csv.reader`."""
    reader = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    next(reader)  # header row
    return {(row, col): Cell(float(value), sig == "1", float(p_value) if p_value else None,
                             int(population) if population else None)
            for row, col, value, sig, p_value, population in reader}


class TestCsvRoundTrip:
    def test_lossless(self):
        table = sample_table()
        text = table.to_csv()
        assert text.splitlines()[:3] == [
            "# title: Demo table", "# config: deadbeef01", "# note: one footnote"]
        cells = csv_cells(text)
        assert list(cells) == list(table.cells)  # rows, then columns, in order
        assert cells == table.cells  # repr round trip is exact

    def test_float_values_survive_exactly(self):
        table = ReportTable(title="t", columns=["x"])
        table.set("r", "x", 0.1 + 0.2)  # not representable prettily
        assert csv_cells(table.to_csv())[("r", "x")].value == 0.1 + 0.2

    def test_serialization_deterministic(self):
        assert sample_table().to_csv() == sample_table().to_csv()

    def test_csv_layout(self):
        text = sample_table().to_csv()
        assert text.startswith("# title: Demo table\n")
        assert "# config: deadbeef01" in text
        assert "# note: one footnote" in text
        assert "row,column,value,significant,p_value,population" in text


class TestMarkdown:
    def test_significant_cells_bold(self):
        md = sample_table().to_markdown()
        assert "**0.5**" in md
        assert "**0.125**" not in md

    def test_structure(self):
        md = sample_table().to_markdown()
        assert md.startswith("## Demo table")
        assert "| | a | b |" in md
        assert "*one footnote*" in md

    def test_empty_cells_render_blank(self):
        md = sample_table().to_markdown()
        assert "| second | 0.3333 |  |" in md
