"""Output checks on one pipeline's report directory.

Reports are read with the standard csv module, not with the package's
own reader, so a defect in `ReportTable.from_csv` cannot hide one in the
writer.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

# analysis -> report files it must write (default --format both)
EXPECTED_FILES = {
    "pairs": ["pair_summary.csv", "pair_summary.md"],
    "positions": ["query_length_by_position.csv", "similarity_by_position.csv",
                  "fixed_query_similarity.csv"],
    "sources": ["rank_prefix.csv", "rank_prefix.md", "last_click.csv", "last_click.md",
                "source_comparison.csv", "source_comparison.md", "dwell_thresholds.csv"],
    "scenarios": ["scenario_distribution.csv", "scenario_distribution.md",
                  "retention_by_scenario.csv", "click_outcomes.csv", "click_outcomes.md",
                  "scenario_records.csv"],
    "metrics": ["scenario_metric_eval.csv", "scenario_metric_eval.md",
                "metrics_by_position.csv", "impression_metrics.csv"],
}
TABLE_HEADER = ["row", "column", "value", "significant", "p_value", "population"]

# Oracle tolerance: an observed mean or share may differ from the
# closed-form expectation by this many standard errors.
TOLERANCE_SE = 5.0


class Table:
    """A report table CSV: cells keyed by (row, column), plus notes."""

    def __init__(self, path):
        self.notes, self.cells = [], {}
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        data = []
        for line in lines:
            if line.startswith("# note: "):
                self.notes.append(line[len("# note: "):])
            elif not line.startswith("#"):
                data.append(line)
        rows = list(csv.reader(data))
        if not rows or rows[0] != TABLE_HEADER:
            raise ValueError(f"{path}: bad table header")
        for row, col, value, sig, p_value, population in rows[1:]:
            if sig not in ("0", "1"):
                raise ValueError(f"{path}: bad significance flag {sig!r}")
            if p_value:
                float(p_value)
            self.cells[(row, col)] = (float(value), int(population) if population else None)

    def value(self, row, col):
        return self.cells[(row, col)][0]

    def population(self, row, col):
        return self.cells[(row, col)][1]


def read_series(path):
    """A figure series CSV: header plus numeric rows of equal width."""
    with open(path, encoding="utf-8") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: row width {len(row)} != {len(header)}")
        for cell in row:
            float(cell)
    return header, body


def read_records(path):
    with open(path, encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_files(reports) -> list:
    """Every expected report exists and parses; returns error strings."""
    errors = []
    for analysis, names in EXPECTED_FILES.items():
        for name in names:
            path = os.path.join(reports, name)
            try:
                if name.endswith(".md"):
                    with open(path, encoding="utf-8") as f:
                        if not f.read().startswith("## "):
                            raise ValueError(f"{path}: not a markdown table")
                elif name in ("scenario_records.csv", "impression_metrics.csv"):
                    if not read_records(path):
                        raise ValueError(f"{path}: no records")
                elif name in ("pair_summary.csv", "rank_prefix.csv", "last_click.csv",
                              "source_comparison.csv", "scenario_distribution.csv",
                              "click_outcomes.csv", "scenario_metric_eval.csv"):
                    Table(path)
                else:
                    read_series(path)
            except (OSError, ValueError, IndexError) as exc:
                errors.append(f"{analysis}: {exc}")
    return errors


def record_counts(reports):
    """(query-term records, added-term records) from the distribution note."""
    for note in Table(os.path.join(reports, "scenario_distribution.csv")).notes:
        if note.startswith("query-term records: "):
            query, added = note.split("; ")
            return int(query.split(": ")[1]), int(added.split(": ")[1])
    raise ValueError("scenario_distribution.csv: no record-count note")


def check_oracle(inputs, reports) -> list:
    """Compare the reports with what the generator knows.

    Every workload: the pair population and the query-term and
    added-term record counts equal the generator's. Synthetic workloads:
    pair_summary's retained/removed/added means and the added-term
    scenario shares also lie within TOLERANCE_SE standard errors of
    `expected_statistics`.
    """
    errors = []
    summary = Table(os.path.join(reports, "pair_summary.csv"))
    label = sorted({col for _, col in summary.cells})[0]
    n = summary.population("retained", label)
    if n != inputs.pairs:
        errors.append(f"pair population {n} != generated pairs {inputs.pairs}")
    query_records, added_records = record_counts(reports)
    if (query_records, added_records) != (inputs.query_records, inputs.added_records):
        errors.append(f"scenario records {query_records}/{added_records} != generated "
                      f"{inputs.query_records}/{inputs.added_records}")
    if inputs.spec is None:
        return errors

    from sessionterms.synthgen import expected_statistics

    expected = expected_statistics(inputs.spec)
    for name in ("retained", "removed", "added"):
        se = math.sqrt(expected[f"var_{name}"] / n)
        observed = summary.value(name, label)
        if abs(observed - expected[f"mean_{name}"]) > TOLERANCE_SE * se:
            errors.append(f"mean {name} {observed:.4f} vs expected "
                          f"{expected[f'mean_{name}']:.4f} (SE {se:.4f})")
    dist = Table(os.path.join(reports, "scenario_distribution.csv"))
    for scenario, p in expected["added_scenario_distribution"].items():
        cell = dist.cells.get((str(scenario), "added_pct"))
        share = cell[0] / 100.0 if cell else 0.0
        se = math.sqrt(p * (1 - p) / added_records)
        if abs(share - p) > TOLERANCE_SE * se:
            errors.append(f"added scenario {scenario} share {share:.4f} vs expected {p:.4f}")
    return errors


def digest(reports) -> str:
    """sha256 over every report file name and its bytes."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(reports)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(reports, name), "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()
