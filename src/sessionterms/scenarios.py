"""Behavior scenarios: every query term and added term of a pair is
classified by its membership in the three click-differentiated term
sources (non-clicked snippets, clicked snippets, clicked documents),
giving 8 scenarios, then evaluated against the next impression's clicks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .report import ReportTable
from .sources import DROP, SourceKind, extract_source, predecessor_impression

QUERY_TERM = "query-term"
ADDED_TERM = "added-term"

RETAINED = "retained"
REMOVED = "removed"
ADDED = "added"

# Scenarios 3 and 7 (clicked snippet without clicked document) are
# structurally rare and excluded from the outcome evaluations.
EVAL_SCENARIOS = (1, 2, 4, 5, 6, 8)


def scenario_index(in_ncs: bool, in_cs: bool, in_cd: bool) -> int:
    """Binary encoding of the membership triple onto 1..8 (ncs high bit)."""
    return 1 + 4 * int(in_ncs) + 2 * int(in_cs) + int(in_cd)


def scenario_membership(scenario: int):
    """Inverse of scenario_index."""
    bits = scenario - 1
    return bool(bits & 4), bool(bits & 2), bool(bits & 1)


@dataclass(frozen=True)
class ScenarioRecord:
    term: str
    session_id: str
    position: int  # n of the pair's earlier query
    origin: str  # QUERY_TERM or ADDED_TERM
    in_ncs: bool
    in_cs: bool
    in_cd: bool
    action: str
    next_impression_clicked: bool
    ranked_documents: int  # M of the owning (earlier) impression
    click_count: int
    cd_available: bool = True

    @property
    def scenario(self):
        return scenario_index(self.in_ncs, self.in_cs, self.in_cd)


def assign_scenarios(pairs, corpus, docstore_policy: str = DROP):
    """One ScenarioRecord per query term and per added term of each pair.

    Membership is tested against the predecessor impression's source
    term sets. Pairs whose later query is a test query are rejected.
    With policy `drop`, pairs missing clicked-document text are skipped;
    with `empty`, clicked-document membership is false and flagged.
    """
    records = []
    for pair in pairs:
        if pair.involves_test_query:
            raise ValueError("scenario assignment requires pairs without test queries")
        imp = predecessor_impression(corpus, pair)
        successor = corpus.session_by_id(pair.session_id).impressions[pair.position]
        ncs_terms = set()
        cs_terms = set()
        for bag in extract_source(imp, SourceKind.NON_CLICKED_SNIPPETS, corpus).instances:
            ncs_terms |= bag.terms
        for bag in extract_source(imp, SourceKind.CLICKED_SNIPPETS, corpus).instances:
            cs_terms |= bag.terms
        cd_terms = set()
        cd_available = True
        if imp.clicked_ranks:
            if corpus.docstore:
                view = extract_source(imp, SourceKind.CLICKED_DOCUMENTS, corpus)
                if not view.complete:
                    if docstore_policy == DROP:
                        continue
                    cd_available = False
                for bag in view.instances:
                    cd_terms |= bag.terms
            else:
                # no docstore at all: snippet-only run, cd bit unavailable
                cd_available = False
        clicked_next = bool(successor.clicks)
        m = len(imp.results)
        n_clicks = len(imp.clicks)

        def record(term, origin, action):
            return ScenarioRecord(
                term=term,
                session_id=pair.session_id,
                position=pair.position,
                origin=origin,
                in_ncs=term in ncs_terms,
                in_cs=term in cs_terms,
                in_cd=term in cd_terms,
                action=action,
                next_impression_clicked=clicked_next,
                ranked_documents=m,
                click_count=n_clicks,
                cd_available=cd_available,
            )

        for term in sorted(pair.qn):
            action = RETAINED if term in pair.qn1 else REMOVED
            records.append(record(term, QUERY_TERM, action))
        for term in sorted(pair.added):
            records.append(record(term, ADDED_TERM, ADDED))
    return records


def scenario_distribution(records) -> ReportTable:
    """Occurrence percentage, mean ranked documents and mean clicks per
    scenario, split by query-term and added-term origin."""
    if not records:
        raise ValueError("scenario_distribution requires at least one record")
    columns = [
        "query_pct", "query_docs", "query_clicks",
        "added_pct", "added_docs", "added_clicks",
    ]
    table = ReportTable(title="Scenario distribution", columns=columns)
    by_origin = {QUERY_TERM: [], ADDED_TERM: []}
    for rec in records:
        by_origin[rec.origin].append(rec)
    for scenario in range(1, 9):
        for origin, prefix in ((QUERY_TERM, "query"), (ADDED_TERM, "added")):
            pool = by_origin[origin]
            subset = [r for r in pool if r.scenario == scenario]
            if not pool:
                continue
            table.set(
                str(scenario),
                f"{prefix}_pct",
                100.0 * len(subset) / len(pool),
                population=len(subset),
            )
            if subset:
                table.set(
                    str(scenario), f"{prefix}_docs",
                    float(np.mean([r.ranked_documents for r in subset])),
                    population=len(subset),
                )
                table.set(
                    str(scenario), f"{prefix}_clicks",
                    float(np.mean([r.click_count for r in subset])),
                    population=len(subset),
                )
    table.footnotes.append(
        f"query-term records: {len(by_origin[QUERY_TERM])}; "
        f"added-term records: {len(by_origin[ADDED_TERM])}"
    )
    return table


def retention_by_scenario(records):
    """[(scenario, fraction retained, fraction removed)] over query-term
    records; scenarios with no records are omitted."""
    grouped = {}
    for rec in records:
        if rec.origin != QUERY_TERM:
            continue
        grouped.setdefault(rec.scenario, []).append(rec)
    series = []
    for scenario in sorted(grouped):
        recs = grouped[scenario]
        retained = sum(1 for r in recs if r.action == RETAINED) / len(recs)
        series.append((scenario, retained, 1.0 - retained))
    return series


def click_outcome_eval(records) -> ReportTable:
    """Percentage of records whose successor impression contains a click,
    per evaluated scenario and term action."""
    columns = [RETAINED, REMOVED, ADDED]
    table = ReportTable(title="Click rate in the next impression", columns=columns)
    grouped = {}
    for rec in records:
        if rec.scenario not in EVAL_SCENARIOS:
            continue
        grouped.setdefault((rec.scenario, rec.action), []).append(rec)
    for scenario in EVAL_SCENARIOS:
        for action in columns:
            recs = grouped.get((scenario, action))
            if not recs:
                continue
            pct = 100.0 * sum(1 for r in recs if r.next_impression_clicked) / len(recs)
            table.set(str(scenario), action, pct, population=len(recs))
    return table


def records_to_csv(records) -> str:
    """Export records for downstream study."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([
        "term", "session", "position", "origin", "ncs", "cs", "cd",
        "scenario", "action", "clicked_next",
    ])
    for rec in records:
        writer.writerow([
            rec.term, rec.session_id, rec.position, rec.origin,
            int(rec.in_ncs), int(rec.in_cs), int(rec.in_cd),
            rec.scenario, rec.action, int(rec.next_impression_clicked),
        ])
    return out.getvalue()
