"""Behavior scenarios: every query term and added term of a pair is
classified by its membership in the three click-differentiated term
sources (non-clicked snippets, clicked snippets, clicked documents),
giving 8 scenarios, then evaluated against the next impression's clicks.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter

from .actions import EmptyInputError
from .report import ReportTable
from .sources import DROP, SourceIndex, clicked_mask
from .stattests import pairwise_mean

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
    scenario: int  # scenario_index(in_ncs, in_cs, in_cd)
    action: str
    next_impression_clicked: bool
    ranked_documents: int  # M of the owning (earlier) impression
    click_count: int


def assign_scenarios(pairs, corpus, docstore_policy: str = DROP):
    """One ScenarioRecord per query term and per added term of each pair.

    Membership is tested against the predecessor impression's source
    term sets. Pairs whose later query is a test query are rejected.
    With policy `drop`, pairs missing clicked-document text are skipped;
    with `empty` they are kept, and a clicked document without text adds
    no term to the clicked-document set. Without a docstore no term is
    `in_cd`. Only clicked documents are normalized, each once per call.
    Each record stores its scenario, worked out once from the three
    memberships.
    """
    index = SourceIndex(corpus)
    records = []
    for pair in pairs:
        if pair.involves_test_query:
            raise ValueError("scenario assignment requires pairs without test queries")
        imp = pair.before
        mask = clicked_mask(imp)
        ncs_terms = set()
        cs_terms = set()
        for r, clicked in zip(imp.results, mask):
            (cs_terms if clicked else ncs_terms).update(r.terms.counts)
        cd_terms = set()
        if corpus.docstore:
            docs = index.clicked_docs(imp)
            if None in docs and docstore_policy == DROP:
                continue
            for bag in docs:
                if bag is not None:
                    cd_terms.update(bag.counts)
        clicked_next = bool(pair.after.clicks)
        m = len(imp.results)
        n_clicks = len(imp.clicks)
        session_id = pair.session_id
        position = pair.position

        def record(term, origin, action):
            in_ncs = term in ncs_terms
            in_cs = term in cs_terms
            in_cd = term in cd_terms
            return ScenarioRecord(
                term=term,
                session_id=session_id,
                position=position,
                origin=origin,
                in_ncs=in_ncs,
                in_cs=in_cs,
                in_cd=in_cd,
                scenario=scenario_index(in_ncs, in_cs, in_cd),
                action=action,
                next_impression_clicked=clicked_next,
                ranked_documents=m,
                click_count=n_clicks,
            )

        qn, qn1 = pair.qn, pair.qn1
        for term in sorted(qn):
            records.append(record(term, QUERY_TERM, RETAINED if term in qn1 else REMOVED))
        for term in sorted(qn1 - qn):
            records.append(record(term, ADDED_TERM, ADDED))
    return records


# The per-record value each mean column of the distribution averages.
_MEAN_COLUMNS = (("docs", attrgetter("ranked_documents")), ("clicks", attrgetter("click_count")))


def scenario_distribution(records) -> ReportTable:
    """Occurrence percentage, mean ranked documents and mean clicks per
    scenario, split by query-term and added-term origin."""
    if not records:
        raise EmptyInputError("scenario_distribution requires at least one record")
    columns = [
        "query_pct", "query_docs", "query_clicks",
        "added_pct", "added_docs", "added_clicks",
    ]
    table = ReportTable(title="Scenario distribution", columns=columns)
    # (origin, scenario) -> its records, in record order, from one pass
    grouped = {}
    totals = {QUERY_TERM: 0, ADDED_TERM: 0}
    for rec in records:
        grouped.setdefault((rec.origin, rec.scenario), []).append(rec)
        totals[rec.origin] += 1
    for scenario in range(1, 9):
        for origin, prefix in ((QUERY_TERM, "query"), (ADDED_TERM, "added")):
            subset = grouped.get((origin, scenario), [])
            if not totals[origin]:
                continue
            table.set(
                str(scenario),
                f"{prefix}_pct",
                100.0 * len(subset) / totals[origin],
                population=len(subset),
            )
            if subset:
                for column, value in _MEAN_COLUMNS:
                    table.set(str(scenario), f"{prefix}_{column}",
                              pairwise_mean(list(map(value, subset))), population=len(subset))
    table.footnotes.append(
        f"query-term records: {totals[QUERY_TERM]}; "
        f"added-term records: {totals[ADDED_TERM]}"
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
