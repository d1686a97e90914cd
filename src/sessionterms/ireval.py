"""Graded-relevance ranking metrics (NDCG@10, NERR@10, MAP) and their
per-scenario and per-position evaluation over adjacent query pairs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .report import ReportTable
from .scenarios import ADDED, EVAL_SCENARIOS, REMOVED, RETAINED
from .stattests import wilcoxon_signed_rank

DEFAULT_CUTOFF = 10
MAX_GRADE = 4

METRICS = ["NDCG", "NERR", "MAP"]


def _dcg(grades, k):
    return sum(
        (2 ** g - 1) / np.log2(r + 1)
        for r, g in enumerate(grades[:k], start=1)
    )


def ndcg_at_k(grades, ideal_pool, k: int = DEFAULT_CUTOFF) -> float:
    """Normalized DCG with gain 2^g - 1 and log2(rank + 1) discount.

    The ideal DCG comes from the full judged pool sorted descending;
    0.0 when the ideal DCG is zero.
    """
    ideal = _dcg(sorted(ideal_pool, reverse=True), k)
    if ideal == 0:
        return 0.0
    return float(_dcg(grades, k) / ideal)


def _err(grades, k):
    err = 0.0
    not_stopped = 1.0
    for r, g in enumerate(grades[:k], start=1):
        stop = (2 ** g - 1) / 2 ** MAX_GRADE
        err += not_stopped * stop / r
        not_stopped *= 1.0 - stop
    return err


def nerr_at_k(grades, ideal_pool, k: int = DEFAULT_CUTOFF) -> float:
    """Expected Reciprocal Rank normalized by the ideal ranking's ERR."""
    ideal = _err(sorted(ideal_pool, reverse=True), k)
    if ideal == 0:
        return 0.0
    return float(_err(grades, k) / ideal)


def average_precision(grades, topic_relevant_count: int) -> float:
    """AP over the full ranking; relevance is grade > 0."""
    if topic_relevant_count <= 0:
        return 0.0
    hits = 0
    total = 0.0
    for r, g in enumerate(grades, start=1):
        if g > 0:
            hits += 1
            total += hits / r
    return total / topic_relevant_count


def impression_grades(impression, topic_id, qrels):
    """Graded relevance of an impression's ranking via qrels."""
    return [qrels.grade(topic_id, r.docid) for r in impression.results]


def impression_metrics(impression, topic_id, qrels, cutoff: int = DEFAULT_CUTOFF):
    """(NDCG@k, NERR@k, MAP) of one impression's ranking."""
    grades = impression_grades(impression, topic_id, qrels)
    pool = qrels.topic_pool(topic_id)
    return (
        ndcg_at_k(grades, pool, cutoff),
        nerr_at_k(grades, pool, cutoff),
        average_precision(grades, qrels.topic_relevant_count(topic_id)),
    )


def _require_qrels(corpus, caller):
    if corpus.qrels is None:
        raise ValueError(f"{caller} requires relevance judgments")
    return corpus.qrels


def metrics_by_position(corpus, cutoff: int = DEFAULT_CUTOFF):
    """Macro-averaged metrics per impression position, test queries
    excluded; returns [(position, mean_ndcg, mean_nerr, mean_map, count)]."""
    qrels = _require_qrels(corpus, "metrics_by_position")
    grouped = {}
    for session in corpus.sessions:
        if session.topic_id is None:
            continue
        for imp in session.impressions:
            if imp.is_test_query:
                continue
            grouped.setdefault(imp.position, []).append(
                impression_metrics(imp, session.topic_id, qrels, cutoff)
            )
    series = []
    for pos in sorted(grouped):
        arr = np.asarray(grouped[pos], dtype=float)
        series.append((pos, *map(float, arr.mean(axis=0)), arr.shape[0]))
    return series


@dataclass(frozen=True)
class MetricDelta:
    metric: str
    value_n: float
    value_n1: float

    @property
    def delta(self):
        return self.value_n1 - self.value_n


def pair_metric_deltas(pair, corpus, qrels, cutoff: int = DEFAULT_CUTOFF):
    """MetricDeltas between the two impressions of a pair, or None when
    either side lacks a ranking or the session lacks a topic."""
    session = corpus.session_by_id(pair.session_id)
    if session.topic_id is None:
        return None
    imp_n = session.impressions[pair.position - 1]
    imp_n1 = session.impressions[pair.position]
    if not imp_n.results or not imp_n1.results:
        return None
    values_n = impression_metrics(imp_n, session.topic_id, qrels, cutoff)
    values_n1 = impression_metrics(imp_n1, session.topic_id, qrels, cutoff)
    return {
        metric: MetricDelta(metric, vn, vn1)
        for metric, vn, vn1 in zip(METRICS, values_n, values_n1)
    }


def scenario_metric_eval(records, corpus, cutoff: int = DEFAULT_CUTOFF,
                         alpha: float = 0.05) -> ReportTable:
    """Mean metric change from q_n to q_{n+1} per term action and
    scenario, with Wilcoxon signed-rank significance at p < alpha."""
    qrels = _require_qrels(corpus, "scenario_metric_eval")
    delta_cache = {}
    grouped = {}
    for rec in records:
        if rec.scenario not in EVAL_SCENARIOS:
            continue
        # A record names its pair by (session_id, position), as a QueryPair does.
        key = (rec.session_id, rec.position)
        if key not in delta_cache:
            delta_cache[key] = pair_metric_deltas(rec, corpus, qrels, cutoff)
        deltas = delta_cache[key]
        if deltas is None:
            continue
        grouped.setdefault((rec.action, rec.scenario), []).append(deltas)

    columns = [str(s) for s in EVAL_SCENARIOS]
    table = ReportTable(title="Metric change by term action and scenario", columns=columns)
    for action in (RETAINED, REMOVED, ADDED):
        for metric in METRICS:
            row = f"{action}/{metric}"
            for scenario in EVAL_SCENARIOS:
                cell = grouped.get((action, scenario))
                if not cell:
                    continue
                values = [d[metric].delta for d in cell]
                mean = float(np.mean(values))
                nonzero = [v for v in values if v != 0.0]
                if len(nonzero) < 2:
                    table.set(row, str(scenario), mean, population=len(values))
                    continue
                result = wilcoxon_signed_rank(values)
                table.set(
                    row,
                    str(scenario),
                    mean,
                    significant=result.p_value is not None and result.p_value < alpha,
                    p_value=result.p_value,
                    population=len(values),
                )
    return table


def metrics_csv(corpus, cutoff: int = DEFAULT_CUTOFF) -> str:
    """Per-impression metric dump (session, position, metric, value)."""
    qrels = _require_qrels(corpus, "metrics_csv")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["session", "position", "metric", "value"])
    for session in corpus.sessions:
        if session.topic_id is None:
            continue
        for imp in session.impressions:
            if imp.is_test_query:
                continue
            values = impression_metrics(imp, session.topic_id, qrels, cutoff)
            for metric, value in zip(METRICS, values):
                writer.writerow([session.id, imp.position, metric, repr(value)])
    return out.getvalue()
