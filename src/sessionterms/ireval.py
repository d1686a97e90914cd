"""Graded-relevance ranking metrics (NDCG@10, NERR@10, MAP) and their
per-scenario and per-position evaluation over adjacent query pairs.

`score_impressions` scores each impression once; the three metric
tables only aggregate its dict.
"""

from __future__ import annotations

import csv
import io
import math

from .report import ReportTable
from .scenarios import ADDED, EVAL_SCENARIOS, REMOVED, RETAINED
from .stattests import column_means, pairwise_mean, wilcoxon_signed_rank

DEFAULT_CUTOFF = 10
MAX_GRADE = 4

METRICS = ["NDCG", "NERR", "MAP"]

ALPHA = 0.05  # Wilcoxon signed-rank significance level of the metric changes


def _dcg(grades, k):
    total = 0.0
    for r, g in enumerate(grades[:k], start=1):
        total += (2 ** g - 1) / math.log2(r + 1)
    return total


def _normalized(gain, grades, ideal_pool, k):
    """`gain(grades, k)` over the gain of the ideal ranking, the full
    judged pool sorted descending; 0.0 when the ideal gain is zero."""
    ideal = gain(sorted(ideal_pool, reverse=True), k)
    if ideal == 0:
        return 0.0
    return float(gain(grades, k) / ideal)


def ndcg_at_k(grades, ideal_pool, k: int = DEFAULT_CUTOFF) -> float:
    """Normalized DCG with gain 2^g - 1 and log2(rank + 1) discount."""
    return _normalized(_dcg, grades, ideal_pool, k)


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
    return _normalized(_err, grades, ideal_pool, k)


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


def impression_metrics(impression, topic_id, qrels, cutoff: int = DEFAULT_CUTOFF):
    """(NDCG@k, NERR@k, MAP) of one impression's ranking, graded by qrels."""
    grades = [qrels.grade(topic_id, r.docid) for r in impression.results]
    pool = qrels.topic_pool(topic_id)
    return (
        ndcg_at_k(grades, pool, cutoff),
        nerr_at_k(grades, pool, cutoff),
        average_precision(grades, qrels.topic_relevant_count(topic_id)),
    )


def score_impressions(corpus, cutoff: int = DEFAULT_CUTOFF):
    """{(session id, position): impression_metrics} of every non-test
    impression of every session with a topic, in corpus order."""
    qrels = corpus.qrels
    if qrels is None:
        raise ValueError("score_impressions requires relevance judgments")
    return {
        (session.id, imp.position): impression_metrics(imp, session.topic_id, qrels, cutoff)
        for session in corpus.sessions if session.topic_id is not None
        for imp in session.impressions if not imp.is_test_query
    }


def metrics_by_position(metrics):
    """Macro-averaged `score_impressions` metrics per impression position;
    returns [(position, mean_ndcg, mean_nerr, mean_map, count)]."""
    grouped = {}
    for (_, position), values in metrics.items():
        grouped.setdefault(position, []).append(values)
    series = []
    for pos in sorted(grouped):
        rows = grouped[pos]
        series.append((pos, *column_means(rows), len(rows)))
    return series


def scenario_metric_eval(records, metrics) -> ReportTable:
    """Mean metric change from q_n to q_{n+1} per term action and
    scenario, with Wilcoxon signed-rank significance at p < ALPHA.
    A record counts only when `metrics` (from `score_impressions`) holds
    both impressions of its pair: its session has a topic and both
    rankings are non-empty."""
    grouped = {}
    for rec in records:
        if rec.scenario not in EVAL_SCENARIOS:
            continue
        before = metrics.get((rec.session_id, rec.position))
        after = metrics.get((rec.session_id, rec.position + 1))
        if before is None or after is None:
            continue
        grouped.setdefault((rec.action, rec.scenario), []).append(
            [a - b for a, b in zip(after, before)]
        )

    columns = [str(s) for s in EVAL_SCENARIOS]
    table = ReportTable(title="Metric change by term action and scenario", columns=columns)
    for action in (RETAINED, REMOVED, ADDED):
        for i, metric in enumerate(METRICS):
            row = f"{action}/{metric}"
            for scenario in EVAL_SCENARIOS:
                cell = grouped.get((action, scenario))
                if not cell:
                    continue
                values = [deltas[i] for deltas in cell]
                mean = pairwise_mean(values)
                nonzero = [v for v in values if v != 0.0]
                if len(nonzero) < 2:
                    table.set(row, str(scenario), mean, population=len(values))
                    continue
                result = wilcoxon_signed_rank(values)
                table.set(
                    row,
                    str(scenario),
                    mean,
                    significant=result.p_value is not None and result.p_value < ALPHA,
                    p_value=result.p_value,
                    population=len(values),
                )
    return table


def metrics_csv(metrics) -> str:
    """Per-impression metric dump (session, position, metric, value)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["session", "position", "metric", "value"])
    for (session_id, position), values in metrics.items():
        for metric, value in zip(METRICS, values):
            writer.writerow([session_id, position, metric, repr(value)])
    return out.getvalue()
