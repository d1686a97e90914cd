import itertools
import math
import random
from dataclasses import replace

import pytest

from sessionterms.actions import extract_pairs
from sessionterms.corpus import RelevanceJudgments
from sessionterms.ireval import (
    METRICS,
    average_precision,
    impression_metrics,
    metrics_by_position,
    metrics_csv,
    ndcg_at_k,
    nerr_at_k,
    pair_metric_deltas,
    scenario_metric_eval,
)
from sessionterms.scenarios import ADDED, assign_scenarios

from conftest import make_corpus, make_impression


class TestNdcg:
    def test_hand_derived_value(self):
        # DCG = 1/log2(3), ideal = 1 -> 0.6309...
        assert ndcg_at_k([0, 1], [1]) == pytest.approx(1 / math.log2(3))

    def test_ideal_ranking_scores_one(self):
        assert ndcg_at_k([4, 3, 2], [4, 3, 2]) == pytest.approx(1.0)

    def test_ideal_uses_full_judged_pool(self):
        # a perfect-within-the-ranking list is still penalized when the
        # pool holds better documents that were never retrieved
        assert ndcg_at_k([2, 1], [4, 2, 1]) < 1.0

    def test_zero_ideal_is_zero(self):
        assert ndcg_at_k([0, 0], [0, 0]) == 0.0
        assert ndcg_at_k([0], []) == 0.0

    def test_cutoff_truncates(self):
        assert ndcg_at_k([0, 0, 0, 4], [4], k=3) == 0.0
        assert ndcg_at_k([0, 0, 0, 4], [4], k=4) > 0.0

    def test_no_permutation_beats_descending_order(self):
        rng = random.Random(6)
        for _ in range(30):
            grades = [rng.randint(0, 4) for _ in range(5)]
            best = max(
                ndcg_at_k(list(p), grades) for p in itertools.permutations(grades)
            )
            assert best == pytest.approx(ndcg_at_k(sorted(grades, reverse=True), grades))
            assert best == pytest.approx(1.0) or sum(grades) == 0


class TestNerr:
    def test_hand_derived_value(self):
        # single grade-4 doc at rank 2: ERR = (15/16)/2, ideal = 15/16
        assert nerr_at_k([0, 4], [4]) == pytest.approx(0.5)

    def test_ideal_ranking_scores_one(self):
        assert nerr_at_k([4, 2, 1], [4, 2, 1]) == pytest.approx(1.0)

    def test_matches_stop_probability_enumeration(self):
        # independent oracle: expected reciprocal rank by enumerating
        # every stopping position
        rng = random.Random(14)
        for _ in range(50):
            grades = [rng.randint(0, 4) for _ in range(6)]
            err = 0.0
            survive = 1.0
            for r, g in enumerate(grades, start=1):
                stop = (2 ** g - 1) / 16
                err += survive * stop / r
                survive *= 1 - stop
            pool = sorted(grades, reverse=True)
            ideal = 0.0
            survive = 1.0
            for r, g in enumerate(pool, start=1):
                stop = (2 ** g - 1) / 16
                ideal += survive * stop / r
                survive *= 1 - stop
            if ideal == 0:
                assert nerr_at_k(grades, grades) == 0.0
            else:
                assert nerr_at_k(grades, grades) == pytest.approx(err / ideal)

    def test_early_relevance_beats_late(self):
        assert nerr_at_k([4, 0, 0], [4]) > nerr_at_k([0, 0, 4], [4])


class TestAveragePrecision:
    def test_hand_derived_value(self):
        # hits at ranks 1 and 3, two relevant documents in the pool
        assert average_precision([1, 0, 1], 2) == pytest.approx(5 / 6)

    def test_unretrieved_relevant_docs_lower_ap(self):
        assert average_precision([1, 0, 1], 4) == pytest.approx(5 / 12)

    def test_no_relevant_pool_is_zero(self):
        assert average_precision([0, 0], 0) == 0.0

    def test_graded_relevance_binarized(self):
        assert average_precision([3, 0], 1) == average_precision([1, 0], 1)

    def test_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(50):
            grades = [rng.randint(0, 2) for _ in range(6)]
            rel = sum(1 for g in grades if g > 0) + rng.randint(0, 2)
            if rel == 0:
                continue
            expected = (
                sum(
                    sum(1 for g in grades[:r] if g > 0) / r
                    for r, g in enumerate(grades, start=1)
                    if g > 0
                )
                / rel
            )
            assert average_precision(grades, rel) == pytest.approx(expected)


@pytest.fixture
def eval_corpus(plain_config):
    """Topic T: second query ranks the relevant documents higher."""
    imp1 = make_impression(
        1, "a b", plain_config,
        snippets=["a x c", "y"], docids=["D1", "D2"], clicks=[(1, 0, 5)],
    )
    imp2 = make_impression(
        2, "a c", plain_config, snippets=["z", "w"], docids=["D3", "D4"],
        clicks=[(1, 10, 15)],
    )
    qrels = RelevanceJudgments({("T", "D2"): 2, ("T", "D3"): 2, ("T", "D4"): 1})
    return make_corpus([("e", "T", [imp1, imp2])], plain_config, qrels=qrels)


class TestImpressionMetrics:
    def test_hand_derived_triple(self, eval_corpus):
        imp1 = eval_corpus.sessions[0].impressions[0]
        ndcg, nerr, ap = impression_metrics(imp1, "T", eval_corpus.qrels)
        ideal_dcg = 3 + 3 / math.log2(3) + 1 / 2
        assert ndcg == pytest.approx((3 / math.log2(3)) / ideal_dcg)
        assert ap == pytest.approx((1 / 2) / 3)
        assert 0.0 < nerr < 1.0

    def test_metrics_by_position(self, eval_corpus):
        series = metrics_by_position(eval_corpus)
        assert [s[0] for s in series] == [1, 2]
        pos2 = series[1]
        ideal_dcg = 3 + 3 / math.log2(3) + 1 / 2
        assert pos2[1] == pytest.approx((3 + 1 / math.log2(3)) / ideal_dcg)
        assert pos2[3] == pytest.approx((1 + 1) / 3)
        assert pos2[4] == 1

    def test_metrics_by_position_requires_qrels(self, session40_corpus):
        with pytest.raises(ValueError):
            metrics_by_position(session40_corpus)

    def test_topicless_sessions_excluded(self, eval_corpus, plain_config):
        extra = make_corpus(
            [("no-topic", None, [make_impression(1, "q", plain_config, snippets=["s"])])],
            plain_config,
        )
        from sessionterms.corpus import merge

        combined = replace(merge([eval_corpus, extra]), qrels=eval_corpus.qrels)
        assert metrics_by_position(combined)[0][4] == 1


class TestPairDeltas:
    def test_delta_signs(self, eval_corpus):
        pair = extract_pairs(eval_corpus)[0]
        deltas = pair_metric_deltas(pair, eval_corpus, eval_corpus.qrels)
        assert set(deltas) == set(METRICS)
        for metric in METRICS:
            assert deltas[metric].delta > 0  # second ranking is better

    def test_delta_is_difference(self, eval_corpus):
        pair = extract_pairs(eval_corpus)[0]
        deltas = pair_metric_deltas(pair, eval_corpus, eval_corpus.qrels)
        d = deltas["MAP"]
        assert d.delta == pytest.approx(d.value_n1 - d.value_n)
        assert d.value_n == pytest.approx(1 / 6)
        assert d.value_n1 == pytest.approx(2 / 3)

    def test_topicless_pair_returns_none(self, session40_corpus):
        pair = extract_pairs(session40_corpus)[0]
        assert pair_metric_deltas(pair, session40_corpus, RelevanceJudgments()) is None


def improvement_corpus(plain_config, n_sessions=12):
    """Every session's second query moves the relevant doc to rank 1."""
    sessions = []
    qrels = {}
    for i in range(n_sessions):
        topic = f"T{i}"
        rel, other = f"R{i}", f"O{i}"
        imp1 = make_impression(
            1, "a b", plain_config, snippets=["x c", "y"], docids=[other, rel]
        )
        imp2 = make_impression(
            2, "a c", plain_config, snippets=["z", "w"], docids=[rel, other]
        )
        sessions.append((f"s{i}", topic, [imp1, imp2]))
        qrels[(topic, rel)] = 3
    return make_corpus(
        sessions, plain_config, qrels=RelevanceJudgments(qrels)
    )


class TestScenarioMetricEval:
    def test_uniform_improvement_marked_significant(self, plain_config):
        corpus = improvement_corpus(plain_config)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        # "c" is added and sits in a non-clicked snippet -> scenario 5
        table = scenario_metric_eval(records, corpus)
        cell = table.get(f"{ADDED}/NDCG", "5")
        assert cell.value > 0
        assert cell.significant
        assert cell.p_value == pytest.approx(2 / 2 ** 12)

    def test_insufficient_nonzero_deltas_have_no_p(self, plain_config):
        corpus = improvement_corpus(plain_config, n_sessions=1)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        cell = scenario_metric_eval(records, corpus).get(f"{ADDED}/NDCG", "5")
        assert cell.p_value is None and not cell.significant

    def test_excluded_scenarios_absent(self, plain_config):
        corpus = improvement_corpus(plain_config)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        table = scenario_metric_eval(records, corpus)
        assert "3" not in table.columns and "7" not in table.columns

    def test_requires_qrels(self, session40_corpus):
        with pytest.raises(ValueError):
            scenario_metric_eval([], session40_corpus)


class TestMetricsCsv:
    def test_row_per_impression_metric(self, eval_corpus):
        lines = metrics_csv(eval_corpus).strip().split("\n")
        assert lines[0] == "session,position,metric,value"
        assert len(lines) == 1 + 2 * len(METRICS)
        assert any(line.startswith("e,2,MAP,") for line in lines)
