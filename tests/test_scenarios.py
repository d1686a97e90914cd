import itertools

import pytest

from sessionterms.actions import extract_pairs
from sessionterms.scenarios import (
    ADDED,
    ADDED_TERM,
    EVAL_SCENARIOS,
    QUERY_TERM,
    REMOVED,
    RETAINED,
    assign_scenarios,
    click_outcome_eval,
    records_to_csv,
    retention_by_scenario,
    scenario_distribution,
    scenario_index,
    scenario_membership,
)
from sessionterms.sources import EMPTY
from sessionterms.synthgen import GeneratorSpec, generate

from conftest import make_corpus, make_impression


class TestIndexing:
    def test_bijection_exhaustive(self):
        seen = set()
        for bits in itertools.product([False, True], repeat=3):
            idx = scenario_index(*bits)
            assert 1 <= idx <= 8
            assert scenario_membership(idx) == bits
            seen.add(idx)
        assert seen == set(range(1, 9))

    def test_reference_corners(self):
        assert scenario_index(False, False, False) == 1
        assert scenario_index(False, False, True) == 2
        assert scenario_index(True, False, False) == 5
        assert scenario_index(True, True, True) == 8

    def test_eval_scenarios_exclude_3_and_7(self):
        assert set(EVAL_SCENARIOS) == set(range(1, 9)) - {3, 7}


@pytest.fixture
def membership_corpus(plain_config):
    """Qn = {a, b}; clicked snippet "a y", non-clicked snippet "a b x",
    clicked doc "a b x z"; Qn+1 = {a, z}."""
    imp1 = make_impression(
        1, "a b", plain_config,
        snippets=["a b x", "a y"], clicks=[(2, 0, 20)],
    )
    imp2 = make_impression(2, "a z", plain_config, snippets=["w"], clicks=[(1, 5, 9)])
    docstore = {"doc-1-2": "a b x z", "doc-1-1": "irrelevant"}
    return make_corpus([("m", None, [imp1, imp2])], plain_config, docstore=docstore)


class TestAssignScenarios:
    def test_membership_fixture(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        by_term = {(r.term, r.origin): r for r in records}
        # "a": in ncs, in cs, in cd -> scenario 8, retained
        a = by_term[("a", QUERY_TERM)]
        assert (a.in_ncs, a.in_cs, a.in_cd) == (True, True, True)
        assert a.scenario == 8 and a.action == RETAINED
        # "b": in ncs, not cs, in cd -> scenario 6, removed
        b = by_term[("b", QUERY_TERM)]
        assert (b.in_ncs, b.in_cs, b.in_cd) == (True, False, True)
        assert b.scenario == 6 and b.action == REMOVED
        # "z": only in the clicked document -> scenario 2, added
        z = by_term[("z", ADDED_TERM)]
        assert (z.in_ncs, z.in_cs, z.in_cd) == (False, False, True)
        assert z.scenario == 2 and z.action == ADDED

    def test_record_counts_per_pair(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        # |Qn| query-term records plus |added| added-term records
        assert sum(1 for r in records if r.origin == QUERY_TERM) == 2
        assert sum(1 for r in records if r.origin == ADDED_TERM) == 1

    def test_successor_click_outcome_recorded(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        assert all(r.next_impression_clicked for r in records)

    def test_no_clicks_limits_to_scenarios_1_and_5(self, plain_config):
        imp1 = make_impression(1, "a b", plain_config, snippets=["a x", "y"])
        imp2 = make_impression(2, "a c", plain_config, snippets=["w"])
        corpus = make_corpus([("n", None, [imp1, imp2])], plain_config)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        assert {r.scenario for r in records} <= {1, 5}
        # With a docstore, a clickless impression misses no clicked
        # document, so `drop` keeps its records.
        with_docs = make_corpus([("n", None, [imp1, imp2])], plain_config,
                                docstore={"other": "x"})
        assert assign_scenarios(extract_pairs(with_docs), with_docs) == records

    def test_test_query_pairs_rejected(self, plain_config):
        imp1 = make_impression(1, "a", plain_config, snippets=["s"])
        imp2 = make_impression(2, "a b", plain_config)  # test query
        corpus = make_corpus([("t", None, [imp1, imp2])], plain_config)
        with pytest.raises(ValueError):
            assign_scenarios(extract_pairs(corpus), corpus)

    def test_drop_policy_skips_pairs_missing_clicked_docs(self, plain_config):
        imp1 = make_impression(1, "a", plain_config, snippets=["s"], clicks=[(1, 0, 5)])
        imp2 = make_impression(2, "a b", plain_config, snippets=["s"])
        corpus = make_corpus(
            [("d", None, [imp1, imp2])], plain_config, docstore={"other": "x"}
        )
        assert assign_scenarios(extract_pairs(corpus, False), corpus) == []

    def test_empty_policy_keeps_pairs_with_cd_flag(self, plain_config):
        imp1 = make_impression(1, "a", plain_config, snippets=["s"], clicks=[(1, 0, 5)])
        imp2 = make_impression(2, "a b", plain_config, snippets=["s"])
        corpus = make_corpus(
            [("d", None, [imp1, imp2])], plain_config, docstore={"other": "x"}
        )
        records = assign_scenarios(extract_pairs(corpus, False), corpus,
                                   docstore_policy=EMPTY)
        assert records
        assert all(not r.in_cd for r in records)

    def test_no_docstore_keeps_clicked_pairs(self, plain_config):
        imp1 = make_impression(1, "a", plain_config, snippets=["s"], clicks=[(1, 0, 5)])
        imp2 = make_impression(2, "a b", plain_config, snippets=["s"])
        corpus = make_corpus([("d", None, [imp1, imp2])], plain_config)
        records = assign_scenarios(extract_pairs(corpus, False), corpus)
        assert records
        assert all(not r.in_cd for r in records)


@pytest.fixture(scope="module")
def synth_records():
    spec = GeneratorSpec(seed=41, sessions=120, session_length=4, p_keep=0.5,
                         p_ncs=0.5, p_cs=0.4, p_cd=0.6,
                         force_click=True, click_prob=0.3)
    corpus = generate(spec)
    return assign_scenarios(extract_pairs(corpus), corpus), corpus


class TestDistribution:
    def test_percentages_sum_to_100(self, synth_records):
        records, _ = synth_records
        table = scenario_distribution(records)
        for col in ("query_pct", "added_pct"):
            total = sum(
                table.value(str(s), col)
                for s in range(1, 9)
                if table.get(str(s), col) is not None
            )
            assert total == pytest.approx(100.0)

    def test_query_terms_concentrate_in_scenario_1(self, synth_records):
        # generated query vocabulary never appears in snippets/documents
        records, _ = synth_records
        table = scenario_distribution(records)
        assert table.value("1", "query_pct") == pytest.approx(100.0)

    def test_added_distribution_matches_planted_probabilities(self, synth_records):
        records, _ = synth_records
        added = [r for r in records if r.origin == ADDED_TERM]
        n = len(added)
        assert n > 500
        # planted marginals with 4-sigma sampling slack
        for flag, p in (("in_ncs", 0.5), ("in_cs", 0.4), ("in_cd", 0.6)):
            observed = sum(1 for r in added if getattr(r, flag)) / n
            sigma = (p * (1 - p) / n) ** 0.5
            assert abs(observed - p) < 4 * sigma

    def test_footnote_reports_record_counts(self, synth_records):
        records, _ = synth_records
        table = scenario_distribution(records)
        assert any("query-term records" in note for note in table.footnotes)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            scenario_distribution([])


class TestRetentionAndOutcome:
    def test_retention_fixture(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        series = dict((s, (ret, rem)) for s, ret, rem in retention_by_scenario(records))
        assert series[8] == (1.0, 0.0)  # "a" retained
        assert series[6] == (0.0, 1.0)  # "b" removed

    def test_retention_fractions_complementary(self):
        spec = GeneratorSpec(seed=8, sessions=50, session_length=4,
                             p_ncs=0.4, click_prob=0.4)
        corpus = generate(spec)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        for _, retained, removed in retention_by_scenario(records):
            assert retained + removed == pytest.approx(1.0)
            assert 0.0 <= retained <= 1.0

    def test_click_outcome_table(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        table = click_outcome_eval(records)
        assert table.value("8", RETAINED) == 100.0
        assert table.value("6", REMOVED) == 100.0
        assert table.value("2", ADDED) == 100.0
        assert table.get("8", RETAINED).population == 1

    def test_click_outcome_skips_excluded_scenarios(self):
        spec = GeneratorSpec(seed=16, sessions=60, session_length=4,
                             p_ncs=0.5, p_cs=0.5, p_cd=0.5,
                             force_click=True, click_prob=0.3)
        corpus = generate(spec)
        records = assign_scenarios(extract_pairs(corpus), corpus)
        table = click_outcome_eval(records)
        assert "3" not in table.rows and "7" not in table.rows


class TestCsvExport:
    def test_round_trippable_shape(self, membership_corpus):
        records = assign_scenarios(extract_pairs(membership_corpus), membership_corpus)
        lines = records_to_csv(records).strip().split("\n")
        assert lines[0].startswith("term,session,position,origin")
        assert len(lines) == 1 + len(records)
        assert "a,m,1,query-term,1,1,1,8,retained,1" in lines
