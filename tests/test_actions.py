import math

import pytest

from sessionterms.actions import (
    EmptyInputError,
    extract_pairs,
    fixed_query_similarity,
    length_by_position,
    pair_summary,
    similarity_by_position,
)

from conftest import make_corpus, make_impression


@pytest.fixture
def small_corpus(plain_config):
    imps = [
        make_impression(1, "a b c", plain_config, snippets=["s"]),
        make_impression(2, "a b d", plain_config, snippets=["s"]),
        make_impression(3, "a e", plain_config),  # test query (no results)
    ]
    return make_corpus([("s1", None, imps)], plain_config)


class TestExtractPairs:
    def test_pair_count_per_session(self, session40_corpus):
        assert len(extract_pairs(session40_corpus)) == 5

    def test_positions_and_session_ids(self, small_corpus):
        pairs = extract_pairs(small_corpus)
        assert [(p.session_id, p.position) for p in pairs] == [("s1", 1), ("s1", 2)]

    def test_test_query_flag(self, small_corpus):
        pairs = extract_pairs(small_corpus)
        assert [p.involves_test_query for p in pairs] == [False, True]

    def test_exclude_test_queries(self, small_corpus):
        pairs = extract_pairs(small_corpus, include_test_queries=False)
        assert len(pairs) == 1
        assert not pairs[0].involves_test_query

    def test_single_query_session_yields_no_pairs(self, plain_config):
        corpus = make_corpus(
            [("x", None, [make_impression(1, "q", plain_config, snippets=["s"])])],
            plain_config,
        )
        assert extract_pairs(corpus) == []


class TestTermActions:
    def test_session40_pair(self, session40_corpus):
        # "gun control current affairs" -> "gun violence us"
        pair = extract_pairs(session40_corpus)[3]
        assert pair.retained == {"gun"}
        assert pair.removed == {"control", "current", "affair"}
        assert pair.added == {"violenc", "us"}

    def test_identical_queries(self, session40_corpus):
        # positions 3 and 4 repeat the same query verbatim
        pair = extract_pairs(session40_corpus)[2]
        assert pair.retained == pair.qn
        assert pair.removed == set() == pair.added

    def test_partition_invariant(self, session40_corpus):
        for pair in extract_pairs(session40_corpus):
            retained, removed, added = pair.retained, pair.removed, pair.added
            assert retained | removed == pair.qn
            assert retained | added == pair.qn1
            assert not retained & removed
            assert not retained & added
            assert not removed & added


class TestPairSummary:
    def test_means_on_small_fixture(self, small_corpus):
        table = pair_summary(extract_pairs(small_corpus))
        # pair 1: abc->abd (J=1/2, cos=2/3, ret 2, rem 1, add 1)
        # pair 2: abd->ae  (J=1/4, cos=1/sqrt6, ret 1, rem 2, add 1)
        assert table.value("jaccard", "all") == pytest.approx((1 / 2 + 1 / 4) / 2)
        assert table.value("cosine", "all") == pytest.approx(
            (2 / 3 + 1 / math.sqrt(6)) / 2
        )
        assert table.value("retained", "all") == pytest.approx(1.5)
        assert table.value("removed", "all") == pytest.approx(1.5)
        assert table.value("added", "all") == pytest.approx(1.0)
        assert table.value("all_terms_kept_fraction", "all") == 0.0

    def test_population_recorded(self, small_corpus):
        table = pair_summary(extract_pairs(small_corpus))
        assert table.get("jaccard", "all").population == 2

    def test_combined_column(self, small_corpus, session40_corpus):
        table = pair_summary(
            {
                "small": extract_pairs(small_corpus),
                "s40": extract_pairs(session40_corpus),
            }
        )
        assert table.columns == ["small", "s40", "combined"]
        assert table.get("retained", "combined").population == 7
        # combined mean is the pair-weighted mean of the two datasets
        expected = (2 * table.value("added", "small") + 5 * table.value("added", "s40")) / 7
        assert table.value("added", "combined") == pytest.approx(expected)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            pair_summary([])

    def test_all_kept_fraction_counts_no_removal_pairs(self, session40_corpus):
        table = pair_summary(extract_pairs(session40_corpus))
        # exactly one of the five pairs removes nothing (the verbatim repeat
        # and q1->q2 keeps "gun control"... check directly)
        pairs = extract_pairs(session40_corpus)
        frac = sum(1 for p in pairs if not p.removed) / len(pairs)
        assert table.value("all_terms_kept_fraction", "all") == pytest.approx(frac)


class TestPositionSeries:
    def test_length_by_position(self, plain_config):
        sessions = [
            (
                "a",
                None,
                [
                    make_impression(1, "x", plain_config, snippets=["s"]),
                    make_impression(2, "x y", plain_config, snippets=["s"]),
                ],
            ),
            (
                "b",
                None,
                [
                    make_impression(1, "x y z", plain_config, snippets=["s"]),
                    make_impression(2, "x y z w", plain_config, snippets=["s"]),
                ],
            ),
            # different length; must be excluded
            ("c", None, [make_impression(1, "q q q", plain_config, snippets=["s"])]),
        ]
        corpus = make_corpus(sessions, plain_config)
        series = length_by_position(corpus, session_length=2)
        assert series == [(1, 2.0, 2), (2, 3.0, 2)]

    def test_length_by_position_rejects_degenerate(self, small_corpus):
        with pytest.raises(ValueError):
            length_by_position(small_corpus, session_length=1)

    def test_similarity_by_position(self, small_corpus):
        series = similarity_by_position(small_corpus)
        assert [s[0] for s in series] == [1, 2]
        assert series[0][1] == pytest.approx(1 / 2)
        assert series[1][1] == pytest.approx(1 / 4)
        assert series[0][3] == 1

    def test_similarity_by_position_max_cutoff(self, session40_corpus):
        series = similarity_by_position(session40_corpus, max_position=3)
        assert [s[0] for s in series] == [1, 2, 3]

    def test_fixed_query_similarity_self_position_is_one(self, session40_corpus):
        series = fixed_query_similarity(session40_corpus, x=3)
        by_pos = {pos: val for pos, val, _ in series}
        assert by_pos[3] == pytest.approx(1.0)
        assert by_pos[4] == pytest.approx(1.0)  # verbatim repeat
        assert 0.0 <= by_pos[5] < 1.0

    def test_fixed_query_similarity_requires_valid_position(self, session40_corpus):
        with pytest.raises(ValueError):
            fixed_query_similarity(session40_corpus, x=0)
