import math

import pytest

from sessionterms.actions import extract_pairs
from sessionterms.corpus import to_canonical_json
from sessionterms.scenarios import ADDED_TERM, assign_scenarios
from sessionterms.synthgen import (
    GeneratorSpec,
    SpecError,
    SplitMix64,
    UnsupportedSpecError,
    expected_statistics,
    generate,
)


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        rng = SplitMix64(0)
        stream = [rng.next_u64() for _ in range(3)]
        # frozen: any change to the generator breaks corpus reproducibility
        assert stream == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniformity_rough(self):
        rng = SplitMix64(99)
        values = [rng.random() for _ in range(20000)]
        assert all(0.0 <= v < 1.0 for v in values)
        mean = sum(values) / len(values)
        assert abs(mean - 0.5) < 0.01

    def test_split_streams_diverge(self):
        master = SplitMix64(7)
        a, b = master.split(1), master.split(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_sample_distinct(self):
        rng = SplitMix64(3)
        picked = rng.sample_distinct(0, 9, 5, exclude={0, 1})
        assert len(picked) == len(set(picked)) == 5
        assert all(2 <= x <= 9 for x in picked)

    def test_sample_distinct_exhaustion(self):
        with pytest.raises(SpecError):
            SplitMix64(3).sample_distinct(0, 3, 4, exclude={0})


class TestSpec:
    def test_from_json_round_trip(self):
        spec = GeneratorSpec.from_json('{"seed": 4, "sessions": 2, "p_keep": 0.5}')
        assert spec.seed == 4 and spec.sessions == 2 and spec.p_keep == 0.5

    def test_session_length_range(self):
        spec = GeneratorSpec.from_json('{"session_length": [2, 6]}')
        assert (spec.session_length, spec.session_length_max) == (2, 6)

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            GeneratorSpec.from_json('{"sesions": 3}')

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError):
            GeneratorSpec.from_json("{")

    def test_probability_bounds_enforced(self):
        with pytest.raises(SpecError):
            GeneratorSpec(p_keep=1.5)
        with pytest.raises(SpecError):
            GeneratorSpec(drift=-0.1)

    def test_vocabulary_floor(self):
        with pytest.raises(SpecError):
            GeneratorSpec(vocabulary_size=5, query_length=3)


class TestGenerate:
    def test_byte_identical_reruns(self):
        spec = GeneratorSpec(seed=17, sessions=12, session_length=4,
                             p_cs=0.4, p_cd=0.4, force_click=True)
        assert to_canonical_json(generate(spec)) == to_canonical_json(generate(spec))

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(seed=1, sessions=4))
        b = generate(GeneratorSpec(seed=2, sessions=4))
        assert to_canonical_json(a) != to_canonical_json(b)

    def test_shape_matches_spec(self):
        spec = GeneratorSpec(seed=5, sessions=7, session_length=3,
                             results_per_query=4, query_length=2)
        corpus = generate(spec)
        assert len(corpus.sessions) == 7
        for session in corpus.sessions:
            assert len(session.impressions) == 3
            for imp in session.impressions:
                assert len(imp.results) == 4
                assert imp.query_terms.length == 2

    def test_docstore_covers_every_result(self):
        corpus = generate(GeneratorSpec(seed=5, sessions=5))
        for session in corpus.sessions:
            for imp in session.impressions:
                for r in imp.results:
                    assert r.docid in corpus.docstore

    def test_with_test_query(self):
        corpus = generate(GeneratorSpec(seed=5, sessions=5, with_test_query=True))
        assert all(s.impressions[-1].is_test_query for s in corpus.sessions)

    def test_force_click_guarantees_click(self):
        corpus = generate(GeneratorSpec(seed=5, sessions=10, click_prob=0.0,
                                        force_click=True))
        for session in corpus.sessions:
            for imp in session.impressions:
                assert imp.clicked_ranks == {1}

    def test_last_rank_never_clicked(self):
        corpus = generate(GeneratorSpec(seed=5, sessions=30, click_prob=0.9))
        for session in corpus.sessions:
            for imp in session.impressions:
                assert len(imp.results) not in imp.clicked_ranks

    def test_validates_cleanly(self):
        generate(GeneratorSpec(seed=5, sessions=5)).validate()


class TestExpectedStatistics:
    def test_requires_fixed_length(self):
        with pytest.raises(UnsupportedSpecError):
            expected_statistics(GeneratorSpec(session_length=2, session_length_max=5))

    def test_requires_force_click_for_clicked_planting(self):
        with pytest.raises(UnsupportedSpecError):
            expected_statistics(GeneratorSpec(p_cs=0.5))
        expected_statistics(GeneratorSpec(p_cs=0.5, force_click=True))

    def test_scenario_distribution_sums_to_one(self):
        stats = expected_statistics(
            GeneratorSpec(p_ncs=0.3, p_cs=0.4, p_cd=0.2, force_click=True)
        )
        dist = stats["added_scenario_distribution"]
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[1] == pytest.approx(0.7 * 0.6 * 0.8)
        assert dist[8] == pytest.approx(0.3 * 0.4 * 0.2)

    def test_measured_retention_within_3_sigma(self):
        spec = GeneratorSpec(seed=29, sessions=400, session_length=4,
                             query_length=3, p_keep=0.6, drift=0.2)
        stats = expected_statistics(spec)
        corpus = generate(spec)
        pairs = extract_pairs(corpus)
        retained = [len(p.retained) for p in pairs]
        n = len(retained)
        mean = sum(retained) / n
        sigma = math.sqrt(stats["var_retained"] / n)
        assert abs(mean - stats["mean_retained"]) < 3 * sigma
        # added = removed = query_length - retained by construction
        assert all(len(p.added) == len(p.removed) for p in pairs)
        assert stats["retention_fraction"] == pytest.approx(0.6 * 0.8)

    def test_measured_scenario_distribution_within_3_sigma(self):
        spec = GeneratorSpec(seed=43, sessions=400, session_length=4,
                             p_keep=0.4, p_ncs=0.5, p_cs=0.3, p_cd=0.6,
                             force_click=True, click_prob=0.2)
        stats = expected_statistics(spec)
        corpus = generate(spec)
        records = [
            r for r in assign_scenarios(extract_pairs(corpus), corpus)
            if r.origin == ADDED_TERM
        ]
        n = len(records)
        assert n > 1000
        observed = {s: 0 for s in range(1, 9)}
        for rec in records:
            observed[rec.scenario] += 1
        for scenario, p in stats["added_scenario_distribution"].items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(observed[scenario] / n - p) < 3 * sigma + 1e-9, scenario

    def test_query_terms_always_scenario_1(self):
        spec = GeneratorSpec(seed=2, sessions=50, session_length=3,
                             p_ncs=0.7, p_cs=0.7, p_cd=0.7,
                             force_click=True, click_prob=0.4)
        corpus = generate(spec)
        stats = expected_statistics(spec)
        assert stats["query_scenario_distribution"] == {1: 1.0}
        records = assign_scenarios(extract_pairs(corpus), corpus)
        retained_or_removed = [r for r in records if r.origin != ADDED_TERM]
        # planted membership only targets freshly added terms; terms already
        # in the query never appear in snippets or documents
        assert all(r.scenario == 1 for r in retained_or_removed)
