import math
import random

import numpy as np
import pytest

from sessionterms.similarity import (
    CollectionStats,
    SourceKind,
    bm25,
    cosine_tf,
    cosine_tfidf,
    jaccard,
)
from sessionterms.textnorm import NormalizationConfig, TermBag, normalize


def random_bag(rng, vocab, max_terms=6, max_count=4):
    terms = rng.sample(vocab, rng.randint(0, max_terms))
    return TermBag({t: rng.randint(1, max_count) for t in terms})


class TestJaccard:
    def test_session40_reformulation_value(self):
        config = NormalizationConfig()
        q3 = normalize("gun control current affairs", config)
        q5 = normalize("gun violence us", config)
        # {gun, control, current, affair} vs {gun, violenc, us}
        assert jaccard(q3.terms, q5.terms) == pytest.approx(1 / 6)

    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_both_empty_is_one(self):
        assert jaccard(set(), set()) == 1.0

    def test_one_empty_is_zero(self):
        assert jaccard({"a"}, set()) == 0.0

    def test_symmetric_and_bounded(self):
        rng = random.Random(2)
        vocab = [f"t{i}" for i in range(12)]
        for _ in range(300):
            a = set(rng.sample(vocab, rng.randint(0, 8)))
            b = set(rng.sample(vocab, rng.randint(0, 8)))
            j = jaccard(a, b)
            assert j == jaccard(b, a)
            assert 0.0 <= j <= 1.0


class TestCosineTf:
    def test_session40_reformulation_value(self):
        config = NormalizationConfig()
        q3 = normalize("gun control current affairs", config)
        q5 = normalize("gun violence us", config)
        assert cosine_tf(q3, q5) == pytest.approx(1 / (2 * math.sqrt(3)))

    def test_identical_bags(self):
        bag = TermBag({"a": 2, "b": 3})
        assert cosine_tf(bag, bag) == pytest.approx(1.0)

    def test_empty_bag_is_zero(self):
        assert cosine_tf(TermBag({}), TermBag({"a": 1})) == 0.0
        assert cosine_tf(TermBag({}), TermBag({})) == 0.0

    def test_count_scaling_invariance(self):
        a = TermBag({"x": 1, "y": 2})
        b = TermBag({"x": 3, "z": 1})
        doubled = TermBag({t: 2 * c for t, c in a.counts.items()})
        assert cosine_tf(doubled, b) == pytest.approx(cosine_tf(a, b))

    def test_matches_numpy_oracle(self):
        rng = random.Random(9)
        vocab = [f"t{i}" for i in range(10)]
        for _ in range(200):
            a, b = random_bag(rng, vocab), random_bag(rng, vocab)
            va = np.array([a.counts.get(t, 0) for t in vocab], dtype=float)
            vb = np.array([b.counts.get(t, 0) for t in vocab], dtype=float)
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            expected = float(va @ vb / (na * nb)) if na > 0 and nb > 0 else 0.0
            assert cosine_tf(a, b) == pytest.approx(expected, abs=1e-12)


class TestCosineTfidf:
    def test_hand_derived_half(self):
        # all idfs equal ln 2, so weighting cancels:
        # (1,1,0)·(1,0,1) / (sqrt2 * sqrt2) = 1/2
        stats = CollectionStats(
            kind=SourceKind.ALL_SNIPPETS, N=4, df={"x": 2, "y": 2, "z": 2}, avgdl=2.0
        )
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1, "z": 1})
        assert cosine_tfidf(a, b, stats) == pytest.approx(0.5)

    def test_hand_derived_inv_sqrt2(self):
        stats = CollectionStats(
            kind=SourceKind.ALL_SNIPPETS, N=4, df={"x": 2, "y": 2}, avgdl=2.0
        )
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1})
        assert cosine_tfidf(a, b, stats) == pytest.approx(1 / math.sqrt(2))

    def test_ubiquitous_shared_term_contributes_nothing(self):
        # "x" appears in every document, so its idf is ln(N/N) = 0 and
        # the only shared term carries no weight
        stats = CollectionStats(
            kind=SourceKind.ALL_SNIPPETS, N=4, df={"x": 4, "y": 2, "z": 2}, avgdl=2.0
        )
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1, "z": 1})
        assert cosine_tfidf(a, b, stats) == 0.0

    def test_uniform_idf_reduces_to_tf_cosine(self):
        rng = random.Random(17)
        vocab = [f"t{i}" for i in range(8)]
        stats = CollectionStats(
            kind=SourceKind.ALL_SNIPPETS, N=10, df={t: 5 for t in vocab}, avgdl=3.0
        )
        for _ in range(100):
            a, b = random_bag(rng, vocab), random_bag(rng, vocab)
            assert cosine_tfidf(a, b, stats) == pytest.approx(cosine_tf(a, b), abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = random.Random(4)
        vocab = [f"t{i}" for i in range(8)]
        stats = CollectionStats(
            kind=SourceKind.ALL_SNIPPETS,
            N=20,
            df={t: rng.randint(1, 20) for t in vocab},
            avgdl=3.0,
        )
        for _ in range(200):
            a, b = random_bag(rng, vocab), random_bag(rng, vocab)
            s = cosine_tfidf(a, b, stats)
            assert s == pytest.approx(cosine_tfidf(b, a, stats), abs=1e-12)
            assert -1e-12 <= s <= 1.0 + 1e-12


class TestBm25:
    def test_hand_derived_value(self):
        # idf = ln(1 + (2-1+0.5)/1.5) = ln 2; dl = avgdl so the length
        # norm is exactly k1; score = ln2 * 2*(k1+1)/(2+k1)
        stats = CollectionStats(kind=SourceKind.ALL_DOCUMENTS, N=2, df={"t": 1}, avgdl=3.0)
        doc = TermBag({"t": 2, "u": 1})
        expected = math.log(2) * 2 * 2.2 / (2 + 1.2)
        assert bm25({"t"}, doc, stats) == pytest.approx(expected)
        assert bm25({"t"}, doc, stats) == pytest.approx(0.9530774, abs=1e-6)

    def test_no_overlap_is_zero(self):
        stats = CollectionStats(kind=SourceKind.ALL_DOCUMENTS, N=2, df={"t": 1}, avgdl=3.0)
        assert bm25({"q"}, TermBag({"t": 2}), stats) == 0.0

    def test_empty_doc_is_zero(self):
        stats = CollectionStats(kind=SourceKind.ALL_DOCUMENTS, N=2, df={"t": 1}, avgdl=3.0)
        assert bm25({"t"}, TermBag({}), stats) == 0.0

    def test_score_additive_over_query_terms(self):
        stats = CollectionStats(
            kind=SourceKind.ALL_DOCUMENTS, N=5, df={"a": 1, "b": 2}, avgdl=4.0
        )
        doc = TermBag({"a": 1, "b": 2, "c": 1})
        assert bm25({"a", "b"}, doc, stats) == pytest.approx(
            bm25({"a"}, doc, stats) + bm25({"b"}, doc, stats)
        )

    def test_tf_saturation_monotone(self):
        stats = CollectionStats(kind=SourceKind.ALL_DOCUMENTS, N=10, df={"a": 2}, avgdl=5.0)
        scores = [bm25({"a"}, TermBag({"a": tf, "pad": 1}), stats) for tf in [1, 2, 4, 8]]
        assert scores == sorted(scores)
        # diminishing returns
        assert scores[1] - scores[0] > scores[3] - scores[2]

    def test_rarer_terms_score_higher(self):
        stats = CollectionStats(
            kind=SourceKind.ALL_DOCUMENTS, N=100, df={"rare": 1, "common": 90}, avgdl=2.0
        )
        doc = TermBag({"rare": 1, "common": 1})
        assert bm25({"rare"}, doc, stats) > bm25({"common"}, doc, stats)

    def test_nonnegative_idf_even_for_majority_terms(self):
        stats = CollectionStats(kind=SourceKind.ALL_DOCUMENTS, N=10, df={"a": 9}, avgdl=2.0)
        assert stats.idf_bm25("a") > 0.0
        assert bm25({"a"}, TermBag({"a": 1}), stats) > 0.0


class TestCollectionStats:
    def test_from_bags(self):
        bags = [TermBag({"a": 2, "b": 1}), TermBag({"a": 1}), TermBag({"c": 3})]
        stats = CollectionStats.from_bags(bags, SourceKind.ALL_SNIPPETS)
        assert stats.N == 3
        assert stats.df == {"a": 2, "b": 1, "c": 1}
        assert stats.avgdl == pytest.approx(7 / 3)

    def test_idf_tfidf_values(self):
        stats = CollectionStats(kind=SourceKind.ALL_SNIPPETS, N=8, df={"a": 2}, avgdl=1.0)
        assert stats.idf_tfidf("a") == pytest.approx(math.log(4))
        assert stats.idf_tfidf("unseen") == 0.0
