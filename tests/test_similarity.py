import math
import random
from itertools import repeat
from operator import mul

import numpy as np
import pytest

from sessionterms.similarity import (
    BagSide,
    CollectionStats,
    QuerySide,
    ScoreOverflowError,
    bm25,
    cosine_tf,
    cosine_tfidf,
    jaccard,
)
from sessionterms.textnorm import NormalizationConfig, TermBag, normalize


def random_bag(rng, vocab, max_terms=6, max_count=4):
    terms = rng.sample(vocab, rng.randint(0, max_terms))
    return TermBag({t: rng.randint(1, max_count) for t in terms})


def loop_cosine_tfidf(a, b, stats):
    """TFIDF cosine written out term by term, idf recomputed each time."""
    def idf(t):
        df = stats.df.get(t, 0)
        return math.log(stats.N / df) if df >= 1 else 0.0

    if not a.counts or not b.counts:
        return 0.0
    wa = {t: c * idf(t) for t, c in a.counts.items()}
    wb = {t: c * idf(t) for t, c in b.counts.items()}
    dot = sum(w * wb.get(t, 0.0) for t, w in wa.items())
    norm_a = math.sqrt(sum(w * w for w in wa.values()))
    norm_b = math.sqrt(sum(w * w for w in wb.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


# The three measures as written before their query and bag sides were
# factored out, kept as oracles: every score must equal them bit for bit.
def oracle_jaccard(a, b):
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def _oracle_weights(counts, stats):
    idf = map(stats._tfidf_idf.__getitem__, map(stats.df.get, counts, repeat(0)))
    return list(map(mul, counts.values(), idf))


def oracle_cosine_tfidf(a, b, stats):
    if not a.counts or not b.counts:
        return 0.0
    wa = _oracle_weights(a.counts, stats)
    wb = _oracle_weights(b.counts, stats)
    b_counts = b.counts
    dot = sum(
        w * (b_counts[t] * stats.idf_tfidf(t) if t in b_counts else 0.0)
        for t, w in zip(a.counts, wa)
    )
    norm_a = math.sqrt(sum(map(mul, wa, wa)))
    norm_b = math.sqrt(sum(map(mul, wb, wb)))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def oracle_bm25(query_terms, doc, stats, k1=1.2, b=0.75):
    if stats.N == 0 or not doc.counts:
        return 0.0
    dl = doc.length
    length_norm = k1 * (1.0 - b + b * dl / stats.avgdl) if stats.avgdl > 0 else k1
    score = 0.0
    for term in sorted(query_terms):
        tf = doc.counts.get(term, 0)
        if tf == 0:
            continue
        score += stats.idf_bm25(term) * tf * (k1 + 1.0) / (tf + length_norm)
    return score


def oracle_row(added, bag, stats, k1=1.2, b=0.75):
    """The (terms, jaccard, cosine, bm25) row of an added-term bag against
    a bag, by the oracles."""
    return (float(bag.length), oracle_jaccard(added.terms, bag.terms),
            oracle_cosine_tfidf(added, bag, stats), oracle_bm25(added.terms, bag, stats, k1, b))


class TestFactoredScores:
    """Seeded bags, with empty ones and terms the statistics never saw."""

    SETTINGS = [(1.2, 0.75), (0.0, 0.0), (2.0, 1.0), (0.5, 0.3)]

    @staticmethod
    def _bags(seed):
        rng = random.Random(seed)
        vocab = [f"t{i}" for i in range(25)]
        stats = CollectionStats.from_bags(
            [random_bag(rng, vocab, max_terms=10) for _ in range(30)])
        extended = vocab + ["unseen1", "unseen2"]
        queries = [TermBag({})] + [random_bag(rng, extended, max_terms=4) for _ in range(40)]
        bags = [TermBag({})] + [random_bag(rng, extended, max_terms=14, max_count=6)
                                for _ in range(60)]
        return stats, queries, bags

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_functions_equal_the_oracles(self, seed):
        stats, queries, bags = self._bags(seed)
        for k1, b in self.SETTINGS:
            for query in queries:
                for bag in bags:
                    assert jaccard(query.terms, bag.terms) == oracle_jaccard(query.terms, bag.terms)
                    assert cosine_tfidf(query, bag, stats) == oracle_cosine_tfidf(query, bag, stats)
                    assert (bm25(query.terms, bag, stats, k1, b)
                            == oracle_bm25(query.terms, bag, stats, k1, b))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sides_equal_the_oracles(self, seed):
        """Each BagSide is shared by every query, as a document's is."""
        stats, queries, bags = self._bags(seed)
        for k1, b in self.SETTINGS:
            sides = [BagSide(bag, stats) for bag in bags]
            for query in queries:
                side = QuerySide(query, stats, k1, b)
                for bag, bag_side in zip(bags, sides):
                    assert side.scores(bag_side) == oracle_row(query, bag, stats, k1, b)

    def test_bm25_overflow_raises(self):
        stats = CollectionStats(N=3, df={"t": 1}, avgdl=2.0)
        long_doc = TermBag({"t": 1, "u": 9})  # length norm 1e308 * 4
        with pytest.raises(ScoreOverflowError, match="k1 = 1e\\+308"):
            bm25({"t"}, long_doc, stats, k1=1e308)
        assert bm25({"t"}, TermBag({"t": 1}), stats, k1=1e308) > 0.0
        assert bm25({"t"}, long_doc, stats, k1=1e300) == oracle_bm25({"t"}, long_doc, stats, 1e300)


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
        stats = CollectionStats(N=4, df={"x": 2, "y": 2, "z": 2}, avgdl=2.0)
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1, "z": 1})
        assert cosine_tfidf(a, b, stats) == pytest.approx(0.5)

    def test_hand_derived_inv_sqrt2(self):
        stats = CollectionStats(N=4, df={"x": 2, "y": 2}, avgdl=2.0)
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1})
        assert cosine_tfidf(a, b, stats) == pytest.approx(1 / math.sqrt(2))

    def test_ubiquitous_shared_term_contributes_nothing(self):
        # "x" appears in every document, so its idf is ln(N/N) = 0 and
        # the only shared term carries no weight
        stats = CollectionStats(N=4, df={"x": 4, "y": 2, "z": 2}, avgdl=2.0)
        a = TermBag({"x": 1, "y": 1})
        b = TermBag({"x": 1, "z": 1})
        assert cosine_tfidf(a, b, stats) == 0.0

    def test_uniform_idf_reduces_to_tf_cosine(self):
        rng = random.Random(17)
        vocab = [f"t{i}" for i in range(8)]
        stats = CollectionStats(N=10, df={t: 5 for t in vocab}, avgdl=3.0)
        for _ in range(100):
            a, b = random_bag(rng, vocab), random_bag(rng, vocab)
            assert cosine_tfidf(a, b, stats) == pytest.approx(cosine_tf(a, b), abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = random.Random(4)
        vocab = [f"t{i}" for i in range(8)]
        stats = CollectionStats(
            N=20,
            df={t: rng.randint(1, 20) for t in vocab},
            avgdl=3.0,
        )
        for _ in range(200):
            a, b = random_bag(rng, vocab), random_bag(rng, vocab)
            s = cosine_tfidf(a, b, stats)
            assert s == pytest.approx(cosine_tfidf(b, a, stats), abs=1e-12)
            assert -1e-12 <= s <= 1.0 + 1e-12

    def test_equals_term_by_term_loop_exactly(self):
        # same arithmetic in the same order, so the floats are identical
        rng = random.Random(8)
        vocab = [f"t{i}" for i in range(30)]
        stats = CollectionStats.from_bags(
            [random_bag(rng, vocab, max_terms=12) for _ in range(40)])
        for _ in range(300):
            a = random_bag(rng, vocab + ["unseen"], max_terms=4)
            b = random_bag(rng, vocab + ["unseen"], max_terms=20, max_count=9)
            assert cosine_tfidf(a, b, stats) == loop_cosine_tfidf(a, b, stats)


class TestBm25:
    def test_hand_derived_value(self):
        # idf = ln(1 + (2-1+0.5)/1.5) = ln 2; dl = avgdl so the length
        # norm is exactly k1; score = ln2 * 2*(k1+1)/(2+k1)
        stats = CollectionStats(N=2, df={"t": 1}, avgdl=3.0)
        doc = TermBag({"t": 2, "u": 1})
        expected = math.log(2) * 2 * 2.2 / (2 + 1.2)
        assert bm25({"t"}, doc, stats) == pytest.approx(expected)
        assert bm25({"t"}, doc, stats) == pytest.approx(0.9530774, abs=1e-6)

    def test_no_overlap_is_zero(self):
        stats = CollectionStats(N=2, df={"t": 1}, avgdl=3.0)
        assert bm25({"q"}, TermBag({"t": 2}), stats) == 0.0

    def test_empty_doc_is_zero(self):
        stats = CollectionStats(N=2, df={"t": 1}, avgdl=3.0)
        assert bm25({"t"}, TermBag({}), stats) == 0.0

    def test_score_additive_over_query_terms(self):
        stats = CollectionStats(N=5, df={"a": 1, "b": 2}, avgdl=4.0)
        doc = TermBag({"a": 1, "b": 2, "c": 1})
        assert bm25({"a", "b"}, doc, stats) == pytest.approx(
            bm25({"a"}, doc, stats) + bm25({"b"}, doc, stats)
        )

    def test_tf_saturation_monotone(self):
        stats = CollectionStats(N=10, df={"a": 2}, avgdl=5.0)
        scores = [bm25({"a"}, TermBag({"a": tf, "pad": 1}), stats) for tf in [1, 2, 4, 8]]
        assert scores == sorted(scores)
        # diminishing returns
        assert scores[1] - scores[0] > scores[3] - scores[2]

    def test_rarer_terms_score_higher(self):
        stats = CollectionStats(N=100, df={"rare": 1, "common": 90}, avgdl=2.0)
        doc = TermBag({"rare": 1, "common": 1})
        assert bm25({"rare"}, doc, stats) > bm25({"common"}, doc, stats)

    def test_nonnegative_idf_even_for_majority_terms(self):
        stats = CollectionStats(N=10, df={"a": 9}, avgdl=2.0)
        assert stats.idf_bm25("a") > 0.0
        assert bm25({"a"}, TermBag({"a": 1}), stats) > 0.0


class TestCollectionStats:
    def test_from_bags(self):
        bags = [TermBag({"a": 2, "b": 1}), TermBag({"a": 1}), TermBag({"c": 3})]
        stats = CollectionStats.from_bags(bags)
        assert stats.N == 3
        assert stats.df == {"a": 2, "b": 1, "c": 1}
        assert stats.avgdl == pytest.approx(7 / 3)

    def test_idf_tfidf_values(self):
        stats = CollectionStats(N=8, df={"a": 2}, avgdl=1.0)
        assert stats.idf_tfidf("a") == pytest.approx(math.log(4))
        assert stats.idf_tfidf("unseen") == 0.0
