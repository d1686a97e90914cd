"""Similarity measures over term sets and bags: Jaccard, term-frequency
cosine, TFIDF cosine and BM25, plus per-source-kind collection statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from operator import mul

from .textnorm import TermBag


class SourceKind(Enum):
    ALL_SNIPPETS = "all_snippets"
    CLICKED_SNIPPETS = "clicked_snippets"
    NON_CLICKED_SNIPPETS = "non_clicked_snippets"
    ALL_DOCUMENTS = "all_documents"
    CLICKED_DOCUMENTS = "clicked_documents"
    NON_CLICKED_DOCUMENTS = "non_clicked_documents"
    IMPRESSION = "impression"
    HISTORICAL = "historical"


SNIPPET_KINDS = {
    SourceKind.ALL_SNIPPETS,
    SourceKind.CLICKED_SNIPPETS,
    SourceKind.NON_CLICKED_SNIPPETS,
}
DOCUMENT_KINDS = {
    SourceKind.ALL_DOCUMENTS,
    SourceKind.CLICKED_DOCUMENTS,
    SourceKind.NON_CLICKED_DOCUMENTS,
}


class MissingDocstoreError(Exception):
    """A document source kind was requested without an attached docstore."""


class _IdfByDf(dict):
    """ln(N/df) keyed by df, each computed on first lookup; 0 for df 0.
    There are far fewer distinct df values than terms."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def __missing__(self, df):
        idf = self[df] = math.log(self.n / df) if df >= 1 else 0.0
        return idf


@dataclass
class CollectionStats:
    """Per-source-kind collection statistics for IDF and length norms.
    TFIDF idf values are memoized, so `N` must not change."""

    kind: SourceKind
    N: int
    df: dict
    avgdl: float
    _tfidf_idf: _IdfByDf = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._tfidf_idf = _IdfByDf(self.N)

    @classmethod
    def from_bags(cls, bags, kind):
        df = Counter()
        total_len = 0
        n = 0
        for bag in bags:
            n += 1
            total_len += bag.length
            df.update(bag.counts.keys())
        return cls(kind=kind, N=n, df=df, avgdl=total_len / n if n else 0.0)

    def idf_tfidf(self, term):
        """Plain ln(N/df); 0 for unseen terms."""
        return self._tfidf_idf[self.df.get(term, 0)]

    def idf_bm25(self, term):
        """Non-negative (Lucene-style) BM25 idf."""
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))


def build_stats(corpus, kind: SourceKind) -> CollectionStats:
    """Collection statistics over every instance of a source kind.

    One "document" per term-source instance across the corpus (each
    snippet, each document, each impression, each historical prefix).
    Memoized per corpus and kind, so every analysis of one corpus shares
    one stats object per kind; treat it as read-only.
    """
    from .sources import iter_source_instances  # deferred to avoid a cycle

    cache = corpus.__dict__.setdefault("_stats_cache", {})
    if kind not in cache:
        cache[kind] = CollectionStats.from_bags(iter_source_instances(corpus, kind), kind)
    return cache[kind]


def jaccard(a: set, b: set) -> float:
    """|A∩B| / |A∪B|; 1.0 when both sets are empty."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def cosine_tf(a: TermBag, b: TermBag) -> float:
    """Cosine over raw term-frequency vectors; 0.0 if either bag empty."""
    if not a.counts or not b.counts:
        return 0.0
    dot = sum(count * b.counts.get(term, 0) for term, count in a.counts.items())
    norm_a = math.sqrt(sum(c * c for c in a.counts.values()))
    norm_b = math.sqrt(sum(c * c for c in b.counts.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def _tfidf_weights(counts, stats):
    """tf * ln(N/df) of each term of a bag's counts, in bag order."""
    idf = map(stats._tfidf_idf.__getitem__, map(stats.df.get, counts, repeat(0)))
    return list(map(mul, counts.values(), idf))


def cosine_tfidf(a: TermBag, b: TermBag, stats: CollectionStats) -> float:
    """Cosine over tf*idf weighted vectors; 0.0 on a zero-norm vector."""
    if not a.counts or not b.counts:
        return 0.0
    wa = _tfidf_weights(a.counts, stats)
    wb = _tfidf_weights(b.counts, stats)
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


def bm25(query_terms: set, doc: TermBag, stats: CollectionStats,
         k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 of a term set against a document bag, summed in sorted
    (not set) term order."""
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
