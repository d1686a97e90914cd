"""Similarity measures over term sets and bags: Jaccard, term-frequency
cosine, TFIDF cosine and BM25, plus per-source-kind collection statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


@dataclass
class CollectionStats:
    """Per-source-kind collection statistics for IDF and length norms."""

    kind: SourceKind
    N: int
    df: dict
    avgdl: float

    @classmethod
    def from_bags(cls, bags, kind):
        df = {}
        total_len = 0
        n = 0
        for bag in bags:
            n += 1
            total_len += bag.length
            for term in bag.counts:
                df[term] = df.get(term, 0) + 1
        return cls(kind=kind, N=n, df=df, avgdl=total_len / n if n else 0.0)

    def idf_tfidf(self, term):
        """Plain ln(N/df); 0 for unseen terms."""
        df = self.df.get(term, 0)
        if df < 1:
            return 0.0
        return math.log(self.N / df)

    def idf_bm25(self, term):
        """Non-negative (Lucene-style) BM25 idf."""
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))


def build_stats(corpus, kind: SourceKind) -> CollectionStats:
    """Collection statistics over every instance of a source kind.

    One "document" per term-source instance across the corpus (each
    snippet, each document, each impression, each historical prefix).
    """
    from .sources import iter_source_instances  # deferred to avoid a cycle

    return CollectionStats.from_bags(iter_source_instances(corpus, kind), kind)


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


def cosine_tfidf(a: TermBag, b: TermBag, stats: CollectionStats) -> float:
    """Cosine over tf*idf weighted vectors; 0.0 on a zero-norm vector."""
    if not a.counts or not b.counts:
        return 0.0
    wa = {t: c * stats.idf_tfidf(t) for t, c in a.counts.items()}
    wb = {t: c * stats.idf_tfidf(t) for t, c in b.counts.items()}
    dot = sum(w * wb.get(t, 0.0) for t, w in wa.items())
    norm_a = math.sqrt(sum(w * w for w in wa.values()))
    norm_b = math.sqrt(sum(w * w for w in wb.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def bm25(query_terms: set, doc: TermBag, stats: CollectionStats,
         k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 of a term set against a document bag."""
    if stats.N == 0 or not doc.counts:
        return 0.0
    dl = doc.length
    length_norm = k1 * (1.0 - b + b * dl / stats.avgdl) if stats.avgdl > 0 else k1
    score = 0.0
    for term in query_terms:
        tf = doc.counts.get(term, 0)
        if tf == 0:
            continue
        score += stats.idf_bm25(term) * tf * (k1 + 1.0) / (tf + length_norm)
    return score
