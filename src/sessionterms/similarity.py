"""Similarity measures over term sets and bags: Jaccard, term-frequency
cosine, TFIDF cosine and BM25, plus per-source-kind collection statistics.

`jaccard`, `cosine_tfidf` and `bm25` are each computed from two sides:
the query side (tf-idf weights and norm, sorted terms and their BM25
idf) and the bag side (counts, token count, tf-idf norm). To score one
query against many bags, build its `QuerySide` once and a `BagSide` per
bag; a bag's norm is computed on first use, and only a bag that shares
a term with the query needs it. A `RunningBagSide` is the side of a
growing union of bags, whose norm re-adds only what a fold changed.
The functions go through the same
helpers, in the same float operations and order. Float sums are added
in order by a loop: the builtin `sum` compensates from Python 3.12 on,
which would change the last digit of a score with the interpreter.

`build_stats` reads a source kind's instances from a
`sources.SourceIndex`, so each impression and document bag is built
once per index; the statistics do not record the kind. The historical
statistics come from one pass over each session's impression bags, with
no historical bag built. A kind's statistics hold a df entry per
distinct term of that kind; the document kind's is the largest, so
callers build one kind's at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, islice, repeat
from operator import add, mul

from .textnorm import TermBag


class SourceKind(Enum):
    """The term sources that collection statistics are built for."""

    ALL_SNIPPETS = "all_snippets"
    ALL_DOCUMENTS = "all_documents"
    IMPRESSION = "impression"
    HISTORICAL = "historical"


class MissingDocstoreError(Exception):
    """A document source kind was requested without an attached docstore."""


class ScoreOverflowError(ArithmeticError):
    """A BM25 score left the float range: k1 is too large for the bag."""


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
    """Collection statistics of one source kind, which the caller tracks,
    for IDF and length norms. TFIDF idf values are memoized, so `N` must
    not change."""

    N: int
    df: dict
    avgdl: float
    _tfidf_idf: _IdfByDf = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._tfidf_idf = _IdfByDf(self.N)

    @classmethod
    def from_bags(cls, bags):
        df = Counter()
        total_len = 0
        n = 0
        for bag in bags:
            n += 1
            total_len += bag.length
            df.update(bag.counts.keys())
        return cls(N=n, df=df, avgdl=total_len / n if n else 0.0)

    def idf_tfidf(self, term):
        """Plain ln(N/df); 0 for unseen terms."""
        return self._tfidf_idf[self.df.get(term, 0)]

    def idf_bm25(self, term):
        """Non-negative (Lucene-style) BM25 idf."""
        df = self.df.get(term, 0)
        return math.log(1.0 + (self.N - df + 0.5) / (df + 0.5))


def build_stats(index, kind: SourceKind) -> CollectionStats:
    """Collection statistics over every instance of a source kind in a
    `sources.SourceIndex`: one "document" per snippet, per listed
    document with text, per non-test query's impression bag, or per
    historical bag (the impression bags of a session's non-test queries
    up to and including one of them). Build it once per index and treat
    it as read-only."""
    if kind is SourceKind.HISTORICAL:
        return _historical_stats(index)
    sessions = index.corpus.sessions
    if kind is SourceKind.ALL_SNIPPETS:
        bags = (r.terms for s in sessions for imp in s.impressions for r in imp.results)
    elif kind is SourceKind.ALL_DOCUMENTS:
        if not index.corpus.docstore:
            raise MissingDocstoreError(f"{kind.value} requires an attached docstore")
        docs = (index.doc_bag(r.docid)
                for s in sessions for imp in s.impressions for r in imp.results)
        bags = (bag for bag in docs if bag is not None)
    else:
        bags = (bag for s in sessions for bag in index.impressions(s).values())
    return CollectionStats.from_bags(bags)


def _historical_stats(index) -> CollectionStats:
    """`build_stats` of the historical kind without building a historical
    bag. Within a session of k non-test queries, a term first seen in the
    i-th one (from 0) is in the k - i historical bags from there on, and
    the bags' token counts are the running sums of the impression bags'."""
    df = {}
    n = total_len = 0
    for session in index.corpus.sessions:
        bags = list(index.impressions(session).values())
        first = {}  # term -> its df within the session
        for weight, bag in enumerate(reversed(bags), start=1):
            first.update(dict.fromkeys(bag.counts, weight))  # an earlier bag overwrites
        for term, weight in first.items():
            df[term] = df.get(term, 0) + weight
        running = 0
        for bag in bags:
            running += bag.length
            total_len += running
        n += len(bags)
    return CollectionStats(N=n, df=df, avgdl=total_len / n if n else 0.0)


def _jaccard(common, size_a, size_b):
    """|A∩B| / |A∪B| from |A∩B|, |A| and |B|; 1.0 when both are empty."""
    union = size_a + size_b - common
    return common / union if union else 1.0


def jaccard(a: set, b: set) -> float:
    """|A∩B| / |A∪B|; 1.0 when both sets are empty."""
    return _jaccard(len(a & b), len(a), len(b))


def cosine_tf(a: TermBag, b: TermBag) -> float:
    """Cosine over raw term-frequency vectors; 0.0 if either bag empty."""
    if not a.counts or not b.counts:
        return 0.0
    dot = sum(count * b.counts.get(term, 0) for term, count in a.counts.items())
    norm_a = math.sqrt(sum(c * c for c in a.counts.values()))
    norm_b = math.sqrt(sum(c * c for c in b.counts.values()))
    return dot / (norm_a * norm_b)


def _tfidf_weights(counts, stats):
    """tf * ln(N/df) of each term of a bag's counts, in bag order."""
    idf = map(stats._tfidf_idf.__getitem__, map(stats.df.get, counts, repeat(0)))
    return list(map(mul, counts.values(), idf))


def _norm(weights):
    """Euclidean norm of weights, their squares added in order (not with
    `sum`, which compensates from Python 3.12 on)."""
    total = 0.0
    for w in weights:
        total += w * w
    return math.sqrt(total)


def _cosine(query, query_norm, counts, norm, stats):
    """`cosine_tfidf` from the query side's (term, weight) pairs and norm
    and a non-empty bag's counts and norm."""
    if query_norm == 0.0 or norm == 0.0:
        return 0.0
    dot = 0.0
    for t, w in query:
        dot += w * (counts[t] * stats.idf_tfidf(t) if t in counts else 0.0)
    return dot / (query_norm * norm)


def cosine_tfidf(a: TermBag, b: TermBag, stats: CollectionStats) -> float:
    """Cosine over tf*idf weighted vectors; 0.0 on a zero-norm vector."""
    if not a.counts or not b.counts:
        return 0.0
    wa = _tfidf_weights(a.counts, stats)
    return _cosine(zip(a.counts, wa), _norm(wa), b.counts,
                   _norm(_tfidf_weights(b.counts, stats)), stats)


def _bm25_query(terms, stats):
    """(term, BM25 idf) of each query term, in sorted (not set) order."""
    return [(term, stats.idf_bm25(term)) for term in sorted(terms)]


def _bm25(query, counts, length, stats, k1, b):
    """`bm25` of a `_bm25_query` side against a bag's counts and token
    count. ScoreOverflowError when k1 is so large that the length norm or
    the score leaves the float range (an infinite length norm would turn
    every term into a silent 0.0)."""
    if stats.N == 0 or not counts:
        return 0.0
    length_norm = k1 * (1.0 - b + b * length / stats.avgdl) if stats.avgdl > 0 else k1
    score = 0.0
    for term, idf in query:
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        score += idf * tf * (k1 + 1.0) / (tf + length_norm)
    if not (math.isfinite(length_norm) and math.isfinite(score)):
        raise ScoreOverflowError(f"k1 = {k1!r} makes a BM25 score overflow")
    return score


def bm25(query_terms: set, doc: TermBag, stats: CollectionStats,
         k1: float = 1.2, b: float = 0.75) -> float:
    """Okapi BM25 of a term set against a document bag, summed in sorted
    (not set) term order. ScoreOverflowError when k1 is too large for the
    bag's length or the score."""
    return _bm25(_bm25_query(query_terms, stats), doc.counts, doc.length, stats, k1, b)


class BagSide:
    """A bag's side of `cosine_tfidf` and `bm25` under one collection's
    statistics: its counts, its token count and, computed on first use,
    its tf-idf norm. Share one between the queries scored against the
    bag; the bag must not change."""

    __slots__ = ("counts", "length", "_stats", "_norm")

    def __init__(self, bag: TermBag, stats: CollectionStats):
        self.counts = bag.counts
        self.length = sum(bag.counts.values())
        self._stats = stats
        self._norm = None

    @property
    def norm(self):
        if self._norm is None:
            self._norm = _norm(_tfidf_weights(self.counts, self._stats))
        return self._norm


class RunningBagSide:
    """The `BagSide` of a running count-summed union of bags, grown one
    bag at a time by `fold`: after each fold it is the side of the bags
    folded so far merged by `TermBag.union`, with the same term order,
    counts, token count and norm bits.

    It keeps each term's squared tf-idf weight and the in-order running
    sums of those squares that are still valid. A fold changes the
    squares of the terms it touches and appends its new terms, so only
    the sums from the first changed term on are dropped; `norm` adds the
    rest in order, the same float operations `_norm` would do."""

    __slots__ = ("counts", "length", "_stats", "_index", "_squares", "_sums")

    def __init__(self, stats: CollectionStats):
        self.counts = {}
        self.length = 0
        self._stats = stats
        self._index = {}  # term -> its place in `counts`
        self._squares = []  # (count * idf)^2 per term, in `counts` order
        self._sums = []  # running sums of `_squares`, for a prefix of them

    def fold(self, bag: TermBag):
        counts, index, squares = self.counts, self._index, self._squares
        df, idf = self._stats.df, self._stats._tfidf_idf
        first = len(squares)
        for term, count in bag.counts.items():
            i = index.get(term)
            if i is None:
                index[term] = len(squares)
                counts[term] = count
                w = count * idf[df.get(term, 0)]
                squares.append(w * w)
            else:
                count = counts[term] = counts[term] + count
                w = count * idf[df.get(term, 0)]
                squares[i] = w * w
                if i < first:
                    first = i
        self.length += sum(bag.counts.values())
        del self._sums[first:]

    @property
    def norm(self):
        sums, squares = self._sums, self._squares
        if len(sums) < len(squares):
            total = sums[-1] if sums else 0.0
            sums.extend(islice(accumulate(squares[len(sums):], add, initial=total), 1, None))
        return math.sqrt(sums[-1]) if sums else 0.0


class QuerySide:
    """A query bag's side of `jaccard`, `cosine_tfidf` and `bm25` under
    one collection's statistics, computed once to score the query against
    many bags: its tf-idf weights and norm in bag order, and its terms in
    sorted order with their BM25 idf."""

    __slots__ = ("terms", "stats", "k1", "b", "_tfidf", "_norm", "_bm25")

    def __init__(self, bag: TermBag, stats: CollectionStats, k1: float = 1.2, b: float = 0.75):
        self.terms = bag.counts.keys()
        self.stats, self.k1, self.b = stats, k1, b
        weights = _tfidf_weights(bag.counts, stats)
        self._tfidf, self._norm = list(zip(self.terms, weights)), _norm(weights)
        self._bm25 = _bm25_query(self.terms, stats)

    def scores(self, bag: BagSide) -> tuple:
        """(token count, jaccard, cosine_tfidf, bm25) of the query against
        a bag, as the functions give them. A bag that shares no term with
        the query scores 0.0 on both weighted measures without its norm."""
        counts = bag.counts
        common = len(self.terms & counts.keys())
        jac = _jaccard(common, len(self.terms), len(counts))
        if not common:
            return (float(bag.length), jac, 0.0, 0.0)
        return (
            float(bag.length),
            jac,
            _cosine(self._tfidf, self._norm, counts, bag.norm, self.stats),
            _bm25(self._bm25, counts, bag.length, self.stats, self.k1, self.b),
        )
