"""Click-differentiated impression term sources and their similarity to
added terms: rank-prefix analysis, last-click windows, source comparison
with significance marks, historical terms and dwell-time thresholds.

A `SourceIndex` holds the term sources of one corpus, each built once on
first use: a document's bag per docid, and per session the impression
bag of each non-test query. `score_pairs` scores each pair once against
every source; the four tables only aggregate those scores and apply the
docstore policy. `score_pairs` scores one source kind at a time, so only
that kind's collection statistics and bag sides are alive; the index
and the rows of floats stay. Within a kind the added terms' side of the
measures is computed once per pair and a document's side once per
distinct docid.

The two prefix sources are grown from the previous prefix rather than
built anew. A session's historical bags are one running bag, into which
each impression bag is folded once; its tf-idf norm re-adds only the
squares from the first term whose count a fold changed. The rank-prefix
tables take every cut below 8 of a pair from one running sum of its
snippet rows. Both give the bits of building each prefix on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add

from .actions import EmptyInputError, QueryPair
from .report import ReportTable
from .similarity import (
    BagSide,
    MissingDocstoreError,
    QuerySide,
    RunningBagSide,
    SourceKind,
    build_stats,
)
from .stattests import column_means, pairwise_mean, welch_may_be_significant, welch_t
from .textnorm import TermBag

DROP = "drop"
EMPTY = "empty"

DEFAULT_DWELL_THRESHOLDS = tuple(range(0, 61, 5))


def last_click_rank(impression):
    """Largest clicked rank, or None when the impression has no clicks."""
    if not impression.clicks:
        return None
    return max(c.rank for c in impression.clicks)


def clicked_mask(impression):
    """Whether any click references each result's rank, in rank order."""
    clicked = impression.clicked_ranks
    return [r.rank in clicked for r in impression.results]


class SourceIndex:
    """The term sources of a corpus, each built once on first use:

    - `doc_bag`: a document's normalized bag, or None without its text;
    - `impressions`: per session, the impression bag of each non-test
      query (all its snippets plus its clicked documents with text).

    `clicked_docs` is the one place that looks up an impression's
    clicked documents, and so the one that tells whether each has text.
    The corpus must not change while the index is in use."""

    def __init__(self, corpus):
        self.corpus = corpus
        self._docs = {}
        self._sessions = {}

    def doc_bag(self, docid) -> TermBag | None:
        if docid not in self._docs:
            self._docs[docid] = self.corpus.doc_terms(docid)
        return self._docs[docid]

    def clicked_docs(self, impression) -> list:
        """The bags of an impression's clicked documents in rank order,
        None for a document without text."""
        return [self.doc_bag(r.docid)
                for r, clicked in zip(impression.results, clicked_mask(impression)) if clicked]

    def impressions(self, session) -> dict:
        """{position: impression bag} of a session's non-test queries, in
        position order."""
        if session.id not in self._sessions:
            entries = {}
            for imp in session.impressions:
                if imp.is_test_query:
                    continue
                docs = [d for d in self.clicked_docs(imp) if d is not None]
                entries[imp.position] = TermBag.union([r.terms for r in imp.results] + docs)
            self._sessions[session.id] = entries
        return self._sessions[session.id]


def _added_bag(pair) -> TermBag:
    """Added terms with their q_{n+1} counts, in sorted (not set) order."""
    return TermBag({t: pair.qn1_bag.counts[t] for t in sorted(pair.added)})


def _similarities(added, bags, stats, k1, b):
    """Per-bag (terms, jaccard, cosine_tfidf, bm25) rows of floats of a
    pair's added-term bag against the `BagSide`s of one source kind's
    bags (None for a None side); the added terms' side is computed once
    for all of them."""
    query = QuerySide(added, stats, k1, b)
    return [None if bag is None else query.scores(bag) for bag in bags]


@dataclass(frozen=True, slots=True)
class ScoredPair:
    """`_similarities` rows of a pair's added terms against each term
    source of its earlier impression. `snippets` and `documents` hold one
    row per result; a document row is None when its text is missing.
    Without a docstore `documents`, `impression` and `historical` are
    None."""

    pair: QueryPair
    snippets: list
    documents: list | None = None
    impression: tuple | None = None
    historical: tuple | None = None


def _bag_sides(index, kind, stats, pairs):
    """Per pair, in pair order, the `BagSide`s under `stats` of its bags of
    one source kind: a snippet or a document (None without its text) per
    result, or its one impression or historical bag. A document's side is
    built once per docid and dropped with the generator.

    The historical side is one `RunningBagSide` per session, into which
    each impression bag is folded once, up to the pair's position; a
    pair earlier in its session than the one before starts it afresh.
    The side yielded for a pair is valid only until the next is asked
    for, so it must be scored before then."""
    if kind is SourceKind.ALL_SNIPPETS:
        for pair in pairs:
            yield [BagSide(r.terms, stats) for r in pair.before.results]
    elif kind is SourceKind.ALL_DOCUMENTS:
        by_docid = {}
        for pair in pairs:
            for r in pair.before.results:
                if r.docid not in by_docid:
                    bag = index.doc_bag(r.docid)
                    by_docid[r.docid] = None if bag is None else BagSide(bag, stats)
            yield [by_docid[r.docid] for r in pair.before.results]
    elif kind is SourceKind.IMPRESSION:
        for pair in pairs:
            yield [BagSide(index.impressions(pair.session)[pair.position], stats)]
    else:
        # The historical bag of a position: the impression bags of the
        # session's non-test queries up to it, summed in order.
        session = None
        for pair in pairs:
            if pair.session is not session:
                session = pair.session
                impressions = index.impressions(session)
                upto = {position: i for i, position in enumerate(impressions, start=1)}
                bags = list(impressions.values())
                folded = None
            target = upto[pair.position]
            if folded is None or target < folded:
                side, folded = RunningBagSide(stats), 0
            for bag in bags[folded:target]:
                side.fold(bag)
            folded = max(folded, target)
            yield [side]


def _kind_rows(index, kind, pairs, added, k1, b):
    """Each pair's `_similarities` rows against its bags of one source
    kind, under that kind's statistics. The statistics and every
    `BagSide` are released on return, before the next kind's are built."""
    stats = build_stats(index, kind)
    return [_similarities(added_bag, sides, stats, k1, b)
            for added_bag, sides in zip(added, _bag_sides(index, kind, stats, pairs))]


def score_pairs(pairs, corpus, k1: float = 1.2, b: float = 0.75) -> list:
    """A ScoredPair for each pair whose earlier query has results, in
    pair order, for every table of `analyze sources` to share. Each
    source is scored against the collection statistics of its kind
    (snippets against all snippets, documents against all documents),
    all read from one `SourceIndex` of the corpus.

    The kinds are scored one after another (snippets, documents,
    impression, historical), so only one kind's statistics and bag sides
    are alive at a time. Each factor is computed once, at the level it
    depends on: the added terms' bag per pair, and their side of every
    measure per pair and source kind (`_similarities`); a document's
    `BagSide`, with its token count and tf-idf norm, per distinct docid
    in this call; each impression bag's share of the historical side
    once per session; Jaccard and the rest per bag. A bag's norm is
    computed only when the bag shares an added term."""
    pairs = [pair for pair in pairs if pair.before.results]
    added = [_added_bag(pair) for pair in pairs]
    index = SourceIndex(corpus)
    snippets = _kind_rows(index, SourceKind.ALL_SNIPPETS, pairs, added, k1, b)
    if not corpus.docstore:
        return [ScoredPair(pair, rows) for pair, rows in zip(pairs, snippets)]
    documents, impression, historical = (
        _kind_rows(index, kind, pairs, added, k1, b) for kind in
        (SourceKind.ALL_DOCUMENTS, SourceKind.IMPRESSION, SourceKind.HISTORICAL))
    return [
        ScoredPair(pair, snip, docs, imp, hist)
        for pair, snip, docs, [imp], [hist]
        in zip(pairs, snippets, documents, impression, historical)
    ]


_MEASURES = ["snippet_terms", "jaccard", "cosine", "bm25"]


# `pairwise_mean` sums fewer values than this in order from 0.0.
_IN_ORDER_CUTS = 8


def _prefix_cut_similarity(scored, title, columns, cuts) -> ReportTable:
    """Mean similarity of added terms against snippet prefixes of the
    predecessor impression; `cuts(impression)` gives one prefix depth
    per column.

    A cut below `_IN_ORDER_CUTS` divides a running sum of the pair's
    snippet rows, added in order from 0.0 as `pairwise_mean` adds them,
    so all short cuts of a pair share one pass; deeper cuts call
    `pairwise_mean`."""
    per_col = {col: [] for col in columns}
    zeros = (0.0,) * len(_MEASURES)
    for s in scored:
        # running[c]: the per-measure sums of the first c snippet rows
        running = list(accumulate(s.snippets[:_IN_ORDER_CUTS - 1],
                                  lambda total, row: tuple(map(add, total, row)),
                                  initial=zeros))
        for col, cut in zip(columns, cuts(s.pair.before)):
            per_col[col].append(
                [total / cut for total in running[cut]] if cut < _IN_ORDER_CUTS
                else [pairwise_mean(m) for m in zip(*s.snippets[:cut])])
    table = ReportTable(title=title, columns=columns)
    for col in columns:
        means = per_col[col]
        for row, values in zip(_MEASURES, zip(*means)):
            table.set(row, col, pairwise_mean(values), population=len(means))
    return table


def rank_prefix_similarity(scored, k_max: int = 5) -> ReportTable:
    """Mean similarity of added terms against snippets at ranks 1..k."""
    return _prefix_cut_similarity(
        scored, "Added-term similarity by snippet rank prefix",
        [str(k) for k in range(1, k_max + 1)],
        lambda imp: [min(k, len(imp.results)) for k in range(1, k_max + 1)],
    )


LAST_CLICK_COLUMNS = ["LC-1", "LC", "LC+1", "LC+2", "M"]


def _last_click_cuts(imp):
    m = len(imp.results)
    lc = last_click_rank(imp)
    if lc is None:
        return [m] * len(LAST_CLICK_COLUMNS)
    return [max(lc - 1, 1), lc, min(lc + 1, m), min(lc + 2, m), m]


def last_click_similarity(scored) -> ReportTable:
    """Mean similarity of added terms against snippet prefixes around the
    last clicked rank; clickless impressions contribute all M snippets to
    every column."""
    return _prefix_cut_similarity(
        scored, "Added-term similarity around the last click",
        LAST_CLICK_COLUMNS, _last_click_cuts,
    )


# Report rows of `source_comparison`; only the snippet rows need no
# docstore.
SNIPPET_ROWS = ["s(M)", "cs", "ncs"]
SOURCE_ROWS = [*SNIPPET_ROWS, "ad", "cd", "ncd", "impression", "historical"]

# Bold marks on Table-6-style rows: clicked variant versus the
# non-clicked and "all" variants of the same source, at p < ALPHA.
_SIGNIFICANCE_PAIRS = {"cs": ("ncs", "s(M)"), "cd": ("ncd", "ad")}
ALPHA = 0.01


def comparison_samples(scored, docstore_policy: str = DROP) -> dict:
    """The samples of `source_comparison`: per row label, the per-pair
    mean of each column (terms, jaccard, cosine, bm25), one tuple per
    column. Only the snippet rows are present when no pair has
    documents; a row no pair contributes to holds no column.

    The clicked and non-clicked rows are row subsets of each pair's
    snippet and document scores. Under the drop policy a pair counts in a
    row only when all of that row's documents have text; in the
    impression row, when all of its clicked documents (the `cd` row's)
    have text. The samples hold only floats, so the scores and the
    corpus can be released before `source_comparison` runs."""
    has_docs = any(s.documents is not None for s in scored)
    drop_incomplete = docstore_policy != EMPTY

    # per row label: list of per-pair mean (terms, jaccard, cosine, bm25)
    samples = {label: [] for label in (SOURCE_ROWS if has_docs else SNIPPET_ROWS)}

    def add_sample(label, scores):
        if scores:
            samples[label].append(column_means(scores))

    for s in scored:
        clicked = clicked_mask(s.pair.before)
        add_sample("s(M)", s.snippets)
        add_sample("cs", [row for row, c in zip(s.snippets, clicked) if c])
        add_sample("ncs", [row for row, c in zip(s.snippets, clicked) if not c])
        if s.documents is None:
            continue
        for label, want in (("ad", None), ("cd", True), ("ncd", False)):
            chosen = [row for row, c in zip(s.documents, clicked) if want is None or c is want]
            if drop_incomplete and None in chosen:
                continue
            add_sample(label, [row for row in chosen if row is not None])
            if want:  # the impression bag holds the clicked documents
                add_sample("impression", [s.impression])
        add_sample("historical", [s.historical])
    return {label: list(zip(*means)) for label, means in samples.items()}


def source_comparison(samples) -> ReportTable:
    """Mean added-term similarity per term source of `comparison_samples`,
    with Welch's t-test marks on the clicked variants; document rows are
    omitted (with a footnote) when no docstore is attached."""
    columns = ["terms", "jaccard", "cosine", "bm25"]
    table = ReportTable(title="Added-term similarity by term source", columns=columns)
    if "ad" not in samples:
        table.footnotes.append(
            "document, impression and historical rows omitted: no docstore attached"
        )
    for label, by_column in samples.items():
        for col, values in zip(columns, by_column):
            table.set(label, col, pairwise_mean(values), population=len(values))
    # A cell is significant when every comparison has a p-value and the
    # largest is below ALPHA. The normal-tail bound rules most cells out
    # before any p-value, and with it scipy, is needed.
    for label, others in _SIGNIFICANCE_PAIRS.items():
        if not all(samples.get(row) for row in (label, *others)):
            continue
        for i, col in enumerate(columns):
            if col == "terms":
                continue
            comparisons = [(samples[label][i], samples[other][i]) for other in others]
            if not all(welch_may_be_significant(a, b, ALPHA) for a, b in comparisons):
                continue
            p_values = [welch_t(a, b).p_value for a, b in comparisons]
            if None not in p_values and max(p_values) < ALPHA:
                cell = table.get(label, col)
                table.set(label, col, cell.value, significant=True,
                          p_value=max(p_values), population=cell.population)
    return table


def total_dwell_by_docid(impression):
    """Summed click dwell per clicked docid."""
    dwell = {}
    for click in impression.clicks:
        docid = impression.result_at(click.rank).docid
        dwell[docid] = dwell.get(docid, 0.0) + click.dwell
    return dwell


def dwell_threshold_curve(scored, thresholds=DEFAULT_DWELL_THRESHOLDS,
                          docstore_policy: str = DROP):
    """Mean TFIDF-cosine of clicked documents (dwell >= threshold)
    against added terms; returns [(threshold, mean, surviving_docs)].

    Raises EmptyInputError when no pair has a clicked document to score
    under the docstore policy; thresholds that drop every document give
    an empty curve."""
    if any(s.documents is None for s in scored):
        raise MissingDocstoreError("dwell_threshold_curve requires a docstore")
    prepared = []
    for s in scored:
        imp = s.pair.before
        row_by_docid = {r.docid: row for r, row in zip(imp.results, s.documents)}
        rows = [(total, row_by_docid[docid]) for docid, total in total_dwell_by_docid(imp).items()]
        if docstore_policy == DROP and any(row is None for _, row in rows):
            continue
        docs = [(total, row[2]) for total, row in rows if row is not None]
        if docs:
            prepared.append(docs)
    if not prepared:
        raise EmptyInputError(
            "dwell_threshold_curve requires a clicked document with text "
            f"under docstore policy {docstore_policy!r}")
    series = []
    for tau in thresholds:
        pair_means = []
        surviving = 0
        for docs in prepared:
            kept = [score for total, score in docs if total >= tau]
            if not kept:
                continue
            surviving += len(kept)
            pair_means.append(pairwise_mean(kept))
        if pair_means:
            series.append((tau, pairwise_mean(pair_means), surviving))
    return series
