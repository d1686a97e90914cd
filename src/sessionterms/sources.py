"""Click-differentiated impression term sources and their similarity to
added terms: rank-prefix analysis, last-click windows, source comparison
with significance marks, historical terms and dwell-time thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .report import ReportTable
from .similarity import (
    DOCUMENT_KINDS,
    SNIPPET_KINDS,
    MissingDocstoreError,
    SourceKind,
    bm25,
    build_stats,
    cosine_tfidf,
    jaccard,
)
from .stattests import column_means, pairwise_mean, welch_t
from .textnorm import TermBag

DROP = "drop"
EMPTY = "empty"

DEFAULT_DWELL_THRESHOLDS = tuple(range(0, 61, 5))


@dataclass
class TermSourceView:
    kind: SourceKind
    instances: list  # TermBag per snippet/document (or one merged bag)
    missing_docids: list

    @property
    def complete(self):
        return not self.missing_docids


def last_click_rank(impression):
    """Largest clicked rank, or None when the impression has no clicks."""
    if not impression.clicks:
        return None
    return max(c.rank for c in impression.clicks)


def _doc_bags(corpus, docids):
    bags, missing = [], []
    for docid in docids:
        bag = corpus.doc_terms(docid)
        if bag is None:
            missing.append(docid)
        else:
            bags.append(bag)
    return bags, missing


def extract_source(impression, kind: SourceKind, corpus) -> TermSourceView:
    """Term-source instances of one impression.

    Snippets are partitioned by whether any click references their rank;
    documents are selected by the same criterion. The impression kind is
    one merged bag of all snippets plus clicked documents (no query).
    """
    clicked = impression.clicked_ranks
    if kind is SourceKind.ALL_SNIPPETS:
        return TermSourceView(kind, [r.terms for r in impression.results], [])
    if kind is SourceKind.CLICKED_SNIPPETS:
        return TermSourceView(
            kind, [r.terms for r in impression.results if r.rank in clicked], []
        )
    if kind is SourceKind.NON_CLICKED_SNIPPETS:
        return TermSourceView(
            kind, [r.terms for r in impression.results if r.rank not in clicked], []
        )
    if kind in DOCUMENT_KINDS:
        if not corpus.docstore:
            raise MissingDocstoreError(f"{kind.value} requires an attached docstore")
        if kind is SourceKind.ALL_DOCUMENTS:
            docids = [r.docid for r in impression.results]
        elif kind is SourceKind.CLICKED_DOCUMENTS:
            docids = [r.docid for r in impression.results if r.rank in clicked]
        else:
            docids = [r.docid for r in impression.results if r.rank not in clicked]
        bags, missing = _doc_bags(corpus, docids)
        return TermSourceView(kind, bags, missing)
    if kind is SourceKind.IMPRESSION:
        bags = [r.terms for r in impression.results]
        missing = []
        if corpus.docstore:
            clicked_docids = [r.docid for r in impression.results if r.rank in clicked]
            doc_bags, missing = _doc_bags(corpus, clicked_docids)
            bags += doc_bags
        elif clicked:
            missing = [r.docid for r in impression.results if r.rank in clicked]
        return TermSourceView(kind, [TermBag.union(bags)], missing)
    raise ValueError(f"extract_source does not handle {kind}; see historical_terms")


def _historical_prefixes(corpus, session):
    """Yield (impression-kind view, historical bag through it) for each
    impression of a session in order: prefix n is prefix n-1 plus
    impression n's bag. A test query has no view and adds nothing."""
    merged = TermBag()
    for imp in session.impressions:
        view = None
        if not imp.is_test_query:
            view = extract_source(imp, SourceKind.IMPRESSION, corpus)
            merged = merged.add(view.instances[0])
        yield view, merged


def historical_terms(corpus, session, n: int) -> TermBag:
    """Count-summed union of impression-kind bags for positions 1..n."""
    merged = TermBag()
    for _, merged in islice(_historical_prefixes(corpus, session), n):
        pass
    return merged


def iter_source_instances(corpus, kind: SourceKind):
    """All instances of a source kind across the corpus (for stats)."""
    if kind is SourceKind.HISTORICAL:
        for session in corpus.sessions:
            for view, merged in _historical_prefixes(corpus, session):
                if view is not None:
                    yield merged
        return
    if kind in DOCUMENT_KINDS and not corpus.docstore:
        raise MissingDocstoreError(f"{kind.value} requires an attached docstore")
    for session in corpus.sessions:
        for imp in session.impressions:
            if imp.is_test_query:
                continue
            yield from extract_source(imp, kind, corpus).instances


def _added_bag(pair) -> TermBag:
    added = pair.added
    return TermBag({t: pair.qn1_bag.counts[t] for t in added})


def _similarities(pair, bags, stats, k1, b):
    """Per-bag (terms, jaccard, cosine_tfidf, bm25) rows of floats
    against added terms."""
    added = pair.added
    added_bag = _added_bag(pair)
    return [
        (
            float(bag.length),
            jaccard(added, bag.terms),
            cosine_tfidf(added_bag, bag, stats),
            bm25(added, bag, stats, k1=k1, b=b),
        )
        for bag in bags
    ]


def _snippet_scores(pair, stats, corpus, k1, b, last_use=False):
    """`_similarities` rows of the predecessor impression's snippets
    against `stats` (the corpus's ALL_SNIPPETS statistics), memoized per
    corpus, pair and k1/b: the rank-prefix, last-click and source tables
    all read the same rows. `last_use` takes the rows out of the memo;
    `source_comparison`, the last of the three in `analyze sources`,
    does, so the memo is empty by that command's peak memory."""
    cache = corpus.__dict__.setdefault("_snippet_score_cache", {})
    key = (pair.session_id, pair.position, k1, b)
    rows = cache.pop(key, None) if last_use else cache.get(key)
    if rows is None:
        rows = _similarities(pair, [r.terms for r in pair.before.results], stats, k1, b)
        if not last_use:
            cache[key] = rows
    return rows


_MEASURES = ["snippet_terms", "jaccard", "cosine", "bm25"]


def _prefix_cut_similarity(pairs, corpus, title, columns, cuts, k1, b) -> ReportTable:
    """Mean similarity of added terms against snippet prefixes of the
    predecessor impression; `cuts(impression)` gives one prefix depth
    per column."""
    stats = build_stats(corpus, SourceKind.ALL_SNIPPETS)
    per_col = {col: [] for col in columns}
    for pair in pairs:
        imp = pair.before
        if not imp.results:
            continue
        scores = _snippet_scores(pair, stats, corpus, k1, b)
        for col, cut in zip(columns, cuts(imp)):
            per_col[col].append([pairwise_mean(m) for m in zip(*scores[:cut])])
    table = ReportTable(title=title, columns=columns)
    for col in columns:
        means = per_col[col]
        for row, values in zip(_MEASURES, zip(*means)):
            table.set(row, col, pairwise_mean(values), population=len(means))
    return table


def rank_prefix_similarity(pairs, corpus, k_max: int = 5,
                           k1: float = 1.2, b: float = 0.75) -> ReportTable:
    """Mean similarity of added terms against snippets at ranks 1..k."""
    return _prefix_cut_similarity(
        pairs, corpus, "Added-term similarity by snippet rank prefix",
        [str(k) for k in range(1, k_max + 1)],
        lambda imp: [min(k, len(imp.results)) for k in range(1, k_max + 1)],
        k1, b,
    )


LAST_CLICK_COLUMNS = ["LC-1", "LC", "LC+1", "LC+2", "M"]


def _last_click_cuts(imp):
    m = len(imp.results)
    lc = last_click_rank(imp)
    if lc is None:
        return [m] * len(LAST_CLICK_COLUMNS)
    return [max(lc - 1, 1), lc, min(lc + 1, m), min(lc + 2, m), m]


def last_click_similarity(pairs, corpus, k1: float = 1.2, b: float = 0.75) -> ReportTable:
    """Mean similarity of added terms against snippet prefixes around the
    last clicked rank; clickless impressions contribute all M snippets to
    every column."""
    return _prefix_cut_similarity(
        pairs, corpus, "Added-term similarity around the last click",
        LAST_CLICK_COLUMNS, _last_click_cuts, k1, b,
    )


SOURCE_ROWS = [
    ("s(M)", SourceKind.ALL_SNIPPETS),
    ("cs", SourceKind.CLICKED_SNIPPETS),
    ("ncs", SourceKind.NON_CLICKED_SNIPPETS),
    ("ad", SourceKind.ALL_DOCUMENTS),
    ("cd", SourceKind.CLICKED_DOCUMENTS),
    ("ncd", SourceKind.NON_CLICKED_DOCUMENTS),
    ("impression", SourceKind.IMPRESSION),
    ("historical", SourceKind.HISTORICAL),
]

# Bold marks on Table-6-style rows: clicked variant versus the
# non-clicked and "all" variants of the same source.
_SIGNIFICANCE_PAIRS = {"cs": ("ncs", "s(M)"), "cd": ("ncd", "ad")}


def source_comparison(pairs, corpus, docstore_policy: str = DROP,
                      k1: float = 1.2, b: float = 0.75,
                      alpha: float = 0.01) -> ReportTable:
    """Mean added-term similarity per term source with Welch's t-test
    marks on the clicked variants; document rows are omitted (with a
    footnote) when no docstore is attached.

    Each pair scores the predecessor's snippets, and its documents that
    are present, once; the clicked and non-clicked rows are row subsets
    of those scores. Impression and historical bags are built once per
    session, which keeps only its own."""
    has_docs = bool(corpus.docstore)
    if has_docs:
        rows = list(SOURCE_ROWS)
        kinds = [SourceKind.ALL_SNIPPETS, SourceKind.ALL_DOCUMENTS,
                 SourceKind.IMPRESSION, SourceKind.HISTORICAL]
    else:
        rows = [(label, kind) for label, kind in SOURCE_ROWS if kind in SNIPPET_KINDS]
        kinds = [SourceKind.ALL_SNIPPETS]
    stats = {kind: build_stats(corpus, kind) for kind in kinds}
    drop_incomplete = docstore_policy != EMPTY

    # per row label: list of per-pair mean (terms, jaccard, cosine, bm25)
    samples = {label: [] for label, _ in rows}

    def add_sample(label, scores):
        if scores:
            samples[label].append(column_means(scores))

    session, session_bags = None, None
    for pair in pairs:
        imp = pair.before
        if not imp.results:
            continue
        clicked_ranks = imp.clicked_ranks
        clicked = [r.rank in clicked_ranks for r in imp.results]
        snippets = _snippet_scores(pair, stats[SourceKind.ALL_SNIPPETS], corpus, k1, b,
                                   last_use=True)
        add_sample("s(M)", snippets)
        add_sample("cs", [row for row, c in zip(snippets, clicked) if c])
        add_sample("ncs", [row for row, c in zip(snippets, clicked) if not c])
        if not has_docs:
            continue
        bags = [corpus.doc_terms(r.docid) for r in imp.results]
        scored = iter(_similarities(
            pair, [bag for bag in bags if bag is not None], stats[SourceKind.ALL_DOCUMENTS], k1, b
        ))
        # one row per result: its document's scores, or None when missing
        docs = [None if bag is None else next(scored) for bag in bags]
        for label, want in (("ad", None), ("cd", True), ("ncd", False)):
            chosen = [row for row, c in zip(docs, clicked) if want is None or c is want]
            if drop_incomplete and None in chosen:
                continue
            add_sample(label, [row for row in chosen if row is not None])
        if pair.session is not session:
            session = pair.session
            session_bags = list(_historical_prefixes(corpus, session))
        view, historical = session_bags[pair.position - 1]
        if view.complete or not drop_incomplete:
            add_sample(
                "impression", _similarities(pair, view.instances, stats[SourceKind.IMPRESSION], k1, b)
            )
        add_sample(
            "historical", _similarities(pair, [historical], stats[SourceKind.HISTORICAL], k1, b)
        )

    columns = ["terms", "jaccard", "cosine", "bm25"]
    table = ReportTable(title="Added-term similarity by term source", columns=columns)
    if not has_docs:
        table.footnotes.append(
            "document, impression and historical rows omitted: no docstore attached"
        )
    # per row label: the per-pair means of each column
    by_column = {}
    for label, _ in rows:
        if not samples[label]:
            continue
        by_column[label] = list(zip(*samples[label]))
        for col, values in zip(columns, by_column[label]):
            table.set(label, col, pairwise_mean(values), population=len(values))
    for label, others in _SIGNIFICANCE_PAIRS.items():
        if label not in by_column:
            continue
        for i, col in enumerate(columns):
            if col == "terms":
                continue
            p_values = []
            for other in others:
                if other not in by_column:
                    break
                result = welch_t(by_column[label][i], by_column[other][i])
                if result.p_value is None:
                    break
                p_values.append(result.p_value)
            else:
                if p_values and max(p_values) < alpha:
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


def dwell_threshold_curve(pairs, corpus, thresholds=DEFAULT_DWELL_THRESHOLDS,
                          docstore_policy: str = DROP):
    """Mean TFIDF-cosine of clicked documents (dwell >= threshold)
    against added terms; returns [(threshold, mean, surviving_docs)]."""
    if not corpus.docstore:
        raise MissingDocstoreError("dwell_threshold_curve requires a docstore")
    stats = build_stats(corpus, SourceKind.ALL_DOCUMENTS)
    prepared = []
    for pair in pairs:
        imp = pair.before
        if not imp.results or not imp.clicks:
            continue
        dwell = total_dwell_by_docid(imp)
        added_bag = _added_bag(pair)
        docs = []
        missing = False
        for docid, total in dwell.items():
            bag = corpus.doc_terms(docid)
            if bag is None:
                missing = True
                continue
            docs.append((total, cosine_tfidf(added_bag, bag, stats)))
        if missing and docstore_policy == DROP:
            continue
        if docs:
            prepared.append(docs)
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
