"""Click-differentiated impression term sources and their similarity to
added terms: rank-prefix analysis, last-click windows, source comparison
with significance marks, historical terms and dwell-time thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
from .stattests import welch_t
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
        merged = TermBag()
        for r in impression.results:
            merged = merged.add(r.terms)
        missing = []
        if corpus.docstore:
            clicked_docids = [r.docid for r in impression.results if r.rank in clicked]
            bags, missing = _doc_bags(corpus, clicked_docids)
            for bag in bags:
                merged = merged.add(bag)
        elif clicked:
            missing = [r.docid for r in impression.results if r.rank in clicked]
        return TermSourceView(kind, [merged], missing)
    raise ValueError(f"extract_source does not handle {kind}; see historical_terms")


def historical_terms(corpus, session, n: int) -> TermBag:
    """Count-summed union of impression-kind bags for positions 1..n."""
    merged = TermBag()
    for imp in session.impressions[:n]:
        if imp.is_test_query:
            continue
        view = extract_source(imp, SourceKind.IMPRESSION, corpus)
        merged = merged.add(view.instances[0])
    return merged


def iter_source_instances(corpus, kind: SourceKind):
    """All instances of a source kind across the corpus (for stats)."""
    if kind is SourceKind.HISTORICAL:
        for session in corpus.sessions:
            for imp in session.impressions:
                if imp.is_test_query:
                    continue
                yield historical_terms(corpus, session, imp.position)
        return
    if kind in DOCUMENT_KINDS and not corpus.docstore:
        raise MissingDocstoreError(f"{kind.value} requires an attached docstore")
    for session in corpus.sessions:
        for imp in session.impressions:
            if imp.is_test_query:
                continue
            yield from extract_source(imp, kind, corpus).instances


def predecessor_impression(corpus, pair):
    return corpus.session_by_id(pair.session_id).impressions[pair.position - 1]


def _added_bag(pair) -> TermBag:
    added = pair.added
    return TermBag({t: pair.qn1_bag.counts[t] for t in added})


def _similarities(pair, bags, stats, k1, b):
    """Per-bag (terms, jaccard, cosine_tfidf, bm25) against added terms."""
    added = pair.added
    added_bag = _added_bag(pair)
    return np.asarray(
        [
            (
                bag.length,
                jaccard(added, bag.terms),
                cosine_tfidf(added_bag, bag, stats),
                bm25(added, bag, stats, k1=k1, b=b),
            )
            for bag in bags
        ],
        dtype=float,
    )


_MEASURES = ["snippet_terms", "jaccard", "cosine", "bm25"]


def _prefix_means(scores, upto):
    prefix = scores[:upto]
    return tuple(prefix[:, i].mean() for i in range(len(_MEASURES)))


def _prefix_cut_similarity(pairs, corpus, title, columns, cuts, k1, b) -> ReportTable:
    """Mean similarity of added terms against snippet prefixes of the
    predecessor impression; `cuts(impression)` gives one prefix depth
    per column."""
    stats = build_stats(corpus, SourceKind.ALL_SNIPPETS)
    per_col = {col: [] for col in columns}
    for pair in pairs:
        imp = predecessor_impression(corpus, pair)
        if not imp.results:
            continue
        scores = _similarities(pair, [r.terms for r in imp.results], stats, k1, b)
        for col, cut in zip(columns, cuts(imp)):
            per_col[col].append(_prefix_means(scores, cut))
    table = ReportTable(title=title, columns=columns)
    for col in columns:
        if not per_col[col]:
            continue
        arr = np.asarray(per_col[col], dtype=float)
        for i, row in enumerate(_MEASURES):
            table.set(row, col, float(arr[:, i].mean()), population=len(per_col[col]))
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


def _base_stats_kind(kind):
    if kind in SNIPPET_KINDS:
        return SourceKind.ALL_SNIPPETS
    if kind in DOCUMENT_KINDS:
        return SourceKind.ALL_DOCUMENTS
    return kind


def source_comparison(pairs, corpus, docstore_policy: str = DROP,
                      k1: float = 1.2, b: float = 0.75,
                      alpha: float = 0.01) -> ReportTable:
    """Mean added-term similarity per term source with Welch's t-test
    marks on the clicked variants; document rows are omitted (with a
    footnote) when no docstore is attached."""
    has_docs = bool(corpus.docstore)
    if has_docs:
        rows = list(SOURCE_ROWS)
    else:
        rows = [(label, kind) for label, kind in SOURCE_ROWS if kind in SNIPPET_KINDS]
    stats_cache = {}

    def stats_for(kind):
        base = _base_stats_kind(kind)
        if base not in stats_cache:
            stats_cache[base] = build_stats(corpus, base)
        return stats_cache[base]

    # per row label: list of (pair_index, terms, jaccard, cosine, bm25)
    samples = {label: [] for label, _ in rows}
    for pair in pairs:
        imp = predecessor_impression(corpus, pair)
        if not imp.results:
            continue
        session = corpus.session_by_id(pair.session_id)
        for label, kind in rows:
            stats = stats_for(kind)
            if kind is SourceKind.HISTORICAL:
                instances = [historical_terms(corpus, session, pair.position)]
                ok = True
            else:
                view = extract_source(imp, kind, corpus)
                instances = view.instances
                ok = view.complete or docstore_policy == EMPTY
            if not ok or not instances:
                continue
            samples[label].append(_similarities(pair, instances, stats, k1, b).mean(axis=0))

    columns = ["terms", "jaccard", "cosine", "bm25"]
    table = ReportTable(title="Added-term similarity by term source", columns=columns)
    if not has_docs:
        table.footnotes.append(
            "document, impression and historical rows omitted: no docstore attached"
        )
    means = {}
    for label, _ in rows:
        if not samples[label]:
            continue
        arr = np.asarray(samples[label], dtype=float)
        means[label] = arr
        for i, col in enumerate(columns):
            table.set(label, col, float(arr[:, i].mean()), population=arr.shape[0])
    for label, others in _SIGNIFICANCE_PAIRS.items():
        if label not in means:
            continue
        for i, col in enumerate(columns):
            if col == "terms":
                continue
            p_values = []
            for other in others:
                if other not in means:
                    break
                result = welch_t(list(means[label][:, i]), list(means[other][:, i]))
                if result.p_value is None:
                    break
                p_values.append(result.p_value)
            else:
                if p_values and max(p_values) < alpha:
                    table.set(
                        label,
                        col,
                        float(means[label][:, i].mean()),
                        significant=True,
                        p_value=max(p_values),
                        population=means[label].shape[0],
                    )
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
        imp = predecessor_impression(corpus, pair)
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
            pair_means.append(float(np.mean(kept)))
        if pair_means:
            series.append((tau, float(np.mean(pair_means)), surviving))
    return series
