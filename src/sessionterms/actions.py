"""Adjacent query pairs and their term actions (retain/remove/add),
with the pair-level and position-level summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Impression, Session
from .report import ReportTable
from .similarity import cosine_tf, jaccard
from .stattests import pairwise_mean

DEFAULT_MAX_POSITION = 9


class EmptyInputError(ValueError):
    """The input holds nothing an analysis can summarize."""


@dataclass(frozen=True)
class QueryPair:
    """Adjacent queries q_n -> q_{n+1} of a session: impressions n and
    n+1, read as `before` and `after`."""

    session: Session
    position: int  # n of the earlier query

    @property
    def before(self) -> Impression:
        return self.session.impressions[self.position - 1]

    @property
    def after(self) -> Impression:
        return self.session.impressions[self.position]

    @property
    def session_id(self):
        return self.session.id

    @property
    def qn_bag(self):
        return self.before.query_terms

    @property
    def qn1_bag(self):
        return self.after.query_terms

    @property
    def involves_test_query(self):
        return self.after.is_test_query

    @property
    def qn(self):
        return self.qn_bag.terms

    @property
    def qn1(self):
        return self.qn1_bag.terms

    @property
    def retained(self):
        return self.qn & self.qn1

    @property
    def removed(self):
        return self.qn - self.qn1

    @property
    def added(self):
        return self.qn1 - self.qn


def extract_pairs(corpus, include_test_queries: bool = True):
    """One QueryPair per adjacent query couple per session."""
    return [
        QueryPair(session, imp.position)
        for session in corpus.sessions
        for imp, later in zip(session.impressions, session.impressions[1:])
        if include_test_queries or not later.is_test_query
    ]


# Each row of the pair summary and the per-pair measure it averages.
_SUMMARY_ROWS = {
    "jaccard": lambda p: jaccard(p.qn, p.qn1),
    "cosine": lambda p: cosine_tf(p.qn_bag, p.qn1_bag),
    "retained": lambda p: len(p.retained),
    "removed": lambda p: len(p.removed),
    "added": lambda p: len(p.added),
    "all_terms_kept_fraction": lambda p: 1.0 if not p.removed else 0.0,
}


COMBINED = "combined"


def pair_summary(pairs_by_label) -> ReportTable:
    """Mean similarity and term-action counts per dataset label, from a
    mapping label -> pairs; a `COMBINED` column is added when more than
    one label is given.
    """
    labels = list(pairs_by_label)
    if len(labels) > 1:
        pairs_by_label = dict(pairs_by_label)
        pairs_by_label[COMBINED] = [p for lab in labels for p in pairs_by_label[lab]]
        labels.append(COMBINED)
    if not any(pairs_by_label.values()):
        raise EmptyInputError("pair_summary requires at least one pair")
    table = ReportTable(title="Adjacent query pair summary", columns=labels)
    for label in labels:
        pairs = pairs_by_label[label]
        if pairs:
            for row, measure in _SUMMARY_ROWS.items():
                table.set(row, label, pairwise_mean(list(map(measure, pairs))),
                          population=len(pairs))
    return table


def length_by_position(corpus, max_length: int):
    """Mean normalized query length per position over the sessions of
    each length from 2 to max_length, in one pass; returns
    [(session_length, position, mean_length, count)]."""
    lengths_at = {}
    for session in corpus.sessions:
        n = len(session.impressions)
        if 2 <= n <= max_length:
            for imp in session.impressions:
                lengths_at.setdefault((n, imp.position), []).append(imp.query_terms.length)
    return [
        (session_length, pos, pairwise_mean(vals), len(vals))
        for (session_length, pos), vals in sorted(lengths_at.items())
    ]


def similarity_by_position(pairs, max_position: int = DEFAULT_MAX_POSITION):
    """Mean jaccard/cosine of pairs grouped by position n = 1..max."""
    grouped = {}
    for pair in pairs:
        if pair.position > max_position:
            continue
        grouped.setdefault(pair.position, []).append(pair)
    series = []
    for pos in sorted(grouped):
        pairs = grouped[pos]
        series.append(
            (
                pos,
                pairwise_mean([jaccard(p.qn, p.qn1) for p in pairs]),
                pairwise_mean([cosine_tf(p.qn_bag, p.qn1_bag) for p in pairs]),
                len(pairs),
            )
        )
    return series


def fixed_query_similarity(corpus, max_position: int = DEFAULT_MAX_POSITION):
    """Mean cosine of the query at each fixed position x against the
    query at each position n, both at most max_position, averaged over
    the sessions containing both, in one pass; returns
    [(x, position, mean_cosine, count)]."""
    grouped = {}
    for session in corpus.sessions:
        bags = [imp.query_terms for imp in session.impressions[:max_position]]
        for x, fixed_bag in enumerate(bags, 1):
            for pos, bag in enumerate(bags, 1):
                grouped.setdefault((x, pos), []).append(cosine_tf(fixed_bag, bag))
    return [(x, pos, pairwise_mean(vals), len(vals)) for (x, pos), vals in sorted(grouped.items())]
