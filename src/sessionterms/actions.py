"""Adjacent query pairs and their term actions (retain/remove/add),
with the pair-level and position-level summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import ReportTable
from .similarity import cosine_tf, jaccard
from .textnorm import TermBag

DEFAULT_MAX_POSITION = 9


class EmptyInputError(Exception):
    pass


@dataclass(frozen=True)
class QueryPair:
    session_id: str
    position: int  # n of the earlier query
    qn_bag: TermBag
    qn1_bag: TermBag
    involves_test_query: bool

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
    pairs = []
    for session in corpus.sessions:
        imps = session.impressions
        for i in range(len(imps) - 1):
            later_is_test = imps[i + 1].is_test_query
            if later_is_test and not include_test_queries:
                continue
            pairs.append(
                QueryPair(
                    session_id=session.id,
                    position=imps[i].position,
                    qn_bag=imps[i].query_terms,
                    qn1_bag=imps[i + 1].query_terms,
                    involves_test_query=later_is_test,
                )
            )
    return pairs


_SUMMARY_ROWS = [
    "jaccard",
    "cosine",
    "retained",
    "removed",
    "added",
    "all_terms_kept_fraction",
]


def pair_summary(pairs_by_label) -> ReportTable:
    """Mean similarity and term-action counts per dataset label.

    Accepts either a list of pairs or a mapping label -> pairs; a
    "combined" column is added when more than one label is given.
    """
    if not isinstance(pairs_by_label, dict):
        pairs_by_label = {"all": list(pairs_by_label)}
    labels = list(pairs_by_label)
    if len(labels) > 1:
        pairs_by_label = dict(pairs_by_label)
        pairs_by_label["combined"] = [p for lab in labels for p in pairs_by_label[lab]]
        labels.append("combined")
    if not any(pairs_by_label.values()):
        raise EmptyInputError("pair_summary requires at least one pair")
    table = ReportTable(title="Adjacent query pair summary", columns=labels)
    for label in labels:
        pairs = pairs_by_label[label]
        if not pairs:
            continue
        n = len(pairs)
        table.set(
            "jaccard",
            label,
            float(np.mean([jaccard(p.qn, p.qn1) for p in pairs])),
            population=n,
        )
        table.set(
            "cosine",
            label,
            float(np.mean([cosine_tf(p.qn_bag, p.qn1_bag) for p in pairs])),
            population=n,
        )
        table.set("retained", label, float(np.mean([len(p.retained) for p in pairs])), population=n)
        table.set("removed", label, float(np.mean([len(p.removed) for p in pairs])), population=n)
        table.set("added", label, float(np.mean([len(p.added) for p in pairs])), population=n)
        table.set(
            "all_terms_kept_fraction",
            label,
            float(np.mean([1.0 if not p.removed else 0.0 for p in pairs])),
            population=n,
        )
    return table


def length_by_position(corpus, session_length: int):
    """Mean normalized query length per position over sessions of a
    fixed length; returns [(position, mean_length, count)]."""
    if session_length < 2:
        raise ValueError("session_length must be at least 2")
    lengths_at = {}
    for session in corpus.sessions:
        if len(session.impressions) != session_length:
            continue
        for imp in session.impressions:
            lengths_at.setdefault(imp.position, []).append(imp.query_terms.length)
    return [
        (pos, float(np.mean(vals)), len(vals))
        for pos, vals in sorted(lengths_at.items())
    ]


def similarity_by_position(corpus, include_test_queries: bool = True,
                           max_position: int = DEFAULT_MAX_POSITION):
    """Mean jaccard/cosine of pairs grouped by position n = 1..max."""
    grouped = {}
    for pair in extract_pairs(corpus, include_test_queries):
        if pair.position > max_position:
            continue
        grouped.setdefault(pair.position, []).append(pair)
    series = []
    for pos in sorted(grouped):
        pairs = grouped[pos]
        series.append(
            (
                pos,
                float(np.mean([jaccard(p.qn, p.qn1) for p in pairs])),
                float(np.mean([cosine_tf(p.qn_bag, p.qn1_bag) for p in pairs])),
                len(pairs),
            )
        )
    return series


def fixed_query_similarity(corpus, x: int, max_position: int = DEFAULT_MAX_POSITION):
    """Mean cosine of the query at position x against each position n,
    averaged over sessions containing both positions."""
    if x < 1:
        raise ValueError("fixed position must be >= 1")
    grouped = {}
    for session in corpus.sessions:
        imps = session.impressions
        if len(imps) < x:
            continue
        fixed_bag = imps[x - 1].query_terms
        for imp in imps[:max_position]:
            grouped.setdefault(imp.position, []).append(
                cosine_tf(fixed_bag, imp.query_terms)
            )
    return [(pos, float(np.mean(vals)), len(vals)) for pos, vals in sorted(grouped.items())]
