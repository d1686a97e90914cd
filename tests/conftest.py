import pytest

from sessionterms.corpus import (
    ClickEvent,
    Corpus,
    Impression,
    Session,
    SnippetEntry,
)
from sessionterms.textnorm import NormalizationConfig, TermBag, normalize


@pytest.fixture
def plain_config():
    """No stopwords, no stemming: terms are raw lowercase tokens."""
    return NormalizationConfig(stoplist=frozenset(), stemming_enabled=False)


def make_impression(position, query, config, snippets=(), clicks=(), docids=None):
    """Build an Impression from plain strings.

    snippets: list of snippet text; clicks: list of (rank, start, end).
    """
    results = []
    for i, text in enumerate(snippets, start=1):
        docid = docids[i - 1] if docids else f"doc-{position}-{i}"
        results.append(
            SnippetEntry(
                rank=i,
                url=f"http://example/{docid}",
                docid=docid,
                title="",
                snippet=text,
                terms=normalize(text, config),
            )
        )
    click_events = tuple(
        ClickEvent(rank=rank, order=order, start_time=float(start), end_time=float(end))
        for order, (rank, start, end) in enumerate(clicks, start=1)
    )
    return Impression(
        position=position,
        raw_query=query,
        query_terms=normalize(query, config),
        results=tuple(results),
        clicks=click_events,
    )


def neumaier_sum(values, start=0):
    """Compensated (Neumaier) sum, as the builtin `sum` adds floats from
    Python 3.12 on; exact on integers."""
    total, compensation = start, 0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def summed_bag(bags):
    """The count-summed bag of `bags` by a plain dict loop: the first
    bag's terms in its order, then each later bag's new terms. An oracle
    of `TermBag.union` that never calls it."""
    counts = {}
    for bag in bags:
        for term, count in bag.counts.items():
            counts[term] = counts.get(term, 0) + count
    return TermBag(counts)


def make_corpus(sessions, config, docstore=None, qrels=None, provenance="test"):
    """sessions: list of (session_id, topic_id, [impression, ...])."""
    built = tuple(
        Session(id=sid, topic_id=topic, impressions=tuple(imps))
        for sid, topic, imps in sessions
    )
    return Corpus(
        sessions=built,
        config=config,
        qrels=qrels,
        docstore=docstore,
        provenance=provenance,
    ).validate()


SESSION_40_QUERIES = [
    "gun control opinions",
    "gun control us government",
    "gun control current affairs",
    "gun control current affairs",
    "gun violence us",
    "law center to prevent gun violence",
]


@pytest.fixture
def session40_corpus():
    """Session 40's query list under the full normalization pipeline."""
    config = NormalizationConfig()
    imps = [
        make_impression(i, q, config, snippets=["filler snippet text"])
        for i, q in enumerate(SESSION_40_QUERIES, start=1)
    ]
    return make_corpus([("40", None, imps)], config)
