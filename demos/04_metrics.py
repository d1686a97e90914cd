"""Evaluate ranking quality around reformulations with NDCG@10, NERR@10
and MAP, and test per-scenario metric changes for significance.

A small corpus is built by hand: each session has a topic, and the
second query of every session ranks the relevant document higher than
the first did, so every metric delta is positive.

Run: python3 demos/04_metrics.py
"""

from sessionterms import NormalizationConfig, normalize
from sessionterms.corpus import (
    Corpus,
    Impression,
    RelevanceJudgments,
    Session,
    SnippetEntry,
)
from sessionterms.actions import extract_pairs
from sessionterms.ireval import metrics_by_position, scenario_metric_eval, score_impressions
from sessionterms.scenarios import assign_scenarios

CONFIG = NormalizationConfig(stoplist=frozenset(), stemming_enabled=False)


def impression(position, query, snippets, docids):
    results = tuple(
        SnippetEntry(
            rank=r,
            url=f"http://demo/{docid}",
            docid=docid,
            title="",
            snippet=text,
            terms=normalize(text, CONFIG),
        )
        for r, (text, docid) in enumerate(zip(snippets, docids), start=1)
    )
    return Impression(
        position=position,
        raw_query=query,
        query_terms=normalize(query, CONFIG),
        results=results,
        clicks=(),
    )


def build_corpus(n_sessions=15):
    sessions = []
    grades = {}
    for i in range(n_sessions):
        topic = f"topic-{i}"
        relevant, other = f"rel-{i}", f"other-{i}"
        # first query buries the relevant doc at rank 2; after adding the
        # term "refine" (seen in a snippet) it rises to rank 1
        first = impression(1, "base query", ["noise refine", "text"], [other, relevant])
        second = impression(2, "base query refine", ["text", "noise"], [relevant, other])
        sessions.append(Session(id=f"s{i}", topic_id=topic, impressions=(first, second)))
        grades[(topic, relevant)] = 3
    return Corpus(
        sessions=tuple(sessions),
        config=CONFIG,
        qrels=RelevanceJudgments(grades),
        provenance="metrics demo",
    ).validate()


def main():
    corpus = build_corpus()

    print("macro-averaged metrics by query position:")
    metrics = score_impressions(corpus)
    for pos, ndcg, nerr, ap, count in metrics_by_position(metrics):
        print(f"  position {pos}: NDCG@10 {ndcg:.4f}  NERR@10 {nerr:.4f}  "
              f"MAP {ap:.4f}  ({count} impressions)")
    print()

    records = assign_scenarios(extract_pairs(corpus), corpus)
    table = scenario_metric_eval(records, metrics)
    print(table.to_markdown())
    print("every session improves identically, so the added-term rows are "
          "uniformly positive and the Wilcoxon signed-rank test marks them "
          "significant (bold) despite the small sample.")


if __name__ == "__main__":
    main()
