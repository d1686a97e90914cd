import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from sessionterms import similarity, sources
from sessionterms.actions import extract_pairs
from sessionterms.cli import main
from sessionterms.corpus import Corpus, RelevanceJudgments, to_canonical_json
from sessionterms.ireval import score_impressions
from sessionterms.scenarios import assign_scenarios
from sessionterms.similarity import (
    CollectionStats,
    MissingDocstoreError,
    SourceKind,
    bm25,
    build_stats,
    cosine_tfidf,
    jaccard,
)
from sessionterms.sources import (
    EMPTY,
    LAST_CLICK_COLUMNS,
    SNIPPET_ROWS,
    SOURCE_ROWS,
    SourceIndex,
    _added_bag,
    _last_click_cuts,
    clicked_mask,
    comparison_samples,
    dwell_threshold_curve,
    last_click_rank,
    last_click_similarity,
    rank_prefix_similarity,
    score_pairs,
    source_comparison,
    total_dwell_by_docid,
)
from sessionterms.stattests import pairwise_mean, welch_t
from sessionterms.synthgen import GeneratorSpec, generate

from conftest import make_corpus, make_impression, neumaier_sum, summed_bag
from test_similarity import oracle_row


@pytest.fixture
def planted_corpus(plain_config):
    """One session where the added term 'add1' appears only in the clicked
    snippet and the clicked document."""
    imp1 = make_impression(
        1,
        "a b",
        plain_config,
        snippets=["z1 z2 add1", "z3 z4", "z5 z6"],
        clicks=[(1, 0, 30)],
    )
    imp2 = make_impression(2, "a add1", plain_config, snippets=["z7 z8"])
    docstore = {
        "doc-1-1": "add1 dterm1 dterm2",
        "doc-1-2": "dx1 dx2",
        "doc-1-3": "dy1 dy2",
        "doc-2-1": "dz1",
    }
    return make_corpus([("p", None, [imp1, imp2])], plain_config, docstore=docstore)


class TestExtractSource:
    """The term sources of one impression: its clicked mask, and its
    documents and impression bag in a `SourceIndex`."""

    def test_snippet_partition(self, planted_corpus):
        imp = planted_corpus.sessions[0].impressions[0]
        mask = clicked_mask(imp)
        clicked = [r.terms for r, c in zip(imp.results, mask) if c]
        non = [r.terms for r, c in zip(imp.results, mask) if not c]
        assert len(mask) == 3
        assert len(clicked) == 1
        assert len(non) == 2
        # clicked + non-clicked partition the full snippet list
        merged = sorted(b.counts.items() for b in clicked + non)
        assert merged == sorted(r.terms.counts.items() for r in imp.results)

    def test_planted_membership(self, planted_corpus):
        imp = planted_corpus.sessions[0].impressions[0]
        index = SourceIndex(planted_corpus)
        mask = clicked_mask(imp)
        clicked = [r for r, c in zip(imp.results, mask) if c]
        non = [r for r, c in zip(imp.results, mask) if not c]
        assert any("add1" in r.terms for r in clicked)
        assert all("add1" not in r.terms for r in non)
        assert any("add1" in index.doc_bag(r.docid) for r in clicked)
        assert all("add1" not in index.doc_bag(r.docid) for r in non)

    def test_document_kinds_require_docstore(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"], clicks=[(1, 0, 5)])
        corpus = make_corpus([("x", None, [imp])], plain_config)
        with pytest.raises(MissingDocstoreError):
            build_stats(SourceIndex(corpus), SourceKind.ALL_DOCUMENTS)

    def test_missing_document_recorded(self, planted_corpus, plain_config):
        imp = planted_corpus.sessions[0].impressions[0]
        partial = make_corpus(
            [("p", None, list(planted_corpus.sessions[0].impressions))],
            plain_config,
            docstore={"doc-1-2": "dx1"},
        )
        index = SourceIndex(partial)
        assert None in index.clicked_docs(imp)
        missing = [r.docid for r, c in zip(imp.results, clicked_mask(imp))
                   if c and index.doc_bag(r.docid) is None]
        assert missing == ["doc-1-1"]

    def test_impression_kind_merges_snippets_and_clicked_docs(self, planted_corpus):
        session = planted_corpus.sessions[0]
        imp = session.impressions[0]
        index = SourceIndex(planted_corpus)
        merged = index.impressions(session)[imp.position]
        assert None not in index.clicked_docs(imp)
        expected = summed_bag([*(r.terms for r in imp.results),
                               planted_corpus.doc_terms("doc-1-1")])
        assert merged == expected


class TestHistorical:
    """The historical bags, seen through their collection statistics: a
    term's df is the number of historical bags that hold it, and avgdl
    their mean token count."""

    def test_prefix_monotone(self, planted_corpus):
        session = planted_corpus.sessions[0]
        index = SourceIndex(planted_corpus)
        first = index.impressions(session)[1]
        stats = build_stats(index, SourceKind.HISTORICAL)
        assert stats.N == 2
        # every term of the first bag is in both bags; z7 only in the second
        assert {stats.df[t] for t in first.counts} == {2}
        assert "z7" not in first and stats.df["z7"] == 1

    def test_counts_are_summed(self, plain_config):
        imp1 = make_impression(1, "q", plain_config, snippets=["w w"])
        imp2 = make_impression(2, "q", plain_config, snippets=["w"])
        corpus = make_corpus([("x", None, [imp1, imp2])], plain_config)
        stats = build_stats(SourceIndex(corpus), SourceKind.HISTORICAL)
        # the bags hold 2 and 2 + 1 tokens
        assert (stats.N, stats.df, stats.avgdl) == (2, {"w": 2}, 2.5)


def synth_corpus(session_length=5, sessions=6):
    """A synthgen corpus with test queries and one clicked document
    missing from its docstore."""
    corpus = generate(GeneratorSpec(seed=31, sessions=sessions, session_length=session_length,
                                    click_prob=0.6, with_test_query=True))
    missing = next(imp.result_at(imp.clicks[0].rank).docid
                   for session in corpus.sessions for imp in session.impressions
                   if imp.clicks)
    docstore = {d: text for d, text in corpus.docstore.items() if d != missing}
    return replace(corpus, docstore=docstore)


def definition_rows(pair, bags, stats):
    """(terms, jaccard, cosine, bm25) rows of a pair's added terms against
    bags, each measure called on its own as the definition reads."""
    added = _added_bag(pair)
    return [(float(bag.length), jaccard(pair.added, bag.terms),
             cosine_tfidf(added, bag, stats), bm25(pair.added, bag, stats))
            for bag in bags]


def impression_bag(corpus, imp):
    """The impression bag by its definition: every snippet, then every
    clicked document with text, summed by `summed_bag`; and whether
    every clicked document has text."""
    docs = [corpus.doc_terms(r.docid) for r in imp.results if r.rank in imp.clicked_ranks]
    merged = summed_bag([*(r.terms for r in imp.results), *(d for d in docs if d is not None)])
    return merged, None not in docs


def chained_historical(corpus, session, n):
    """The historical bag by its definition: the impression bags of the
    non-test queries at positions 1..n, summed by `summed_bag`."""
    return summed_bag([impression_bag(corpus, imp)[0] for imp in session.impressions[:n]
                       if not imp.is_test_query])


@pytest.fixture
def shared_docs_corpus(plain_config):
    """Documents listed by several impressions of two sessions, an empty
    snippet and an empty document, a missing document, a pair with no
    added term and an added term no source holds."""
    a = [
        make_impression(1, "a b", plain_config, snippets=["a x", "c d e", ""],
                        docids=["d1", "d2", "d3"], clicks=[(1, 0, 30)]),
        make_impression(2, "a b c", plain_config, snippets=["c y", "z c"],
                        docids=["d2", "d1"], clicks=[(2, 0, 10)]),
        make_impression(3, "a", plain_config, snippets=["a q"], docids=["d1"]),
        make_impression(4, "a unseen", plain_config, snippets=["w"], docids=["d4"]),
    ]
    b = [
        make_impression(1, "c", plain_config, snippets=["c c d", "b"],
                        docids=["d2", "dmissing"], clicks=[(2, 0, 5)]),
        make_impression(2, "c d b", plain_config, snippets=["d"], docids=["d1"]),
    ]
    docstore = {"d1": "a b c x c", "d2": "c d d e", "d3": "", "d4": "w w a"}
    return make_corpus([("A", None, a), ("B", None, b)], plain_config, docstore=docstore)


class TestScoresEqualTheOracles:
    @pytest.mark.parametrize("k1,b", [(1.2, 0.75), (0.0, 0.0), (2.0, 1.0)])
    def test_every_row_equals_the_oracle(self, shared_docs_corpus, k1, b):
        for corpus in (shared_docs_corpus, synth_corpus(sessions=8)):
            pairs = extract_pairs(corpus)
            scored = score_pairs(pairs, corpus, k1, b)
            assert len(scored) == sum(1 for p in pairs if p.before.results)
            index = SourceIndex(corpus)
            stats = {kind: build_stats(index, kind) for kind in (
                SourceKind.ALL_SNIPPETS, SourceKind.ALL_DOCUMENTS, SourceKind.IMPRESSION,
                SourceKind.HISTORICAL)}
            for s in scored:
                added, imp = _added_bag(s.pair), s.pair.before
                assert s.snippets == [oracle_row(added, r.terms, stats[SourceKind.ALL_SNIPPETS],
                                                 k1, b) for r in imp.results]
                bags = [corpus.doc_terms(r.docid) for r in imp.results]
                assert s.documents == [
                    None if bag is None
                    else oracle_row(added, bag, stats[SourceKind.ALL_DOCUMENTS], k1, b)
                    for bag in bags]
                bag, complete = impression_bag(corpus, imp)
                assert s.impression == oracle_row(added, bag, stats[SourceKind.IMPRESSION], k1, b)
                assert (None not in index.clicked_docs(imp)) == complete
                historical = chained_historical(corpus, s.pair.session, s.pair.position)
                assert s.historical == oracle_row(added, historical,
                                                  stats[SourceKind.HISTORICAL], k1, b)

    def test_corpus_covers_the_edge_cases(self, shared_docs_corpus):
        pairs = extract_pairs(shared_docs_corpus)
        assert {frozenset(p.added) for p in pairs} == {
            frozenset({"c"}), frozenset(), frozenset({"unseen"}), frozenset({"b", "d"})}
        assert shared_docs_corpus.doc_terms("d3").counts == {}
        listed = Counter(r.docid for p in pairs for r in p.before.results)
        assert listed["d1"] == 3 and listed["d2"] == 3 and listed["dmissing"] == 1
        index = SourceIndex(shared_docs_corpus)  # dmissing is clicked
        assert [p.session_id for p in pairs if None in index.clicked_docs(p.before)] == ["B"]

    def test_each_documents_norm_is_computed_once_per_call(self, shared_docs_corpus,
                                                           monkeypatch):
        """A document's tf-idf norm is computed once per `score_pairs`
        call, and only for a document that shares an added term with a
        pair whose earlier impression lists it."""
        corpus = shared_docs_corpus
        # each non-empty document's counts, told apart from an empty
        # added-term bag
        docid_of = {tuple(corpus.doc_terms(d).counts.items()): d for d in corpus.docstore
                    if corpus.doc_terms(d).counts}
        assert len(docid_of) == len(corpus.docstore) - 1
        computed = Counter()
        weights, build = similarity._tfidf_weights, sources.build_stats
        document_stats = []

        def tracking(index, kind):
            stats = build(index, kind)
            if kind is SourceKind.ALL_DOCUMENTS:
                document_stats.append(stats)
            return stats

        def counting(counts, stats):
            docid = docid_of.get(tuple(counts.items()))
            if any(stats is s for s in document_stats) and docid is not None:
                computed[docid] += 1
            return weights(counts, stats)

        monkeypatch.setattr(sources, "build_stats", tracking)
        monkeypatch.setattr(similarity, "_tfidf_weights", counting)
        pairs = extract_pairs(corpus)
        needed = {r.docid for p in pairs for r in p.before.results
                  if r.docid in corpus.docstore
                  and p.added & corpus.doc_terms(r.docid).terms}
        assert needed == {"d1", "d2"}  # each listed by three impressions
        for _ in range(2):
            computed.clear()
            score_pairs(pairs, corpus)
            assert computed == Counter(needed)


# Clicked state of the results each snippet or document row holds;
# None for every result.
ROW_CLICKED = {"s(M)": None, "cs": True, "ncs": False, "ad": None, "cd": True, "ncd": False}


def row_instances(corpus, pair, label):
    """(instances, whether every document has text, stats kind) of a
    `source_comparison` row for a pair, by its definition."""
    imp = pair.before
    if label == "historical":
        return [chained_historical(corpus, pair.session, pair.position)], True, \
            SourceKind.HISTORICAL
    if label == "impression":
        bag, complete = impression_bag(corpus, imp)
        return [bag], complete, SourceKind.IMPRESSION
    want = ROW_CLICKED[label]
    chosen = [r for r in imp.results if want is None or (r.rank in imp.clicked_ranks) is want]
    if label in SNIPPET_ROWS:
        return [r.terms for r in chosen], True, SourceKind.ALL_SNIPPETS
    docs = [corpus.doc_terms(r.docid) for r in chosen]
    return ([d for d in docs if d is not None], all(d is not None for d in docs),
            SourceKind.ALL_DOCUMENTS)


@pytest.fixture
def historical_corpus(plain_config):
    """Test queries at the end and in the middle of a session, a term
    that leaves and comes back, an empty snippet and an empty clicked
    document."""
    x = [
        make_impression(1, "a", plain_config, snippets=["x y", ""], docids=["e", "f"],
                        clicks=[(1, 0, 5)]),
        make_impression(2, "a b", plain_config, snippets=["z z"], docids=["f"]),
        make_impression(3, "a b c", plain_config),
        make_impression(4, "b", plain_config, snippets=["x w"], docids=["g"],
                        clicks=[(1, 0, 5)]),
        make_impression(5, "b d", plain_config),
    ]
    y = [make_impression(1, "q", plain_config, snippets=["y"], docids=["g"]),
         make_impression(2, "q r", plain_config)]
    docstore = {"e": "", "f": "y v", "g": "x x"}
    return make_corpus([("X", None, x), ("Y", None, y)], plain_config, docstore=docstore)


def definitional_historical_stats(corpus):
    """Collection statistics of every historical bag, built by definition."""
    return CollectionStats.from_bags(
        [chained_historical(corpus, session, imp.position)
         for session in corpus.sessions for imp in session.impressions
         if not imp.is_test_query])


class TestSharedSourceWork:
    def test_prefixes_match_definition_at_every_position(self):
        """The index holds each non-test query's impression bag, with the
        definition's counts in the same term order, so float sums agree.
        `test_every_row_equals_the_oracle` checks the historical rows
        `score_pairs` sums from them at every pair position."""
        corpus = synth_corpus()
        assert any(s.impressions[-1].is_test_query for s in corpus.sessions)
        index = SourceIndex(corpus)
        for session in corpus.sessions:
            bags = index.impressions(session)
            assert list(bags) == [imp.position for imp in session.impressions
                                  if not imp.is_test_query]
            for position, bag in bags.items():
                imp = session.impressions[position - 1]
                expected, complete = impression_bag(corpus, imp)
                assert list(bag.counts.items()) == list(expected.counts.items())
                assert (None not in index.clicked_docs(imp)) == complete

    def test_historical_stats_match_stats_of_historical_terms(self):
        corpus = synth_corpus()
        direct = definitional_historical_stats(corpus)
        stats = build_stats(SourceIndex(corpus), SourceKind.HISTORICAL)
        assert (stats.N, stats.df, stats.avgdl) == (direct.N, direct.df, direct.avgdl)

    def test_one_pass_historical_stats_equal_the_definition(self, historical_corpus,
                                                           shared_docs_corpus):
        """N, df and avgdl without a historical bag built equal those of
        the bags built by definition, with test queries, a term that
        leaves and comes back, and empty snippets and documents."""
        corpus = historical_corpus
        assert corpus.doc_terms("e").counts == {}  # clicked at X's position 1
        for c in (corpus, shared_docs_corpus, synth_corpus(session_length=7)):
            direct = definitional_historical_stats(c)
            stats = build_stats(SourceIndex(c), SourceKind.HISTORICAL)
            assert (stats.N, stats.df, stats.avgdl) == (direct.N, direct.df, direct.avgdl)
        stats = build_stats(SourceIndex(corpus), SourceKind.HISTORICAL)
        # X's bags: {x y}, {x y z}, {x y z w}; Y's: {y}
        assert stats.N == 4
        assert stats.df == {"x": 3, "y": 4, "z": 2, "w": 1}
        assert stats.avgdl == (2 + 4 + 8 + 1) / 4

    def test_corpus_gains_no_attribute(self):
        """Every analysis keeps what it builds to itself: a corpus holds
        only its dataclass fields after all of them."""
        corpus = synth_corpus()
        corpus = replace(corpus, sessions=tuple(replace(s, topic_id="T") for s in corpus.sessions),
                         qrels=RelevanceJudgments({("T", d): 1 for d in corpus.docstore}))
        pairs = extract_pairs(corpus)
        score_pairs(pairs, corpus)
        assign_scenarios([p for p in pairs if not p.involves_test_query], corpus)
        assert score_impressions(corpus)
        assert set(vars(corpus)) == {f.name for f in fields(Corpus)}

    @pytest.mark.parametrize("policy", ["drop", "empty"])
    def test_source_comparison_equals_per_row_scoring_exactly(self, policy,
                                                              shared_docs_corpus):
        """Every row scored from its own extracted instances, as the
        definition reads; the row subsets of shared scores must give the
        same floats. `shared_docs_corpus` clicks a document without text,
        which the drop policy keeps out of its pair's document and
        impression rows."""
        for corpus in (shared_docs_corpus, synth_corpus(sessions=10)):
            pairs = extract_pairs(corpus)
            index = SourceIndex(corpus)
            samples = {label: [] for label in SOURCE_ROWS}
            for pair in pairs:
                imp = pair.before
                if not imp.results:
                    continue
                for label in SOURCE_ROWS:
                    instances, complete, kind = row_instances(corpus, pair, label)
                    if (complete or policy == EMPTY) and instances:
                        scores = np.asarray(
                            definition_rows(pair, instances, build_stats(index, kind)))
                        samples[label].append(scores.mean(axis=0))
            table = source_comparison(comparison_samples(score_pairs(pairs, corpus), policy))
            assert set(table.rows) == {label for label, rows in samples.items() if rows}
            for label in table.rows:
                rows = samples[label]
                means = np.asarray(rows, dtype=float)
                for i, col in enumerate(["terms", "jaccard", "cosine", "bm25"]):
                    assert table.value(label, col) == float(means[:, i].mean())
                    assert table.get(label, col).population == len(rows)

    def test_analyze_sources_scores_each_pairs_snippets_once(self, tmp_path, monkeypatch):
        """`score_pairs` scores each source kind of each pair once, and
        the four tables of `analyze sources` share those scores."""
        corpus = synth_corpus()
        path = tmp_path / "corpus.json"
        path.write_bytes(to_canonical_json(corpus))
        scored = Counter()
        similarities, added_bag = sources._similarities, sources._added_bag
        build = sources.build_stats
        pair_of = {}  # id of an added-term bag -> (session id, position)
        bags = []  # keeps every added-term bag alive, so no id is reused
        kinds_built = []  # (statistics, source kind), keeping each alive

        def tracking(index, kind):
            kinds_built.append((build(index, kind), kind))
            return kinds_built[-1][0]

        def counting_added_bag(pair):
            bags.append(added_bag(pair))
            pair_of[id(bags[-1])] = (pair.session_id, pair.position)
            return bags[-1]

        def counting(added, bags, stats, k1, b):
            [kind] = [kind for built, kind in kinds_built if built is stats]
            scored[(*pair_of[id(added)], kind)] += 1
            return similarities(added, bags, stats, k1, b)

        monkeypatch.setattr(sources, "build_stats", tracking)
        monkeypatch.setattr(sources, "_added_bag", counting_added_bag)
        monkeypatch.setattr(sources, "_similarities", counting)
        assert main(["analyze", "sources", "--corpus", str(path),
                     "--out-dir", str(tmp_path / "reports")]) == 0
        pairs = extract_pairs(corpus, include_test_queries=False)
        assert len(pairs) > 10
        kinds = [SourceKind.ALL_SNIPPETS, SourceKind.ALL_DOCUMENTS,
                 SourceKind.IMPRESSION, SourceKind.HISTORICAL]
        assert set(scored) == {(p.session_id, p.position, kind) for p in pairs
                               if p.before.results for kind in kinds}
        assert set(scored.values()) == {1}
        assert len(bags) == len(set(pair_of.values()))  # one added-term bag per pair

    def test_one_kinds_statistics_are_alive_at_a_time(self, monkeypatch):
        """`score_pairs` builds the four kinds' statistics in turn, and
        releases each, with its bag sides, before the next is built."""
        corpus = synth_corpus()
        built = []
        build = sources.build_stats

        def tracking(index, kind):
            stats = build(index, kind)
            gc.collect()
            assert [alive for alive, ref in built if ref() is not None] == []
            built.append((kind, weakref.ref(stats)))
            return stats

        monkeypatch.setattr(sources, "build_stats", tracking)
        scored = score_pairs(extract_pairs(corpus), corpus)
        assert len(built) == 4 and scored
        gc.collect()
        assert all(ref() is None for _, ref in built)

    def test_scores_do_not_depend_on_the_builtin_sum(self, plain_config, monkeypatch):
        """No score is a builtin `sum` of floats, which compensates from
        Python 3.12 on: with a compensated `sum` in the modules that
        score, every row keeps its bits. A few frequent terms among many
        rare ones give addends of very different sizes."""
        rng = random.Random(7)
        words = [f"w{i}" for i in range(60)]

        def text(n):
            return " ".join(rng.choice(words[:5] if rng.random() < 0.5 else words)
                            for _ in range(n))

        impressions = [make_impression(pos, text(12), plain_config,
                                       snippets=[text(40) for _ in range(4)],
                                       docids=[f"d{pos}-{k}" for k in range(4)],
                                       clicks=[(1, 0, 9)])
                       for pos in range(1, 5)]
        docstore = {f"d{pos}-{k}": text(300) for pos in range(1, 5) for k in range(4)}
        corpus = make_corpus([("s", None, impressions)], plain_config, docstore=docstore)
        pairs = extract_pairs(corpus)
        expected = score_pairs(pairs, corpus)
        for module in (similarity, sources):
            monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
        assert score_pairs(pairs, corpus) == expected

    @pytest.mark.parametrize("session_length", [6, 12])
    def test_source_comparison_builds_linear_impression_bags(self, session_length,
                                                             monkeypatch):
        """`score_pairs` builds each non-test query's impression bag once
        (the index's one `clicked_mask` call per bag), for the impression
        and historical statistics and the session's scores alike."""
        corpus = synth_corpus(session_length=session_length, sessions=3)
        built = Counter()
        mask = sources.clicked_mask

        def counting(imp):
            built[id(imp)] += 1
            return mask(imp)

        monkeypatch.setattr(sources, "clicked_mask", counting)
        score_pairs(extract_pairs(corpus), corpus)
        assert built == Counter(id(imp) for session in corpus.sessions
                                for imp in session.impressions if not imp.is_test_query)


def prefix_corpus(config, recurring, sessions=6, length=7, depth=10, seed=17):
    """Sessions of `length` queries over rankings of `depth` results, with
    words drawn at random so that the scores have many float digits.
    Each query after the first adds words of the impression before it.
    With `recurring`, a term of each session's first query is in every
    impression, and older words come back too; without it, each
    impression holds only words no earlier impression of its session
    held."""
    rng = random.Random(seed)
    built = []
    for s in range(sessions):
        seen, shown, imps = [], [], []
        for position in range(1, length + 1):
            fresh = [f"s{s}p{position}w{i}" for i in range(depth)]
            query = f"{fresh[0]} {fresh[1]}"
            if position > 1:
                query += " " + " ".join(rng.sample(shown, 3)) + (f" s{s}p1w0" if recurring else "")
            pool = fresh + (seen if recurring else [])
            snippets = [" ".join(rng.choice(pool) for _ in range(rng.randint(1, 8)))
                        for _ in range(depth)]
            if recurring:  # the first query's first term, in every impression
                snippets[-1 if position == 1 else rng.randrange(depth)] += f" s{s}p1w0"
            shown = sorted(set(" ".join(snippets).split()))
            imps.append(make_impression(position, query, config, snippets=snippets,
                                        clicks=[(rng.randint(1, depth), 0, 10)]))
            seen += fresh
        built.append((f"S{s}", None, imps))
    return make_corpus(built, config, docstore={"unlisted": "text"})


class TestIncrementalPrefixes:
    """The historical bags and the rank prefixes are grown one step at a
    time; each must keep the bits of the prefix built on its own."""

    @pytest.mark.parametrize("recurring", [True, False])
    def test_historical_rows_equal_the_measures_on_added_bags(self, plain_config, recurring):
        corpus = prefix_corpus(plain_config, recurring)
        index = SourceIndex(corpus)
        bags = {s.id: list(index.impressions(s).values()) for s in corpus.sessions}
        for session, session_bags in zip(corpus.sessions, bags.values()):
            first_query_term = session.impressions[0].query_terms
            held = [set(bag.counts) for bag in session_bags]
            if recurring:
                assert all(first_query_term.terms & terms for terms in held)
            else:
                assert all(not held[i] & held[j] for j in range(len(held)) for i in range(j))
        stats = build_stats(index, SourceKind.HISTORICAL)
        pairs = extract_pairs(corpus)
        scored = score_pairs(pairs, corpus)
        assert len(scored) == len(pairs) == 6 * 6
        shared = 0
        for s in scored:
            historical = chained_historical(corpus, s.pair.session, s.pair.position)
            [row] = definition_rows(s.pair, [historical], stats)
            assert s.historical == row
            shared += row[2] > 0.0
        assert shared >= len(scored) // 2  # most rows need the bag's norm
        # Pairs out of session order start the running bag afresh.
        backwards = score_pairs(pairs[::-1], corpus)
        assert [s.historical for s in backwards] == [s.historical for s in scored][::-1]

    @pytest.mark.parametrize("recurring", [True, False])
    def test_prefix_tables_equal_pairwise_means_at_every_cut(self, plain_config, recurring):
        """Every cut from 1 to M = 10, and so both sides of the cut at 8
        where `pairwise_mean` stops summing in order."""
        corpus = prefix_corpus(plain_config, recurring, sessions=12)
        scored = score_pairs(extract_pairs(corpus), corpus)
        depth = 10
        assert {len(s.snippets) for s in scored} == {depth}
        table = rank_prefix_similarity(scored, k_max=depth)
        for cut in range(1, depth + 1):
            means = [[pairwise_mean(m) for m in zip(*s.snippets[:cut])] for s in scored]
            for measure, values in zip(["snippet_terms", "jaccard", "cosine", "bm25"],
                                       zip(*means)):
                assert table.value(measure, str(cut)) == pairwise_mean(values)
        by_click = last_click_similarity(scored)
        for col, cuts in zip(LAST_CLICK_COLUMNS, zip(*map(_last_click_cuts,
                                                         (s.pair.before for s in scored)))):
            means = [[pairwise_mean(m) for m in zip(*s.snippets[:cut])]
                     for s, cut in zip(scored, cuts)]
            for measure, values in zip(["snippet_terms", "jaccard", "cosine", "bm25"],
                                       zip(*means)):
                assert by_click.value(measure, col) == pairwise_mean(values)


class TestLastClick:
    def test_rank(self, planted_corpus, plain_config):
        imp = planted_corpus.sessions[0].impressions[0]
        assert last_click_rank(imp) == 1
        clickless = make_impression(1, "q", plain_config, snippets=["s"])
        assert last_click_rank(clickless) is None

    def test_column_m_matches_rank_prefix_full_depth(self):
        spec = GeneratorSpec(seed=5, sessions=15, session_length=3,
                             results_per_query=4, click_prob=0.5)
        corpus = generate(spec)
        pairs = extract_pairs(corpus)
        scored = score_pairs(pairs, corpus)
        lc = last_click_similarity(scored)
        rp = rank_prefix_similarity(scored, k_max=4)
        for row in ["snippet_terms", "jaccard", "cosine", "bm25"]:
            assert lc.value(row, "M") == pytest.approx(rp.value(row, "4"))

    def test_clickless_impressions_fill_every_column_identically(self):
        spec = GeneratorSpec(seed=9, sessions=10, session_length=3, click_prob=0.0)
        corpus = generate(spec)
        table = last_click_similarity(score_pairs(extract_pairs(corpus), corpus))
        for row in ["jaccard", "cosine"]:
            values = {table.value(row, col) for col in ["LC-1", "LC", "LC+1", "LC+2", "M"]}
            assert len(values) == 1

    def test_window_clamped_to_ranking(self, plain_config):
        # last click at rank 1: LC-1 must clamp to 1, LC+2 to M
        imp1 = make_impression(
            1, "a", plain_config, snippets=["x1 add1", "x2"], clicks=[(1, 0, 5)]
        )
        imp2 = make_impression(2, "a add1", plain_config, snippets=["x3"])
        corpus = make_corpus([("c", None, [imp1, imp2])], plain_config)
        table = last_click_similarity(score_pairs(extract_pairs(corpus), corpus))
        assert table.value("jaccard", "LC-1") == table.value("jaccard", "LC")
        assert table.value("snippet_terms", "LC+2") == table.value("snippet_terms", "M")


class TestRankPrefix:
    def test_prefix_one_scores_first_snippet_only(self, planted_corpus):
        scored = score_pairs(extract_pairs(planted_corpus), planted_corpus)
        table = rank_prefix_similarity(scored, k_max=3)
        # rank-1 snippet is "z1 z2 add1", added = {add1}
        assert table.value("jaccard", "1") == pytest.approx(1 / 3)
        assert table.value("snippet_terms", "1") == 3.0

    def test_prefix_means_average_over_ranks(self, planted_corpus):
        scored = score_pairs(extract_pairs(planted_corpus), planted_corpus)
        table = rank_prefix_similarity(scored, k_max=3)
        # ranks 2 and 3 share no terms with the addition
        assert table.value("jaccard", "3") == pytest.approx((1 / 3) / 3)
        assert table.value("snippet_terms", "3") == pytest.approx((3 + 2 + 2) / 3)

    def test_planted_clicked_prefix_dominates(self):
        # additions planted only into clicked snippets and clicks skewed
        # to rank 1 make short prefixes more similar than deep ones
        spec = GeneratorSpec(seed=21, sessions=60, session_length=4, p_keep=0.4,
                             p_cs=0.9, force_click=True, click_prob=0.2,
                             results_per_query=5)
        corpus = generate(spec)
        table = rank_prefix_similarity(score_pairs(extract_pairs(corpus), corpus), k_max=5)
        assert table.value("jaccard", "1") > table.value("jaccard", "5")


class TestSourceComparison:
    def test_planted_clicked_dominance(self):
        spec = GeneratorSpec(seed=13, sessions=80, session_length=4, p_keep=0.4,
                             p_cs=0.8, p_cd=0.8, p_ncs=0.1,
                             force_click=True, click_prob=0.3)
        corpus = generate(spec)
        table = source_comparison(comparison_samples(score_pairs(extract_pairs(corpus), corpus)))
        assert table.value("cs", "jaccard") > table.value("ncs", "jaccard")
        assert table.value("cd", "jaccard") > table.value("ncd", "jaccard")
        assert table.value("cs", "cosine") > table.value("ncs", "cosine")

    def test_planted_dominance_marked_significant(self):
        spec = GeneratorSpec(seed=13, sessions=80, session_length=4, p_keep=0.4,
                             p_cs=0.8, p_cd=0.8, p_ncs=0.1,
                             force_click=True, click_prob=0.3)
        corpus = generate(spec)
        table = source_comparison(comparison_samples(score_pairs(extract_pairs(corpus), corpus)))
        assert table.get("cs", "jaccard").significant
        assert table.get("cd", "jaccard").significant
        assert table.get("cs", "jaccard").p_value < 0.01

    @pytest.mark.parametrize("spec,exact_cells,significant", [
        (GeneratorSpec(seed=13, sessions=80, session_length=4, p_keep=0.4, p_cs=0.8,
                       p_cd=0.8, p_ncs=0.1, force_click=True, click_prob=0.3), 6, 6),
        (GeneratorSpec(seed=32, sessions=12, session_length=3, p_cs=0.3, p_ncs=0.2,
                       force_click=True), 3, 1),
        (GeneratorSpec(seed=12, sessions=12, session_length=3, p_cs=0.3, p_ncs=0.2,
                       force_click=True), 3, 0),
        (GeneratorSpec(seed=1, sessions=30, session_length=4, p_cs=0.1, p_ncs=0.3,
                       force_click=True), 0, 0),
    ])
    def test_normal_tail_bound_changes_no_byte(self, spec, exact_cells, significant,
                                               monkeypatch):
        """The bound only skips p-values that could not be significant:
        the table equals the one with every p-value computed.
        `exact_cells` cells are left to welch_t, `significant` of them
        are marked."""
        corpus = generate(spec)
        samples = comparison_samples(score_pairs(extract_pairs(corpus), corpus))
        compared = []

        def counting_welch_t(a, b):
            compared.append(a)
            return welch_t(a, b)

        monkeypatch.setattr(sources, "welch_t", counting_welch_t)
        table = source_comparison(samples)
        assert len(compared) == 2 * exact_cells
        assert sum(cell.significant for cell in table.cells.values()) == significant
        monkeypatch.setattr(sources, "welch_may_be_significant", lambda a, b, alpha: True)
        assert source_comparison(samples).to_csv() == table.to_csv()

    def test_without_docstore_degrades_to_snippet_rows(self, plain_config):
        spec = GeneratorSpec(seed=13, sessions=20, session_length=3,
                             p_cs=0.5, force_click=True)
        corpus = generate(spec)
        snippets_only = make_corpus(
            [(s.id, s.topic_id, list(s.impressions)) for s in corpus.sessions],
            corpus.config,
        )
        table = source_comparison(comparison_samples(
            score_pairs(extract_pairs(snippets_only), snippets_only)))
        assert set(table.rows) == {"s(M)", "cs", "ncs"}
        assert any("no docstore" in note for note in table.footnotes)

    def test_all_rows_present_with_docstore(self):
        spec = GeneratorSpec(seed=2, sessions=20, session_length=3,
                             p_cs=0.5, p_cd=0.5, force_click=True)
        corpus = generate(spec)
        table = source_comparison(comparison_samples(score_pairs(extract_pairs(corpus), corpus)))
        assert set(table.rows) == {
            "s(M)", "cs", "ncs", "ad", "cd", "ncd", "impression", "historical"
        }


class TestDwell:
    def test_total_dwell_sums_repeat_clicks(self, plain_config):
        imp = make_impression(
            1, "q", plain_config, snippets=["s1", "s2"],
            clicks=[(1, 0, 10), (2, 20, 25), (1, 30, 45)],
        )
        assert total_dwell_by_docid(imp) == {"doc-1-1": 25.0, "doc-1-2": 5.0}

    def test_threshold_zero_keeps_all_clicked_docs(self, planted_corpus):
        scored = score_pairs(extract_pairs(planted_corpus), planted_corpus)
        curve = dwell_threshold_curve(scored, thresholds=(0,))
        assert curve == [(0, pytest.approx(curve[0][1]), 1)]
        assert curve[0][1] > 0.0  # clicked doc contains the added term

    def test_surviving_docs_monotone_nonincreasing(self):
        spec = GeneratorSpec(seed=31, sessions=40, session_length=3,
                             click_prob=0.6, p_cd=0.5, force_click=True)
        corpus = generate(spec)
        curve = dwell_threshold_curve(score_pairs(extract_pairs(corpus), corpus))
        survivors = [s for _, _, s in curve]
        assert survivors == sorted(survivors, reverse=True)
        assert survivors[0] > 0

    def test_threshold_beyond_max_dwell_drops_everything(self, planted_corpus):
        scored = score_pairs(extract_pairs(planted_corpus), planted_corpus)
        assert dwell_threshold_curve(scored, thresholds=(1000,)) == []

    def test_reads_the_document_scores_without_scoring_again(self, planted_corpus,
                                                             monkeypatch):
        scored = score_pairs(extract_pairs(planted_corpus), planted_corpus)
        expected = dwell_threshold_curve(scored, thresholds=(0,))

        def fail(*args, **kwargs):
            raise AssertionError("dwell_threshold_curve scored a source")

        for name in ("_similarities", "QuerySide", "BagSide"):
            monkeypatch.setattr(sources, name, fail)
        assert dwell_threshold_curve(scored, thresholds=(0,)) == expected
        assert expected[0][1] == scored[0].documents[0][2]  # the clicked document's cosine

    def test_requires_docstore(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"], clicks=[(1, 0, 5)])
        imp2 = make_impression(2, "q r", plain_config, snippets=["s"])
        corpus = make_corpus([("x", None, [imp, imp2])], plain_config)
        with pytest.raises(MissingDocstoreError):
            dwell_threshold_curve(score_pairs(extract_pairs(corpus), corpus))


# Eight added terms, some repeated in the later query, against snippets
# that hold several of them with different counts: summed in set order,
# the cosine and BM25 floats differ between hash seeds.
HASH_SEED_SCRIPT = """
from conftest import make_corpus, make_impression
from test_similarity import oracle_row
from sessionterms.actions import extract_pairs
from sessionterms.similarity import BagSide, SourceKind, build_stats
from sessionterms.sources import SourceIndex, _added_bag, _similarities
from sessionterms.textnorm import NormalizationConfig

config = NormalizationConfig(stoplist=frozenset(), stemming_enabled=False)
snippets = [
    "eta alpha epsilon x theta eta epsilon theta zeta",
    "delta x gamma epsilon gamma beta y epsilon x y gamma epsilon",
    "beta z zeta theta",
    "beta zeta eta zeta y z delta x theta theta x",
]
later = "alpha beta gamma delta epsilon zeta eta theta epsilon alpha alpha beta eta"
first = make_impression(1, "q", config, snippets=snippets)
second = make_impression(2, "q " + later, config, snippets=["s"])
corpus = make_corpus([("h", None, [first, second])], config)
[pair] = extract_pairs(corpus)
stats = build_stats(SourceIndex(corpus), SourceKind.ALL_SNIPPETS)
print(repr(_similarities(_added_bag(pair), [BagSide(r.terms, stats) for r in first.results],
                         stats, 1.2, 0.75)))
"""


def test_scores_do_not_depend_on_the_hash_seed():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs
