import json
import random
from dataclasses import replace

import pytest

from sessionterms.corpus import (
    IngestError,
    RelevanceJudgments,
    attach_documents,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    merge,
    normalization_settings,
    to_canonical_json,
)
from sessionterms.sources import SourceIndex
from sessionterms.textnorm import NormalizationConfig

from conftest import make_corpus, make_impression

SESSION_XML = """<sessions>
  <session num="40">
    <topic num="13"/>
    <interaction>
      <currentquery>gun control opinions</currentquery>
      <results>
        <result rank="1">
          <url>http://a</url><docid>doc-a</docid>
          <title>Gun Control</title><snippet>opinions on gun control</snippet>
        </result>
        <result rank="2">
          <url>http://b</url><docid>doc-b</docid>
          <title>US Gov</title><snippet>us government info guide</snippet>
        </result>
      </results>
      <clicked>
        <click starttime="12.5" endtime="40.0"><rank>2</rank></click>
      </clicked>
    </interaction>
    <interaction>
      <currentquery>gun control us government</currentquery>
      <results>
        <result rank="1">
          <url>http://c</url><docid>doc-c</docid>
          <title>Guide</title><snippet>government guide</snippet>
        </result>
      </results>
    </interaction>
  </session>
</sessions>
"""

TEST_QUERY_XML = """<sessions>
  <session num="7">
    <interaction>
      <currentquery>first query</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>d1</docid><title>t</title><snippet>s</snippet></result>
      </results>
    </interaction>
    <currentquery>final test query</currentquery>
  </session>
</sessions>
"""


@pytest.fixture
def xml_corpus(tmp_path):
    path = tmp_path / "sessions.xml"
    path.write_text(SESSION_XML)
    return ingest_trec_xml(path, NormalizationConfig())


class TestIngestXml:
    def test_structure_preserved(self, xml_corpus):
        assert len(xml_corpus.sessions) == 1
        session = xml_corpus.sessions[0]
        assert session.id == "40"
        assert session.topic_id == "13"
        assert len(session.impressions) == 2
        assert len(session.impressions[0].results) == 2
        assert len(session.impressions[0].clicks) == 1
        click = session.impressions[0].clicks[0]
        assert click.rank == 2
        assert click.dwell == pytest.approx(27.5)

    def test_snippet_terms_include_title(self, xml_corpus):
        entry = xml_corpus.sessions[0].impressions[0].result_at(2)
        # title "US Gov" joins the snippet before normalization
        assert "gov" in entry.terms

    def test_trailing_query_without_results_is_test_query(self, tmp_path):
        path = tmp_path / "t.xml"
        path.write_text(TEST_QUERY_XML)
        corpus = ingest_trec_xml(path, NormalizationConfig())
        session = corpus.sessions[0]
        assert session.impressions[-1].is_test_query
        assert session.impressions[-1].results == ()
        assert session.impressions[-1].raw_query == "final test query"

    def test_interaction_without_results_is_test_query(self, tmp_path):
        xml = TEST_QUERY_XML.replace(
            "<currentquery>final test query</currentquery>",
            "<interaction><currentquery>final test query</currentquery></interaction>",
        )
        path = tmp_path / "t.xml"
        path.write_text(xml)
        corpus = ingest_trec_xml(path, NormalizationConfig())
        assert corpus.sessions[0].impressions[-1].is_test_query

    def test_negative_dwell_rejected(self, tmp_path):
        xml = SESSION_XML.replace('starttime="12.5" endtime="40.0"', 'starttime="50" endtime="40"')
        path = tmp_path / "bad.xml"
        path.write_text(xml)
        with pytest.raises(IngestError, match="end time before start"):
            ingest_trec_xml(path, NormalizationConfig())

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_text("<sessions><session>")
        with pytest.raises(IngestError, match="malformed XML"):
            ingest_trec_xml(path, NormalizationConfig())

    def test_missing_rank_names_session(self, tmp_path):
        xml = SESSION_XML.replace('rank="1"', "", 1)
        path = tmp_path / "norank.xml"
        path.write_text(xml)
        with pytest.raises(IngestError, match="40"):
            ingest_trec_xml(path, NormalizationConfig())

    def test_non_numeric_rank_names_session_and_attribute(self, tmp_path):
        xml = SESSION_XML.replace('rank="1"', 'rank="first"', 1)
        path = tmp_path / "wordrank.xml"
        path.write_text(xml)
        with pytest.raises(IngestError, match="session '40': result rank 'first' is not an integer"):
            ingest_trec_xml(path, NormalizationConfig())

    def test_click_rank_outside_ranking_rejected(self, tmp_path):
        xml = SESSION_XML.replace("<rank>2</rank>", "<rank>9</rank>")
        path = tmp_path / "badrank.xml"
        path.write_text(xml)
        with pytest.raises(IngestError, match="click rank"):
            ingest_trec_xml(path, NormalizationConfig())

    @pytest.mark.parametrize("result, click, expected", [
        ('<result rank="2"><docid>d</docid>', '<click rank="2" starttime="3" endtime="7">',
         (2, "d", 2, 3.0, 7.0)),
        ("<result><rank>2</rank><docid>d</docid>",
         "<click><rank>2</rank><starttime>3</starttime><endtime>7</endtime>",
         (2, "d", 2, 3.0, 7.0)),
        ('<result rank="2"><rank>1</rank><docid>d</docid>',
         '<click rank="2" starttime="3" endtime="7"><rank>1</rank><starttime>0</starttime>',
         (2, "d", 2, 3.0, 7.0)),
        ('<result rank="2"><docid>d</docid>', '<click rank="2" endtime="7">', (2, "d", 2, 0.0, 7.0)),
        ('<result rank="2"><docid>d</docid>', "<click><rank>2</rank><starttime>3</starttime>",
         (2, "d", 2, 3.0, 3.0)),
        ('<result rank="2"><docid>d</docid>', '<click rank="2">', (2, "d", 2, 0.0, 0.0)),
        *[(f'<result rank="2"><{tag}>d</{tag}>', '<click rank="2">', (2, "d", 2, 0.0, 0.0))
          for tag in ("clueweb12id", "clueweb09id", "clueweb12-id", "clueweb09-id")],
    ], ids=["attributes", "children", "attribute-before-child", "no-starttime", "no-endtime",
            "no-times", "clueweb12id", "clueweb09id", "clueweb12-id", "clueweb09-id"])
    def test_field_forms(self, tmp_path, result, click, expected):
        """A rank or click time is read from an attribute, else from a
        child element; a missing start time is 0 and a missing end time
        the start; a docid may be under any of the clueweb tags."""
        path = tmp_path / "fields.xml"
        path.write_text(
            '<sessions><session num="1"><interaction><currentquery>q</currentquery><results>'
            '<result rank="1"><docid>first</docid></result>'
            f"{result}<url>u</url><title>t</title><snippet>s</snippet></result>"
            f"</results><clicked>{click}</click></clicked></interaction></session></sessions>")
        imp = ingest_trec_xml(path, NormalizationConfig()).sessions[0].impressions[0]
        entry, event = imp.results[1], imp.clicks[0]
        assert (entry.rank, entry.docid, event.rank, event.start_time, event.end_time) == expected


class TestIngestQrels:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("101 0 clueweb09-en0001-02-21241 2\n")
        qrels = ingest_qrels(path)
        assert qrels.grade("101", "clueweb09-en0001-02-21241") == 2

    def test_negative_grade_clamped(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("101 0 docA -2\n")
        assert ingest_qrels(path).grade("101", "docA") == 0

    def test_non_integer_grade_reports_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("101 0 docA 1\n101 0 docB seven\n")
        with pytest.raises(IngestError, match=":2"):
            ingest_qrels(path)

    def test_grade_above_scale_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("101 0 docA 5\n")
        with pytest.raises(IngestError, match="above scale"):
            ingest_qrels(path)

    def test_unjudged_is_zero(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("101 0 docA 3\n")
        assert ingest_qrels(path).grade("101", "unseen") == 0


def _scanned_index(qrels, topic_id):
    """Pool (sorted descending) and relevant count by a scan of `grades`."""
    pool = [g for (t, _), g in qrels.grades.items() if t == topic_id]
    return sorted(pool, reverse=True), sum(1 for g in pool if g > 0)


def _indexed(qrels, topic_id):
    return qrels.topic_pool(topic_id), qrels.topic_relevant_count(topic_id)


class TestJudgmentIndex:
    def test_index_equals_scan_of_ingested_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text(
            "101 0 dA 3\n101 0 dB -2\n101 0 dC 0\n101 0 dD 1\n"
            "102 0 dA 0\n102 0 dE -1\n"  # every grade of topic 102 is 0
            "103 0 dF 4\n101 0 dG 3\n"
        )
        qrels = ingest_qrels(path)
        assert _indexed(qrels, "101") == ([3, 3, 1, 0, 0], 3)  # -2 clamped to 0
        assert _indexed(qrels, "102") == ([0, 0], 0)
        assert _indexed(qrels, "unknown") == ([], 0)
        for topic in ("101", "102", "103", "unknown"):
            assert _indexed(qrels, topic) == _scanned_index(qrels, topic)

    def test_index_equals_scan_on_random_judgments(self):
        rng = random.Random(7)
        grades = {(f"t{rng.randrange(6)}", f"d{i}"): rng.randint(-1, 4)
                  for i in range(300)}
        qrels = RelevanceJudgments(grades)
        for topic in [f"t{i}" for i in range(7)]:
            assert _indexed(qrels, topic) == _scanned_index(qrels, topic)

    def test_index_of_merged_corpora(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"])
        a = make_corpus([("x", "t1", [imp])], plain_config,
                        qrels=RelevanceJudgments({("t1", "d1"): 2, ("t1", "d2"): 0,
                                                  ("t2", "d1"): 1}))
        b = make_corpus([("x", "t2", [imp])], plain_config,
                        qrels=RelevanceJudgments({("t2", "d1"): 0, ("t2", "d3"): 3,
                                                  ("t3", "d4"): 0}))
        qrels = merge([a, b]).qrels
        assert _indexed(qrels, "t2") == ([3, 0], 1)  # b's grade of d1 wins
        for topic in ("t1", "t2", "t3", "t4"):
            assert _indexed(qrels, topic) == _scanned_index(qrels, topic)

    def test_pool_is_a_fresh_list(self):
        qrels = RelevanceJudgments({("t", "d1"): 1, ("t", "d2"): 2})
        qrels.topic_pool("t").append(4)
        assert qrels.topic_pool("t") == [2, 1]


def complete(corpus):
    """{(session id, position): whether every clicked document has text}
    of the corpus's non-test queries, as `SourceIndex` derives it."""
    index = SourceIndex(corpus)
    return {(s.id, imp.position): None not in index.clicked_docs(imp)
            for s in corpus.sessions for imp in s.impressions if not imp.is_test_query}


class TestAttachDocuments:
    def test_all_clicked_present(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc-b").write_text("<html><body>full text</body></html>")
        corpus = attach_documents(xml_corpus, docs)
        assert complete(corpus) == {("40", 1): True, ("40", 2): True}
        assert "full" in corpus.doc_terms("doc-b")

    def test_missing_clicked_doc_flags_impression(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        corpus = attach_documents(xml_corpus, docs)
        assert complete(corpus)[("40", 1)] is False

    def test_unclicked_impressions_not_flagged(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        corpus = attach_documents(xml_corpus, docs)
        assert complete(corpus)[("40", 2)] is True

    def test_completeness_follows_the_merged_docstore(self, plain_config):
        """Each corpus's docstore holds only the other's clicked document;
        merged, every clicked document has text, under the renamed
        session id too."""
        def corpus(docid, other):
            imp = make_impression(1, "q", plain_config, snippets=["s"], docids=[docid],
                                  clicks=[(1, 0, 5)])
            return make_corpus([("1", None, [imp])], plain_config,
                               docstore={other: "text of " + other})

        a, b = corpus("doc-a", "doc-b"), corpus("doc-b", "doc-a")
        assert complete(a) == complete(b) == {("1", 1): False}
        assert complete(merge([a, b])) == {("1", 1): True, ("1:1", 1): True}

    def test_texts_equal_a_text_mode_read(self, xml_corpus, tmp_path):
        """Each document's text is what a text-mode UTF-8 read with
        `errors="replace"` returns, in sorted name order: line ends,
        invalid bytes, a BOM and an empty file included. A subdirectory,
        a dangling symlink and a symlink loop are skipped; a symlink to a
        file is read."""
        docs = tmp_path / "docs"
        docs.mkdir()
        files = {
            "crlf": b"one\r\ntwo\r\n",
            "lone-cr": b"one\rtwo\r\rthree",
            "trailing-cr": b"text\r",
            "cr-before-crlf": b"a\r\r\nb\n\r",
            "invalid-utf8": b"caf\xc3 \xff\xfe ok \xe2\x82\r\n end \xe2",
            "bom": b"\xef\xbb\xbfwith bom\n",
            "empty": b"",
            # a CRLF across the text-mode reader's 8192-byte chunk edge,
            # and more than one 64 KiB read
            "long": b"x" * 8191 + b"\r\n" + "é".encode() * 40000 + b"\r",
            "B-upper": b"sorted before lower case",
        }
        for name, data in files.items():
            (docs / name).write_bytes(data)
        (docs / "subdir").mkdir()
        (docs / "subdir" / "inner").write_text("not a document")
        (docs / "link").symlink_to(docs / "crlf")
        (docs / "dangling").symlink_to(tmp_path / "missing")
        (docs / "loop").symlink_to(docs / "loop")
        names = sorted([*files, "link"])
        expected = {}
        for name in names:
            with open(docs / name, encoding="utf-8", errors="replace") as f:
                expected[name] = f.read()
        docstore = attach_documents(xml_corpus, docs).docstore
        assert list(docstore) == names
        assert docstore == expected
        assert docstore["crlf"] == docstore["link"] == "one\ntwo\n"
        assert docstore["lone-cr"] == "one\ntwo\n\nthree"
        assert docstore["bom"] == "\ufeffwith bom\n"


def whole_document_json(corpus):
    """The canonical JSON by its definition: one `json.dumps` of the
    whole document."""
    doc = {
        "schema": 1,
        "provenance": corpus.provenance,
        "normalization": normalization_settings(corpus.config),
        "sessions": [
            {
                "id": s.id,
                "topic_id": s.topic_id,
                "impressions": [
                    {
                        "position": imp.position,
                        "raw_query": imp.raw_query,
                        "query_terms": imp.query_terms.counts,
                        "results": [
                            {"rank": r.rank, "url": r.url, "docid": r.docid, "title": r.title,
                             "snippet": r.snippet, "terms": r.terms.counts}
                            for r in imp.results
                        ],
                        "clicks": [
                            {"rank": c.rank, "order": c.order, "start_time": c.start_time,
                             "end_time": c.end_time}
                            for c in imp.clicks
                        ],
                    }
                    for imp in s.impressions
                ],
            }
            for s in corpus.sessions
        ],
        "qrels": (sorted([t, d, g] for (t, d), g in corpus.qrels.grades.items())
                  if corpus.qrels is not None else None),
        "docstore": corpus.docstore,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


class TestCanonicalJson:
    def test_chunks_join_to_the_whole_document(self, xml_corpus, tmp_path, plain_config):
        """The streamed chunks give the bytes of one `json.dumps` of the
        whole document: with and without a docstore and qrels, with an
        empty docstore and no session, with non-ASCII text and escapes,
        with an incomplete impression, and with bags whose terms are not
        in sorted order."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc-a").write_text("café \"quoted\" \\ naïve\n日本語 \u2028", encoding="utf-8")
        with_docs = replace(attach_documents(xml_corpus, docs),
                            qrels=RelevanceJudgments({("13", "doc-b"): 3, ("13", "doc-a"): 0}))
        assert not all(complete(with_docs).values())
        non_ascii = make_corpus(
            [("Ω-1", "τ", [make_impression(1, "über café", plain_config, snippets=["naïve 日本"],
                                           docids=["дoc"], clicks=[(1, 0, 5)]),
                           make_impression(2, "über", plain_config)])],
            plain_config, docstore={"дoc": "ünïcode", "a\tb": ""}, provenance="crème")
        unsorted = make_corpus(
            [("u", None, [make_impression(1, "zebra apple zebra mango", plain_config,
                                          snippets=["yak bee ant yak"]),
                          make_impression(2, "zebra", plain_config)])],
            plain_config)
        first = unsorted.sessions[0].impressions[0]
        for bag in (first.query_terms, first.results[0].terms):
            assert list(bag.counts) != sorted(bag.counts)
        corpora = [xml_corpus, with_docs, non_ascii, unsorted,
                   replace(xml_corpus, sessions=(), docstore={}),
                   replace(xml_corpus, qrels=RelevanceJudgments({}))]
        for corpus in corpora:
            assert to_canonical_json(corpus) == whole_document_json(corpus)

    def test_round_trip_identity(self, xml_corpus):
        again = from_canonical_json(to_canonical_json(xml_corpus))
        assert again == xml_corpus

    def test_round_trip_with_docstore_and_qrels(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc-b").write_text("document body text")
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text("13 0 doc-b 3\n")
        corpus = replace(attach_documents(xml_corpus, docs), qrels=ingest_qrels(qrels_path))
        again = from_canonical_json(to_canonical_json(corpus))
        assert again == corpus
        assert again.docstore == {"doc-b": "document body text"}

    def test_incomplete_impressions_key_is_ignored(self, xml_corpus, tmp_path):
        """A corpus written with the former `incomplete_impressions` member
        loads to the corpus without it, which is written without it."""
        docs = tmp_path / "docs"
        docs.mkdir()
        corpus = attach_documents(xml_corpus, docs)
        doc = json.loads(to_canonical_json(corpus))
        assert "incomplete_impressions" not in doc
        doc["incomplete_impressions"] = [["40", 1]]
        loaded = from_canonical_json(json.dumps(doc).encode("utf-8"))
        assert loaded == from_canonical_json(to_canonical_json(corpus)) == corpus
        assert to_canonical_json(loaded) == to_canonical_json(corpus)

    def test_truncated_stream(self, xml_corpus):
        data = to_canonical_json(xml_corpus)
        with pytest.raises(IngestError, match="decode"):
            from_canonical_json(data[: len(data) // 2])

    def test_unsupported_schema_version(self, xml_corpus):
        data = to_canonical_json(xml_corpus).replace(b'"schema":1', b'"schema":99')
        with pytest.raises(IngestError, match="unsupported"):
            from_canonical_json(data)

    def test_serialization_deterministic(self, xml_corpus):
        assert to_canonical_json(xml_corpus) == to_canonical_json(xml_corpus)


class TestValidation:
    def test_duplicate_session_ids_rejected(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"])
        with pytest.raises(IngestError, match="duplicate"):
            make_corpus([("x", None, [imp]), ("x", None, [imp])], plain_config)

    def test_merge_relabels_collisions(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"])
        a = make_corpus([("x", None, [imp])], plain_config)
        b = make_corpus([("x", None, [imp])], plain_config)
        merged = merge([a, b])
        assert {s.id for s in merged.sessions} == {"x", "1:x"}
        # A prefixed id that is taken too is prefixed again.
        c = make_corpus([("2:x", None, [imp])], plain_config)
        merged = merge([c, a, b])
        assert [s.id for s in merged.sessions] == ["2:x", "x", "2:2:x"]

    def test_merge_rejects_different_normalization(self, plain_config):
        imp = make_impression(1, "q", plain_config, snippets=["s"])
        a = make_corpus([("x", None, [imp])], plain_config, provenance="a.xml")
        b = make_corpus([("y", None, [imp])], replace(plain_config, stemming_enabled=True),
                        provenance="b.xml")
        with pytest.raises(IngestError, match="normalization configs: 'a.xml' and 'b.xml'"):
            merge([a, b])
        assert len(merge([a, replace(b, config=plain_config)]).sessions) == 2
