from dataclasses import replace

import pytest

from sessionterms.corpus import (
    IngestError,
    attach_documents,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    merge,
    to_canonical_json,
)
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
        assert session.has_test_query
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
        assert corpus.sessions[0].has_test_query

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

    def test_click_rank_outside_ranking_rejected(self, tmp_path):
        xml = SESSION_XML.replace("<rank>2</rank>", "<rank>9</rank>")
        path = tmp_path / "badrank.xml"
        path.write_text(xml)
        with pytest.raises(IngestError, match="click rank"):
            ingest_trec_xml(path, NormalizationConfig())


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


class TestAttachDocuments:
    def test_all_clicked_present(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "doc-b").write_text("<html><body>full text</body></html>")
        corpus = attach_documents(xml_corpus, docs)
        assert corpus.incomplete_impressions == frozenset()
        assert "full" in corpus.doc_terms("doc-b")

    def test_missing_clicked_doc_flags_impression(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        corpus = attach_documents(xml_corpus, docs)
        assert corpus.incomplete_impressions == frozenset({("40", 1)})

    def test_unclicked_impressions_not_flagged(self, xml_corpus, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        corpus = attach_documents(xml_corpus, docs)
        assert ("40", 2) not in corpus.incomplete_impressions


class TestCanonicalJson:
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
