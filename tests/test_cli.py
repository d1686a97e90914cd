import csv
import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from scipy.special import betainc

from sessionterms import cli, stattests, synthgen
from sessionterms.actions import QueryPair, extract_pairs
from sessionterms.cli import main
from sessionterms.corpus import (
    attach_documents,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    to_canonical_json,
)
from sessionterms.sources import ScoredPair, score_pairs
from sessionterms.stattests import column_means
from sessionterms.textnorm import NormalizationConfig

from test_golden import write_english_inputs, write_inputs

SESSION_XML = """<sessions>
  <session num="1">
    <topic num="T"/>
    <interaction>
      <currentquery>gun control opinions</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dA</docid><title>t</title>
          <snippet>gun control opinions and news</snippet></result>
        <result rank="2"><url>u</url><docid>dB</docid><title>t</title>
          <snippet>violence statistics report</snippet></result>
      </results>
      <clicked><click starttime="0" endtime="30"><rank>2</rank></click></clicked>
    </interaction>
    <interaction>
      <currentquery>gun violence statistics</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dC</docid><title>t</title>
          <snippet>statistics overview</snippet></result>
        <result rank="2"><url>u</url><docid>dD</docid><title>t</title>
          <snippet>gun reports</snippet></result>
      </results>
    </interaction>
  </session>
</sessions>
"""


@pytest.fixture
def workspace(tmp_path):
    xml = tmp_path / "sessions.xml"
    xml.write_text(SESSION_XML)
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("T 0 dB 2\nT 0 dC 3\nT 0 dD 1\n")
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "dB").write_text("violence statistics full document text")
    return tmp_path


def run_ingest(workspace, out="corpus.json", extra=()):
    return main(
        [
            "ingest",
            "--trec-xml", str(workspace / "sessions.xml"),
            "--qrels", str(workspace / "qrels.txt"),
            "--docs", str(workspace / "docs"),
            "--out", str(workspace / out),
            *extra,
        ]
    )


class TestIngest:
    def test_success_and_summary(self, workspace, capsys):
        assert run_ingest(workspace) == 0
        out = capsys.readouterr().out
        assert "sessions: 1" in out
        assert "query pairs: 1" in out
        corpus = from_canonical_json((workspace / "corpus.json").read_bytes())
        assert len(corpus.sessions) == 1
        assert corpus.qrels is not None and corpus.docstore

    def test_malformed_xml_exits_2(self, workspace, capsys):
        (workspace / "sessions.xml").write_text("<sessions><broken")
        assert run_ingest(workspace) == 2
        assert "error" in capsys.readouterr().err

    def test_deterministic_output(self, workspace):
        run_ingest(workspace, out="a.json")
        run_ingest(workspace, out="b.json")
        assert (workspace / "a.json").read_bytes() == (workspace / "b.json").read_bytes()

    @pytest.mark.parametrize("inputs", ["no-qrels-no-docs", "non-ascii", "english"])
    def test_output_is_the_canonical_json(self, tmp_path, inputs):
        """The corpus `ingest` streams to disk has the bytes of
        `to_canonical_json`: without a docstore and qrels, with non-ASCII
        text, and for the golden English log."""
        if inputs == "english":
            write_english_inputs(str(tmp_path))
        else:
            xml = SESSION_XML
            if inputs == "non-ascii":
                xml = xml.replace("gun control opinions", "contrôle des armes — 銃規制")
                xml = xml.replace("violence statistics", "statistiques naïves")
            (tmp_path / "sessions.xml").write_text(xml, encoding="utf-8")
        flags = []
        if inputs != "no-qrels-no-docs":
            if inputs == "non-ascii":
                (tmp_path / "qrels.txt").write_text("T 0 dB 2\nT 0 dÉ 1\n", encoding="utf-8")
                (tmp_path / "docs").mkdir()
                (tmp_path / "docs" / "dB").write_text("données « complètes » 日本語",
                                                      encoding="utf-8")
            flags = ["--qrels", str(tmp_path / "qrels.txt"), "--docs", str(tmp_path / "docs")]
        out = tmp_path / "corpus.json"
        assert main(["ingest", "--trec-xml", str(tmp_path / "sessions.xml"), *flags,
                     "--out", str(out)]) == 0
        corpus = ingest_trec_xml(tmp_path / "sessions.xml", NormalizationConfig())
        if flags:
            corpus = attach_documents(replace(corpus, qrels=ingest_qrels(tmp_path / "qrels.txt")),
                                      tmp_path / "docs")
        else:
            assert corpus.docstore is None and corpus.qrels is None
        assert out.read_bytes() == to_canonical_json(corpus)
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["sessions.xml", "corpus.json"] + (["qrels.txt", "docs"] if flags else []))

    @pytest.mark.parametrize("earlier", [None, b"an earlier corpus"])
    def test_interrupted_write_leaves_no_truncated_corpus(self, workspace, monkeypatch, capsys,
                                                          earlier):
        """A write that fails part way leaves the earlier file, or none,
        and no temporary file."""
        out = workspace / "corpus.json"
        if earlier is not None:
            out.write_bytes(earlier)
        before = sorted(os.listdir(workspace))
        chunks = cli.canonical_json_chunks

        def failing(corpus):
            for i, chunk in enumerate(chunks(corpus)):
                if i == 3:
                    raise OSError("No space left on device")
                yield chunk

        monkeypatch.setattr(cli, "canonical_json_chunks", failing)
        assert run_ingest(workspace) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert sorted(os.listdir(workspace)) == before
        if earlier is not None:
            assert out.read_bytes() == earlier

    def test_stoplist_flag(self, workspace, capsys):
        stop = workspace / "stop.txt"
        stop.write_text("gun\ncontrol\n")
        assert run_ingest(workspace, extra=["--stoplist", str(stop)]) == 0
        corpus = from_canonical_json((workspace / "corpus.json").read_bytes())
        assert corpus.config.stoplist == frozenset({"gun", "control"})


class TestAnalyze:
    @pytest.fixture
    def corpus_path(self, workspace):
        run_ingest(workspace)
        return workspace / "corpus.json"

    def run_analyze(self, analysis, corpus_path, out_dir, extra=()):
        return main(
            [
                "analyze", analysis,
                "--corpus", str(corpus_path),
                "--out-dir", str(out_dir),
                *extra,
            ]
        )

    def test_pairs_writes_csv_and_md(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "reports"
        assert self.run_analyze("pairs", corpus_path, out) == 0
        assert (out / "pair_summary.csv").exists()
        assert (out / "pair_summary.md").exists()
        text = (out / "pair_summary.csv").read_text()
        assert "# normalization:" in text

    @pytest.mark.parametrize("logs, labels", [
        (["y1/s.xml", "y2/s.xml"], ["s.xml", "1:s.xml"]),
        (["combined", "x.xml"], ["0:combined", "x.xml"]),
    ])
    def test_pairs_keeps_same_named_logs_apart(self, logs, labels, workspace, tmp_path):
        """Logs ingested from y1/s.xml and y2/s.xml share the label s.xml,
        and a log named "combined" shares the combined column's; such a
        label gets the prefix a colliding session id gets."""
        corpora = []
        for i, log in enumerate(logs):
            (workspace / log).parent.mkdir(exist_ok=True)
            (workspace / log).write_text(SESSION_XML)
            corpora.append(str(workspace / f"{i}.json"))
            assert main(["ingest", "--trec-xml", str(workspace / log), "--out", corpora[-1]]) == 0
        out = tmp_path / "reports"
        assert main(["analyze", "pairs", "--corpus", *corpora, "--out-dir", str(out),
                     "--format", "csv"]) == 0
        lines = (out / "pair_summary.csv").read_text().splitlines()
        populations = [(row["column"], int(row["population"]))
                       for row in csv.DictReader(line for line in lines if line[0] != "#")
                       if row["row"] == "jaccard"]
        assert populations == [(labels[0], 1), (labels[1], 1), ("combined", 2)]

    def test_csv_only_format(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        assert self.run_analyze("pairs", corpus_path, out, ["--format", "csv"]) == 0
        assert (out / "pair_summary.csv").exists()
        assert not (out / "pair_summary.md").exists()

    def test_sources_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        assert self.run_analyze("sources", corpus_path, out) == 0
        for name in ["rank_prefix", "last_click", "source_comparison"]:
            assert (out / f"{name}.csv").exists()
        assert (out / "dwell_thresholds.csv").exists()

    def test_scenarios_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        assert self.run_analyze("scenarios", corpus_path, out) == 0
        for name in [
            "scenario_distribution.csv",
            "retention_by_scenario.csv",
            "click_outcomes.csv",
            "scenario_records.csv",
        ]:
            assert (out / name).exists()

    def test_metrics_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        assert self.run_analyze("metrics", corpus_path, out) == 0
        assert (out / "scenario_metric_eval.csv").exists()
        assert (out / "metrics_by_position.csv").exists()
        assert (out / "impression_metrics.csv").exists()

    def test_positions_outputs(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        assert self.run_analyze("positions", corpus_path, out) == 0
        assert (out / "similarity_by_position.csv").exists()

    def test_positions_work_stops_at_the_longest_session(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 29, "sessions": 9, "session_length": 3,
                                    "session_length_max": 7}))
        corpus_path = tmp_path / "synth.json"
        assert main(["synth", "--spec", str(spec), "--out", str(corpus_path)]) == 0
        corpus = from_canonical_json(corpus_path.read_bytes())
        longest = max(len(session.impressions) for session in corpus.sessions)
        calls = Counter()
        for name in ("length_by_position", "fixed_query_similarity"):
            def counting(*args, _name=name, _function=getattr(cli.actions, name)):
                calls[_name] += 1
                return _function(*args)
            monkeypatch.setattr(cli.actions, name, counting)
        reports = {}
        for max_position in (1_000_000, longest):
            calls.clear()
            out = tmp_path / str(max_position)
            assert self.run_analyze("positions", corpus_path, out,
                                    ["--max-position", str(max_position)]) == 0
            assert 0 < calls["length_by_position"] <= longest
            assert 0 < calls["fixed_query_similarity"] <= longest
            reports[max_position] = {name: (out / name).read_bytes()
                                     for name in sorted(os.listdir(out))}
        assert reports[1_000_000] == reports[longest]

    def test_analyze_determinism(self, corpus_path, tmp_path):
        out_a, out_b = tmp_path / "ra", tmp_path / "rb"
        self.run_analyze("sources", corpus_path, out_a)
        self.run_analyze("sources", corpus_path, out_b)
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_qrels_degrades_to_notice(self, workspace, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        assert main(
            [
                "ingest",
                "--trec-xml", str(workspace / "sessions.xml"),
                "--out", str(bare),
            ]
        ) == 0
        capsys.readouterr()
        out = tmp_path / "reports"
        assert self.run_analyze("metrics", bare, out) == 0
        assert "notice" in capsys.readouterr().out

    def test_missing_qrels_strict_fails(self, workspace, tmp_path, capsys):
        bare = tmp_path / "bare.json"
        main(["ingest", "--trec-xml", str(workspace / "sessions.xml"), "--out", str(bare)])
        assert self.run_analyze("metrics", bare, tmp_path / "r", ["--strict"]) == 1

    def test_corrupt_corpus_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert self.run_analyze("pairs", bad, tmp_path / "r") == 2

    def test_config_file_defaults(self, corpus_path, tmp_path):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"format": "csv"}))
        out = tmp_path / "reports"
        assert main(
            [
                "analyze", "pairs",
                "--corpus", str(corpus_path),
                "--out-dir", str(out),
                "--config", str(config),
            ]
        ) == 0
        assert (out / "pair_summary.csv").exists()
        assert not (out / "pair_summary.md").exists()

    def test_explicit_flag_beats_config_default(self, corpus_path, tmp_path):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"format": "csv"}))
        out = tmp_path / "reports"
        assert main(
            [
                "analyze", "pairs",
                "--corpus", str(corpus_path),
                "--out-dir", str(out),
                "--config", str(config),
                "--format", "md",
            ]
        ) == 0
        assert (out / "pair_summary.md").exists()
        assert not (out / "pair_summary.csv").exists()

    def test_config_numbers_act_like_typed_flags(self, corpus_path, tmp_path):
        config = tmp_path / "defaults.json"
        config.write_text(json.dumps({"cutoff": 1, "k1": 2, "dwell-thresholds": "5,10"}))
        typed = ["--cutoff", "1", "--k1", "2", "--dwell-thresholds", "5,10"]
        for analysis in ("metrics", "sources"):
            assert self.run_analyze(analysis, corpus_path, tmp_path / "typed", typed) == 0
            assert self.run_analyze(analysis, corpus_path, tmp_path / "config",
                                    ["--config", str(config)]) == 0
        for name in ("impression_metrics.csv", "source_comparison.csv", "dwell_thresholds.csv"):
            assert (tmp_path / "config" / name).read_text() == (
                tmp_path / "typed" / name).read_text()

    def test_config_without_value_exits_2(self, corpus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "pairs", "--corpus", str(corpus_path), "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --config: expected one argument" in err
        assert "Traceback" not in err


ONE_QUERY_XML = """<sessions>
  <session num="1">
    <interaction>
      <currentquery>gun control</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dA</docid><title>t</title>
          <snippet>gun control news</snippet></result>
      </results>
    </interaction>
  </session>
</sessions>
"""

# A query without results, then a ranked query: one pair, and nothing
# ranked before its added terms.
NO_RANKED_PREDECESSOR_XML = """<sessions>
  <session num="1">
    <topic num="T"/>
    <interaction>
      <currentquery>gun control</currentquery>
    </interaction>
    <interaction>
      <currentquery>gun violence</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dA</docid><title>t</title>
          <snippet>gun violence news</snippet></result>
      </results>
      <clicked><click starttime="0" endtime="30"><rank>1</rank></click></clicked>
    </interaction>
  </session>
</sessions>
"""

# The added term "beta" is in a snippet almost three times the mean
# snippet length, so with --k1 1e308 its BM25 length norm overflows.
LONG_SNIPPET_XML = """<sessions>
  <session num="1">
    <interaction>
      <currentquery>alpha</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dA</docid><title></title>
          <snippet>beta</snippet></result>
        <result rank="2"><url>u</url><docid>dB</docid><title></title>
          <snippet>x</snippet></result>
        <result rank="3"><url>u</url><docid>dC</docid><title></title>
          <snippet>beta c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 c17 c18 c19
            c20 c21 c22 c23 c24 c25 c26 c27 c28 c29</snippet></result>
      </results>
    </interaction>
    <interaction>
      <currentquery>alpha beta</currentquery>
      <results>
        <result rank="1"><url>u</url><docid>dD</docid><title></title>
          <snippet>gamma</snippet></result>
      </results>
    </interaction>
  </session>
</sessions>
"""


def _bad_xml(old, new):
    """Ingest SESSION_XML with its first `old` replaced by `new`."""
    def argv(workspace):
        (workspace / "sessions.xml").write_text(SESSION_XML.replace(old, new, 1))
        return ["ingest", "--trec-xml", str(workspace / "sessions.xml"),
                "--out", str(workspace / "corpus.json")]
    return argv


def _analyze_xml(analysis, xml, with_qrels=False, flags=()):
    """Run an analysis, with `flags`, on the corpus ingested from `xml`."""
    def argv(workspace):
        (workspace / "one.xml").write_text(xml)
        qrels = ["--qrels", str(workspace / "qrels.txt")] if with_qrels else []
        assert main(["ingest", "--trec-xml", str(workspace / "one.xml"), *qrels,
                     "--out", str(workspace / "one.json")]) == 0
        return ["analyze", analysis, "--corpus", str(workspace / "one.json"),
                "--out-dir", str(workspace / "reports"), *flags]
    return argv


def _zero_pairs(analysis, with_qrels=False):
    """Run an analysis on a corpus of one single-query session."""
    return _analyze_xml(analysis, ONE_QUERY_XML, with_qrels)


def _no_clicked_document_text(workspace):
    """Run `analyze sources` on the workspace log ingested with --docs
    holding only a document that was not clicked."""
    docs = workspace / "unclicked_docs"
    docs.mkdir()
    (docs / "dA").write_text("gun control opinions full document text")
    assert main(["ingest", "--trec-xml", str(workspace / "sessions.xml"),
                 "--docs", str(docs), "--out", str(workspace / "corpus.json")]) == 0
    return ["analyze", "sources", "--corpus", str(workspace / "corpus.json"),
            "--out-dir", str(workspace / "reports")]


def _canonical_json(edit, analysis="pairs"):
    """Run an analysis on the workspace corpus JSON as `edit(doc)`
    rewrites it."""
    def argv(workspace):
        run_ingest(workspace)
        path = workspace / "corpus.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["analyze", analysis, "--corpus", str(path),
                "--out-dir", str(workspace / "reports")]
    return argv


def _member(key, value):
    """An edit that sets the top-level member `key` to `value`."""
    def edit(doc):
        doc[key] = value
        return doc
    return edit


# A well-formed canonical JSON `normalization` member.
NORMALIZATION = {"stoplist": [], "stemming_enabled": True, "keep_numeric_tokens": True}


def _first_judgment(field, value):
    """An edit that sets field `field` (0 topic, 1 docid, 2 grade) of the
    first qrels judgment."""
    def edit(doc):
        doc["qrels"][0][field] = value
        return doc
    return edit


def _synth_spec(**fields):
    """Run `synth` on a spec of `fields`, which the returned function
    keeps as its `fields`."""
    def argv(workspace):
        (workspace / "spec.json").write_text(json.dumps(fields))
        return ["synth", "--spec", str(workspace / "spec.json"),
                "--out", str(workspace / "synthetic.json")]
    argv.fields = fields
    return argv


def _not_utf8(flag):
    """Run the command that reads `flag` on a Latin-1 file, latin1.txt."""
    def argv(workspace):
        text = {"--qrels": "T 0 d\xe9 2\n", "--stoplist": "caf\xe9\n",
                "--spec": '{"seed": 1, "note": "caf\xe9"}', "--config": '{"b": 0.5} caf\xe9'}
        (workspace / "latin1.txt").write_bytes(text[flag].encode("latin-1"))
        if flag == "--spec":
            return ["synth", "--spec", str(workspace / "latin1.txt"),
                    "--out", str(workspace / "synthetic.json")]
        if flag == "--config":
            run_ingest(workspace)
            return ["analyze", "pairs", "--corpus", str(workspace / "corpus.json"),
                    "--config", str(workspace / "latin1.txt"),
                    "--out-dir", str(workspace / "reports")]
        return _ingest_with(flag, "latin1.txt")(workspace)
    return argv


def _without_raw_query(doc):
    del doc["sessions"][0]["impressions"][0]["raw_query"]
    return doc


def _first(record, key, value):
    """An edit that sets `key` of the first session, or of its first
    impression, result or click (`record`), to `value`."""
    def edit(doc):
        target = doc["sessions"][0]
        if record != "session":
            target = target["impressions"][0]
            if record != "impression":
                target = target[record + "s"][0]
        target[key] = value
        return doc
    return edit


def _bag_count(key, value):
    """An edit that sets the first count of the first impression's query
    bag (key "query_terms") or of its first result's bag ("terms")."""
    def edit(doc):
        imp = doc["sessions"][0]["impressions"][0]
        counts = imp["query_terms"] if key == "query_terms" else imp["results"][0]["terms"]
        counts[next(iter(counts))] = value
        return doc
    return edit


def _bag_value(key, value):
    """An edit that replaces the first impression's query bag (key
    "query_terms") or its first result's bag ("terms") with `value`."""
    def edit(doc):
        imp = doc["sessions"][0]["impressions"][0]
        (imp if key == "query_terms" else imp["results"][0])[key] = value
        return doc
    return edit


def _mixed_normalization(workspace):
    """Run `analyze pairs` on the workspace log ingested twice, the second
    time with --no-stem."""
    corpora = []
    for name, flags in (("a.json", ()), ("c.json", ("--no-stem",))):
        corpora.append(str(workspace / name))
        assert main(["ingest", "--trec-xml", str(workspace / "sessions.xml"), *flags,
                     "--out", corpora[-1]]) == 0
    return ["analyze", "pairs", "--corpus", *corpora, "--out-dir", str(workspace / "reports")]


def _config_not_object(workspace):
    run_ingest(workspace)
    (workspace / "defaults.json").write_text("[1]")
    return ["analyze", "pairs", "--corpus", str(workspace / "corpus.json"),
            "--config", str(workspace / "defaults.json")]


def _analyze_flags(analysis, *flags):
    """Run an analysis on the workspace corpus (it has docs and qrels)
    with the given flags."""
    def argv(workspace):
        run_ingest(workspace)
        return ["analyze", analysis, "--corpus", str(workspace / "corpus.json"),
                "--out-dir", str(workspace / "reports"), *flags]
    return argv


def _ingest_with(flag, name):
    """Ingest the workspace log with `flag` naming the workspace path
    `name`."""
    def argv(workspace):
        return ["ingest", "--trec-xml", str(workspace / "sessions.xml"),
                flag, str(workspace / name), "--out", str(workspace / "corpus.json")]
    return argv


def _out_dir_is_a_file(workspace):
    """Run `analyze pairs` with --out-dir naming the workspace log."""
    run_ingest(workspace)
    return ["analyze", "pairs", "--corpus", str(workspace / "corpus.json"),
            "--out-dir", str(workspace / "sessions.xml")]


def _config_value(analysis, key, value, xml=None):
    """Run an analysis with one flag default taken from a --config file,
    on the workspace corpus or the one ingested from `xml`."""
    def argv(workspace):
        (workspace / "defaults.json").write_text(json.dumps({key: value}))
        flags = ("--config", str(workspace / "defaults.json"))
        if xml is not None:
            return _analyze_xml(analysis, xml, flags=flags)(workspace)
        return _analyze_flags(analysis, *flags)(workspace)
    return argv


EXIT_2_CASES = {
    "config-json-array": _config_not_object,
    "dwell-thresholds-not-number": _analyze_flags("sources", "--dwell-thresholds", "5,x"),
    "dwell-thresholds-empty": _analyze_flags("sources", "--dwell-thresholds", ""),
    "config-dwell-thresholds-not-number": _config_value("sources", "dwell_thresholds", "5,x"),
    "dwell-thresholds-nan": _analyze_flags("sources", "--dwell-thresholds", "5,nan,10"),
    "config-dwell-thresholds-nan": _config_value("sources", "dwell-thresholds", "5,nan,10"),
    "k1-negative": _analyze_flags("sources", "--k1", "-1", "--b", "0"),
    "k1-nan": _analyze_flags("sources", "--k1", "nan"),
    "k1-inf": _analyze_flags("sources", "--k1", "inf"),
    "b-nan": _analyze_flags("sources", "--b", "nan"),
    "b-above-one": _analyze_flags("sources", "--b", "1.5"),
    "config-k1-negative": _config_value("sources", "k1", -1),
    "config-k1-nan": _config_value("sources", "k1", float("nan")),
    "config-k1-inf": _config_value("sources", "k1", float("inf")),
    "k1-overflows-bm25": _analyze_xml("sources", LONG_SNIPPET_XML, flags=("--k1", "1e308")),
    "config-k1-overflows-bm25": _config_value("sources", "k1", 1e308, xml=LONG_SNIPPET_XML),
    "config-b-nan": _config_value("sources", "b", float("nan")),
    "config-b-negative": _config_value("sources", "b", -0.5),
    "cutoff-negative": _analyze_flags("metrics", "--cutoff", "-1"),
    "cutoff-zero": _analyze_flags("metrics", "--cutoff", "0"),
    "cutoff-not-integer": _analyze_flags("metrics", "--cutoff", "2.5"),
    "k-max-zero": _analyze_flags("sources", "--k-max", "0"),
    "max-position-zero": _analyze_flags("positions", "--max-position", "0"),
    "config-dwell-thresholds-array": _config_value("sources", "dwell-thresholds", [5, "x"]),
    "config-cutoff-negative": _config_value("metrics", "cutoff", -1),
    "config-cutoff-false": _config_value("metrics", "cutoff", False),
    "config-cutoff-null": _config_value("metrics", "cutoff", None),
    "config-flag-not-boolean": _config_value("metrics", "strict", "yes"),
    "config-k-max-zero": _config_value("sources", "k-max", 0),
    "config-max-position-zero": _config_value("positions", "max_position", 0),
    "result-rank-not-integer": _bad_xml('rank="1"', 'rank="x"'),
    "click-rank-not-integer": _bad_xml("<rank>2</rank>", "<rank>two</rank>"),
    "click-num-not-integer": _bad_xml("<click ", '<click num="first" '),
    "click-starttime-not-number": _bad_xml('starttime="0"', 'starttime="noon"'),
    "click-endtime-not-number": _bad_xml('endtime="30"', 'endtime="later"'),
    "click-starttime-nan": _bad_xml('starttime="0"', 'starttime="nan"'),
    "click-endtime-inf": _bad_xml('endtime="30"', 'endtime="inf"'),
    "click-endtime-overflows": _bad_xml('endtime="30"', 'endtime="1e400"'),
    "config-internal-key": _config_value("pairs", "func", "x"),
    "config-unknown-key": _config_value("pairs", "no_such", 1),
    "config-config-key": _config_value("positions", "config", "nope.json"),
    "config-corpus-key": _config_value("positions", "corpus", "x.json"),
    "pairs-on-zero-pairs": _zero_pairs("pairs"),
    "scenarios-on-zero-pairs": _zero_pairs("scenarios"),
    "sources-on-zero-pairs": _zero_pairs("sources"),
    "positions-on-zero-pairs": _zero_pairs("positions"),
    "metrics-on-zero-pairs": _zero_pairs("metrics", with_qrels=True),
    "sources-no-ranked-predecessor": _analyze_xml("sources", NO_RANKED_PREDECESSOR_XML),
    "sources-no-clicked-document-text": _no_clicked_document_text,
    "canonical-json-click-start-nan": _canonical_json(_first("click", "start_time", math.nan)),
    "canonical-json-click-end-infinity": _canonical_json(_first("click", "end_time", math.inf)),
    "canonical-json-schema-only": _canonical_json(lambda doc: {"schema": 1}),
    "canonical-json-array": _canonical_json(lambda doc: [1, 2]),
    "canonical-json-impression-without-raw-query": _canonical_json(_without_raw_query),
    "canonical-json-query-count-half": _canonical_json(_bag_count("query_terms", 0.5)),
    "canonical-json-query-count-fraction": _canonical_json(_bag_count("query_terms", 2.7)),
    "canonical-json-query-count-zero": _canonical_json(_bag_count("query_terms", 0)),
    "canonical-json-query-count-negative": _canonical_json(_bag_count("query_terms", -1)),
    "canonical-json-query-count-true": _canonical_json(_bag_count("query_terms", True)),
    "canonical-json-snippet-count-half": _canonical_json(_bag_count("terms", 0.5)),
    "canonical-json-snippet-count-fraction": _canonical_json(_bag_count("terms", 2.7)),
    "canonical-json-snippet-count-zero": _canonical_json(_bag_count("terms", 0)),
    "canonical-json-snippet-count-negative": _canonical_json(_bag_count("terms", -1)),
    "canonical-json-snippet-count-true": _canonical_json(_bag_count("terms", True)),
    "canonical-json-snippet-count-huge": _canonical_json(_bag_count("terms", 10 ** 400)),
    "canonical-json-query-bag-list": _canonical_json(_bag_value("query_terms", ["gun", 1])),
    "canonical-json-snippet-bag-string": _canonical_json(_bag_value("terms", "gun control")),
    "corpora-with-different-normalization": _mixed_normalization,
    "missing-corpus-file": lambda workspace: [
        "analyze", "pairs", "--corpus", str(workspace / "missing.json"),
        "--out-dir", str(workspace / "reports"),
    ],
    "missing-xml-file": lambda workspace: [
        "ingest", "--trec-xml", str(workspace / "missing.xml"),
        "--out", str(workspace / "corpus.json"),
    ],
    "corpus-is-a-directory": lambda workspace: [
        "analyze", "pairs", "--corpus", str(workspace / "docs"),
        "--out-dir", str(workspace / "reports"),
    ],
    "xml-is-a-directory": lambda workspace: [
        "ingest", "--trec-xml", str(workspace / "docs"), "--out", str(workspace / "corpus.json"),
    ],
    "qrels-is-a-directory": _ingest_with("--qrels", "docs"),
    "stoplist-is-a-directory": _ingest_with("--stoplist", "docs"),
    "docs-is-a-file": _ingest_with("--docs", "qrels.txt"),
    "spec-is-a-directory": lambda workspace: [
        "synth", "--spec", str(workspace / "docs"), "--out", str(workspace / "synthetic.json"),
    ],
    "out-dir-is-a-file": _out_dir_is_a_file,
    "spec-session-length-max-below-min": _synth_spec(session_length=[5, 4]),
    "spec-session-length-max-far-below-min": _synth_spec(session_length=[5, 2]),
    "spec-session-length-max-field-below-min": _synth_spec(session_length=4,
                                                           session_length_max=3),
    "spec-session-length-one-value": _synth_spec(session_length=[2]),
    "spec-session-length-three-values": _synth_spec(session_length=[2, 3, 4]),
    "spec-session-length-fraction": _synth_spec(session_length=[2, 3.5]),
    "spec-results-per-query-fraction": _synth_spec(results_per_query=2.5),
    "spec-sessions-float": _synth_spec(sessions=1e9),
    "spec-sessions-true": _synth_spec(sessions=True),
    "spec-seed-fraction": _synth_spec(seed=1.5),
    "config-not-utf8": _not_utf8("--config"),
    "qrels-not-utf8": _not_utf8("--qrels"),
    "stoplist-not-utf8": _not_utf8("--stoplist"),
    "spec-not-utf8": _not_utf8("--spec"),
    "canonical-json-docstore-number": _canonical_json(_member("docstore", 5), "sources"),
    "canonical-json-docstore-array": _canonical_json(_member("docstore", ["dB"]), "sources"),
    "canonical-json-docstore-text-number": _canonical_json(
        _member("docstore", {"dB": 5}), "sources"),
    "canonical-json-docstore-text-array": _canonical_json(
        _member("docstore", {"dB": ["a"]}), "sources"),
    "canonical-json-docstore-text-null": _canonical_json(
        _member("docstore", {"dB": None}), "scenarios"),
    "canonical-json-qrels-grade-above-4": _canonical_json(_first_judgment(2, 9), "metrics"),
    "canonical-json-qrels-grade-negative": _canonical_json(_first_judgment(2, -1), "metrics"),
    "canonical-json-qrels-grade-fraction": _canonical_json(_first_judgment(2, 2.5), "metrics"),
    "canonical-json-qrels-grade-true": _canonical_json(_first_judgment(2, True), "metrics"),
    **{f"canonical-json-position-float-{analysis}": _canonical_json(
        _first("impression", "position", 1.0), analysis)
       for analysis in ("pairs", "positions", "sources", "scenarios", "metrics")},
    "canonical-json-click-rank-float": _canonical_json(_first("click", "rank", 2.0), "sources"),
    "canonical-json-click-order-true": _canonical_json(_first("click", "order", True)),
    "canonical-json-click-end-true": _canonical_json(_first("click", "end_time", True)),
    "canonical-json-result-rank-true": _canonical_json(_first("result", "rank", True)),
    "canonical-json-docid-integer": _canonical_json(_first("result", "docid", 7), "sources"),
    "canonical-json-url-null": _canonical_json(_first("result", "url", None)),
    "canonical-json-raw-query-number": _canonical_json(_first("impression", "raw_query", 5)),
    "canonical-json-session-id-integer": _canonical_json(_first("session", "id", 1)),
    "canonical-json-topic-id-integer": _canonical_json(_first("session", "topic_id", 1),
                                                       "metrics"),
    "canonical-json-provenance-number": _canonical_json(_member("provenance", 1)),
    "canonical-json-stemming-string": _canonical_json(_member(
        "normalization", {**NORMALIZATION, "stemming_enabled": "no"})),
    "canonical-json-numeric-tokens-int": _canonical_json(_member(
        "normalization", {**NORMALIZATION, "keep_numeric_tokens": 0})),
    "canonical-json-stoplist-string": _canonical_json(_member(
        "normalization", {**NORMALIZATION, "stoplist": "the"})),
    "canonical-json-stoplist-number": _canonical_json(_member(
        "normalization", {**NORMALIZATION, "stoplist": ["a", 1]})),
    "canonical-json-qrels-topic-integer": _canonical_json(_first_judgment(0, 1), "metrics"),
    "spec-with-test-query-string": _synth_spec(with_test_query="no"),
    "spec-force-click-one": _synth_spec(force_click=1),
    "spec-p-keep-true": _synth_spec(p_keep=True),
    "spec-p-keep-string": _synth_spec(p_keep="0.5"),
}


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_bad_input_exits_2_with_one_error_line(case, workspace, capsys):
    argv = EXIT_2_CASES[case](workspace)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert not (workspace / "reports").exists()  # fails before writing any table


@pytest.mark.parametrize("case", sorted(c for c in EXIT_2_CASES if "-count-" in c or "-bag-" in c))
def test_bad_term_bag_says_what_a_bag_holds(case, workspace, capsys):
    argv = EXIT_2_CASES[case](workspace)
    capsys.readouterr()
    assert main(argv) == 2
    assert (("term counts must be integers from 1 to 2**53" if "-count-" in case
             else "term bags must be JSON objects of term counts")
            in capsys.readouterr().err)


@pytest.mark.parametrize("case", sorted(c for c in EXIT_2_CASES if c.endswith("-not-utf8")))
def test_non_utf8_input_error_names_the_file(case, workspace, capsys):
    argv = EXIT_2_CASES[case](workspace)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # --config errors are argparse usage errors
        code = exc.code
    assert code == 2
    assert str(workspace / "latin1.txt") in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(c for c in EXIT_2_CASES
                                         if hasattr(EXIT_2_CASES[c], "fields")))
def test_bad_spec_error_names_its_field(case, workspace, capsys):
    argv = EXIT_2_CASES[case](workspace)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(field in err for field in EXIT_2_CASES[case].fields), err


# The report each analysis computes last.
LAST_REPORT = {
    "pairs": (cli.actions, "pair_summary"),
    "positions": (cli.actions, "fixed_query_similarity"),
    "sources": (cli.sources, "source_comparison"),
    "scenarios": (cli.scenarios, "records_to_csv"),
    "metrics": (cli.ireval, "metrics_csv"),
}


@pytest.mark.parametrize("error, code", [(cli.actions.EmptyInputError, 2),
                                         (cli.MissingDependencyError, 1)])
@pytest.mark.parametrize("analysis", sorted(LAST_REPORT))
def test_failed_analysis_writes_no_report(analysis, error, code, workspace, monkeypatch, capsys):
    """Every report is computed before the first is written: when the
    last one fails, --out-dir holds no file, and the exit code is the
    one `main` gives the error."""
    def fail(*args, **kwargs):
        raise error("the last report failed")

    monkeypatch.setattr(*LAST_REPORT[analysis], fail)
    assert run_ingest(workspace) == 0
    out = workspace / "reports"
    capsys.readouterr()
    assert main(["analyze", analysis, "--corpus", str(workspace / "corpus.json"),
                 "--out-dir", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == "error: the last report failed\n"
    assert "wrote" not in captured.out
    assert not out.exists()


class TestCollector:
    """`main` runs the whole command with the cyclic collector paused,
    freezes nothing, and hands the collector back as it found it. The
    script entry point freezes what is alive once the command is done."""

    @pytest.fixture(autouse=True)
    def collector_restored(self):
        enabled = gc.isenabled()
        yield
        gc.unfreeze()
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_ingest_and_analyze_restore_the_collector(self, workspace, monkeypatch, enabled):
        during = []

        def recording(module, name):
            function = getattr(module, name)

            def record(*args, **kwargs):
                during.append((name, gc.isenabled()))
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, record)

        recording(cli, "ingest_trec_xml")
        recording(cli, "_write_corpus")
        recording(cli, "from_canonical_json")
        recording(cli.actions, "extract_pairs")
        recording(cli.sources, "score_pairs")
        recording(cli.sources, "source_comparison")
        (gc.enable if enabled else gc.disable)()
        assert run_ingest(workspace) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
        assert main(["analyze", "sources", "--corpus", str(workspace / "corpus.json"),
                     "--out-dir", str(workspace / "reports")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, 0)
        assert [name for name, _ in during] == [
            "ingest_trec_xml", "_write_corpus", "extract_pairs",  # ingest's summary
            "from_canonical_json", "extract_pairs", "score_pairs", "source_comparison"]
        assert not any(on for _, on in during)

    def test_bad_canonical_json_restores_the_collector(self, workspace, capsys):
        argv = EXIT_2_CASES["canonical-json-query-count-half"](workspace)
        gc.enable()
        assert main(argv) == 2
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_usage_error_restores_the_collector(self, capsys):
        gc.enable()
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "pairs", "--bogus"])
        assert exc.value.code == 2
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_script_entry_freezes_after_the_command(self, workspace, monkeypatch, capsys):
        assert run_ingest(workspace) == 0
        monkeypatch.setattr(sys, "argv", ["sessionterms", "analyze", "pairs", "--corpus",
                                          str(workspace / "corpus.json"),
                                          "--out-dir", str(workspace / "reports")])
        gc.enable()
        assert gc.get_freeze_count() == 0
        assert cli.console_main() == 0
        assert gc.isenabled() and gc.get_freeze_count() > 0

    def test_garbage_left_does_not_grow_with_the_corpus(self, tmp_path, capsys):
        """No command leaves reference cycles that grow with its corpus,
        which a collector paused for the whole command would keep until
        it returns: `gc.collect()` finds the same count after each
        command at two corpus sizes. argparse's parser is cyclic, so the
        count is not 0."""
        found = {}
        for sessions in (3, 3, 24):  # the first run also warms up lazy imports
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"seed": 3, "sessions": sessions, "session_length": 6,
                                        "click_prob": 0.6, "with_test_query": True}))
            corpus = str(tmp_path / "corpus.json")
            commands = [["synth", "--spec", str(spec), "--out", corpus]]
            commands += [["analyze", analysis, "--corpus", corpus,
                          "--out-dir", str(tmp_path / "reports")]
                         for analysis in ("pairs", "positions", "sources", "scenarios",
                                          "metrics")]
            counts = []
            for argv in commands:
                gc.collect()
                assert main(argv) == 0
                counts.append(gc.collect())
            found[sessions] = counts
        assert found[3] == found[24]
        assert all(count > 0 for count in found[3])


def test_sources_without_scipy_exits_1_before_any_report(tmp_path, monkeypatch, capsys):
    """On the golden log, `analyze sources` needs a Welch p-value. When
    scipy cannot be imported it exits 1 with one error line naming scipy
    and writes no report."""
    write_inputs(str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["ingest", "--trec-xml", "sessions.xml", "--qrels", "qrels.txt",
                 "--docs", "docs", "--out", "corpus.json"]) == 0
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    capsys.readouterr()
    code = main(["analyze", "sources", "--corpus", "corpus.json", "--out-dir", "reports"])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and "scipy" in line
    assert not (tmp_path / "reports").exists()


def _deep_ranking_corpus(directory):
    """Ingest into `directory`/deep.json one session of two queries whose
    first ranking lists 2,100 results; its one judged document, grade 4,
    is at rank 1620. Return the corpus path."""
    results = "".join(
        f'<result rank="{r}"><url>u</url><docid>d{r}</docid><title>t</title>'
        f"<snippet>word{r}</snippet></result>" for r in range(1, 2101))
    (directory / "deep.xml").write_text(
        '<sessions><session num="1"><topic num="T"/>'
        f"<interaction><currentquery>deep query</currentquery><results>{results}</results>"
        "</interaction>"
        "<interaction><currentquery>deep query more</currentquery><results>"
        '<result rank="1"><url>u</url><docid>d1</docid><title>t</title>'
        "<snippet>word1</snippet></result></results></interaction>"
        "</session></sessions>")
    (directory / "deep_qrels.txt").write_text("T 0 d1620 4\n")
    corpus = str(directory / "deep.json")
    assert main(["ingest", "--trec-xml", str(directory / "deep.xml"),
                 "--qrels", str(directory / "deep_qrels.txt"), "--out", corpus]) == 0
    return corpus


def test_metrics_without_numpy_writes_the_deep_ranking_ndcg(tmp_path, monkeypatch, capsys):
    """Every DCG discount is `math.log2`, at any rank and on any CPU: with
    numpy blocked, `analyze metrics --cutoff 2000` writes the deep
    ranking's NDCG, 1 / log2(1621)."""
    corpus = _deep_ranking_corpus(tmp_path)
    monkeypatch.setitem(sys.modules, "numpy", None)
    capsys.readouterr()
    code = main(["analyze", "metrics", "--corpus", corpus, "--out-dir", str(tmp_path / "reports"),
                 "--cutoff", "2000"])
    assert code == 0, capsys.readouterr().err
    with open(tmp_path / "reports" / "impression_metrics.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert [row["value"] for row in rows if row["metric"] == "NDCG"] == [
        "0.09378515440807397", "0.0"]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_python(script, *args, **environ):
    """Run `script` in a fresh interpreter that imports the package from
    src, with `environ` set in its environment (a None value unsets the
    variable); return the last line it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


SCIPY_LOADED = "any(m.split('.')[0] == 'scipy' for m in sys.modules)"
NUMPY_LOADED = "any(m.split('.')[0] == 'numpy' for m in sys.modules)"

# A synthetic corpus whose `source_comparison` has one significant cell,
# (cs, cosine): `analyze sources` computes Welch p-values on it.
SIGNIFICANT_SPEC = synthgen.GeneratorSpec(seed=32, sessions=12, session_length=3, p_cs=0.3,
                                          p_ncs=0.2, force_click=True)


def _write_significant_corpus(directory) -> str:
    """Write the corpus of SIGNIFICANT_SPEC to `directory`/corpus.json;
    return its path."""
    path = directory / "corpus.json"
    path.write_bytes(to_canonical_json(synthgen.generate(SIGNIFICANT_SPEC)))
    return str(path)


class TestStartUpImports:
    """Only a Welch p-value needs scipy, and `analyze sources` computes
    one only for a clicked-variant cell that the normal-tail bound leaves
    open. Loading scipy and computing the p-values on perfbench's `long`
    took 0.29-0.48 s with numpy's OpenBLAS thread pool and 0.16-0.25 s
    with one thread, so `console_main` asks for one thread; `analyze
    sources` computes them last, after its corpus and scores are
    released."""

    def test_commands_without_welch_never_load_scipy(self, workspace):
        corpus = str(workspace / "corpus.json")
        commands = [
            ["ingest", "--trec-xml", str(workspace / "sessions.xml"),
             "--qrels", str(workspace / "qrels.txt"), "--docs", str(workspace / "docs"),
             "--out", corpus],
            *(["analyze", analysis, "--corpus", corpus,
               "--out-dir", str(workspace / analysis)]
              for analysis in ("pairs", "positions", "scenarios", "metrics")),
        ]
        script = textwrap.dedent(f"""
            import json, sys
            from sessionterms.cli import main
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, {SCIPY_LOADED}]))
        """)
        assert json.loads(_run_python(script, json.dumps(commands))) == [[0] * 5, False]
        for analysis in ("pairs", "positions", "scenarios", "metrics"):
            assert os.listdir(workspace / analysis)

    def test_commands_without_welch_never_load_numpy(self, workspace):
        """Means are summed in pure Python and every DCG discount is
        `math.log2`, at a cutoff of 2000 too; numpy comes only with scipy.
        The workspace corpus has one pair, so `analyze sources` computes
        no Welch p-value and runs without numpy too."""
        corpus = str(workspace / "corpus.json")
        analyses = ("pairs", "positions", "sources", "scenarios", "metrics")
        commands = [
            ["ingest", "--trec-xml", str(workspace / "sessions.xml"),
             "--qrels", str(workspace / "qrels.txt"), "--docs", str(workspace / "docs"),
             "--out", corpus],
            *(["analyze", analysis, "--corpus", corpus,
               "--out-dir", str(workspace / analysis)]
              for analysis in analyses),
            ["analyze", "metrics", "--corpus", _deep_ranking_corpus(workspace),
             "--out-dir", str(workspace / "deep"), "--cutoff", "2000"],
        ]
        script = textwrap.dedent(f"""
            import json, sys
            from sessionterms.cli import main
            codes = [main(argv) for argv in json.loads(sys.argv[1])]
            print(json.dumps([codes, {NUMPY_LOADED}]))
        """)
        assert json.loads(_run_python(script, json.dumps(commands))) == [[0] * 7, False]
        for analysis in (*analyses, "deep"):
            assert os.listdir(workspace / analysis)

    def test_welch_p_value_loads_scipy_and_equals_betainc(self):
        a, b = [1.0, 2.0, 4.0], [3.0, 5.0, 9.0, 6.0]
        script = textwrap.dedent(f"""
            import json, sys
            from sessionterms.stattests import welch_t
            no_p = welch_t([1.0], [2.0, 3.0]).p_value
            before = {SCIPY_LOADED}
            result = welch_t({a}, {b})
            print(json.dumps([no_p, before, {SCIPY_LOADED}, result.statistic, result.p_value]))
        """)
        no_p, before, after, t, p_value = json.loads(_run_python(script))
        assert (no_p, before, after) == (None, False, True)
        assert 0.0 < p_value < 1.0
        assert (t, p_value) == _welch_betainc(a, b)

    def _analyze_sources(self, tmp_path, spec):
        """Run `analyze sources` on a synthetic corpus in a fresh
        interpreter; return (corpus, exit code, scipy loaded, numpy
        loaded, source_comparison.csv rows)."""
        corpus = synthgen.generate(spec)
        path = tmp_path / "corpus.json"
        path.write_bytes(to_canonical_json(corpus))
        script = textwrap.dedent(f"""
            import json, sys
            from sessionterms.cli import main
            code = main(sys.argv[1:])
            print(json.dumps([code, {SCIPY_LOADED}, {NUMPY_LOADED}]))
        """)
        out = tmp_path / "reports"
        code, scipy_loaded, numpy_loaded = json.loads(_run_python(
            script, "analyze", "sources", "--corpus", str(path), "--out-dir", str(out)))
        with open(out / "source_comparison.csv", encoding="utf-8") as f:
            rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
        return corpus, code, scipy_loaded, numpy_loaded, rows

    def test_sources_without_a_possibly_significant_cell_loads_neither(self, tmp_path):
        """Clicked snippets barely closer to the added terms than the
        others: the normal-tail bound rules out every cell (|t| < 0.3),
        so no p-value is computed."""
        spec = synthgen.GeneratorSpec(seed=1, sessions=30, session_length=4, p_cs=0.1,
                                      p_ncs=0.3, force_click=True)
        _, code, scipy_loaded, numpy_loaded, rows = self._analyze_sources(tmp_path, spec)
        assert (code, scipy_loaded, numpy_loaded) == (0, False, False)
        assert len(rows) == 32
        assert {row["significant"] for row in rows} == {"0"}

    def test_sources_with_a_significant_cell_writes_betaincs_p_value(self, tmp_path):
        corpus, code, scipy_loaded, _, rows = self._analyze_sources(tmp_path, SIGNIFICANT_SPEC)
        assert (code, scipy_loaded) == (0, True)
        [row] = [row for row in rows if row["significant"] == "1"]
        assert (row["row"], row["column"]) == ("cs", "cosine")
        # per-pair means of the cosine column over clicked, non-clicked
        # and all snippets of the earlier query
        samples = {"cs": [], "ncs": [], "s(M)": []}
        for scored in score_pairs(extract_pairs(corpus), corpus):
            imp = scored.pair.before
            clicked = [r.rank in imp.clicked_ranks for r in imp.results]
            chosen = {"cs": [s for s, c in zip(scored.snippets, clicked) if c],
                      "ncs": [s for s, c in zip(scored.snippets, clicked) if not c],
                      "s(M)": scored.snippets}
            for label, rows_of_label in chosen.items():
                if rows_of_label:
                    samples[label].append(column_means(rows_of_label)[2])
        p_values = [_welch_betainc(samples["cs"], samples[other])[1] for other in ("ncs", "s(M)")]
        assert float(row["p_value"]) == max(p_values) < 0.01

    def test_sources_releases_corpus_and_scores_before_any_p_value(self, tmp_path, monkeypatch):
        """At the first Welch p-value, which may import scipy, no
        reference to the loaded corpus is left, and no query pair or
        scored pair is alive: the import reuses their memory."""
        path = _write_significant_corpus(tmp_path)
        loaded = []

        def load(data):
            corpus = from_canonical_json(data)
            loaded.append(weakref.ref(corpus))
            return corpus

        def is_pair(obj):
            return isinstance(obj, (QueryPair, ScoredPair))

        at_first_p_value = []
        t_sf = stattests._t_sf_two_sided

        def first_call_checked(t, df):
            if not at_first_p_value:
                alive = [o for o in gc.get_objects() if is_pair(o) and id(o) not in earlier]
                at_first_p_value.append(([ref() is None for ref in loaded], len(alive)))
            return t_sf(t, df)

        monkeypatch.setattr(cli, "from_canonical_json", load)
        monkeypatch.setattr(stattests, "_t_sf_two_sided", first_call_checked)
        # Pairs other tests left alive are not this command's; holding
        # them keeps their ids from being reused.
        earlier = {id(o): o for o in gc.get_objects() if is_pair(o)}
        assert main(["analyze", "sources", "--corpus", path,
                     "--out-dir", str(tmp_path / "reports")]) == 0
        assert at_first_p_value == [([True], 0)]

    def test_script_entry_runs_welch_with_one_openblas_thread(self, tmp_path):
        """`console_main` sets OPENBLAS_NUM_THREADS to 1 when it is unset,
        so the numpy that scipy loads starts no thread pool; a value the
        user set is kept."""
        path = _write_significant_corpus(tmp_path)
        script = textwrap.dedent(f"""
            import json, os, sys
            from sessionterms import cli
            sys.argv = ["sessionterms", *sys.argv[1:]]
            code = cli.console_main()
            tasks = "/proc/self/task"
            threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
            print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), {SCIPY_LOADED},
                              threads]))
        """)
        argv = ["analyze", "sources", "--corpus", path, "--out-dir", str(tmp_path / "reports")]
        code, value, scipy_loaded, _ = json.loads(
            _run_python(script, *argv, OPENBLAS_NUM_THREADS="2"))
        assert (code, value, scipy_loaded) == (0, "2", True)
        code, value, scipy_loaded, threads = json.loads(
            _run_python(script, *argv, OPENBLAS_NUM_THREADS=None))
        assert (code, value, scipy_loaded) == (0, "1", True)
        if threads is None:
            pytest.skip("no /proc/self/task to count the threads in")
        assert threads == 1


def _welch_betainc(a, b):
    """Welch's t of two samples and its two-sided p-value from scipy's
    betainc, by the textbook formulas."""
    n1, n2 = len(a), len(b)
    m1, m2 = sum(a) / n1, sum(b) / n2
    v1 = sum((x - m1) ** 2 for x in a) / (n1 - 1)
    v2 = sum((x - m2) ** 2 for x in b) / (n2 - 1)
    se2 = v1 / n1 + v2 / n2
    t = (m1 - m2) / math.sqrt(se2)
    df = se2 * se2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return t, float(betainc(df / 2.0, 0.5, df / (df + t * t)))


class TestSynth:
    def test_generate_and_analyze(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": 11, "sessions": 6, "session_length": 3,
            "p_cs": 0.5, "p_cd": 0.5, "force_click": True,
        }))
        out = tmp_path / "synth.json"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
        corpus = from_canonical_json(out.read_bytes())
        assert len(corpus.sessions) == 6
        assert main(
            [
                "analyze", "scenarios",
                "--corpus", str(out),
                "--out-dir", str(tmp_path / "reports"),
            ]
        ) == 0

    def test_synth_determinism(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"seed": 3, "sessions": 4}))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["synth", "--spec", str(spec), "--out", str(a)])
        main(["synth", "--spec", str(spec), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sessions": 4, "bogus_field": 1}))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "unknown spec fields" in capsys.readouterr().err
