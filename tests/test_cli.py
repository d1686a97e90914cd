import json
import os

import pytest

from sessionterms.cli import main
from sessionterms.corpus import from_canonical_json

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

    def test_config_without_value_exits_2(self, corpus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "pairs", "--corpus", str(corpus_path), "--config"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --config: expected one argument" in err
        assert "Traceback" not in err


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
