"""Checks of the benchmark harness itself, on toy-size inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from sessionterms.cli import main as sessionterms  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload,trace", [("broad", 0), ("long", 0), ("trec", 0), ("trec", 1)])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "broad", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("workload", ["broad", "trec"])
def test_oracle_check_catches_wrong_reports(tmp_path, workload):
    inputs = workloads.make_inputs(workloads.SMOKE[workload], 4, str(tmp_path / "in"))
    corpus, reports = str(tmp_path / "corpus.json"), str(tmp_path / "reports")
    assert sessionterms(["ingest", "--trec-xml", inputs.xml, "--qrels", inputs.qrels,
                         "--docs", inputs.docs, "--out", corpus]) == 0
    for analysis in checks.EXPECTED_FILES:
        assert sessionterms(["analyze", analysis, "--corpus", corpus, "--out-dir", reports]) == 0
    assert checks.check_files(reports) == []
    assert checks.check_oracle(inputs, reports) == []

    inputs.pairs += 1
    assert checks.check_oracle(inputs, reports)
    inputs.pairs -= 1
    distribution = os.path.join(reports, "scenario_distribution.csv")
    with open(distribution, encoding="utf-8") as f:
        text = f.read()
    with open(distribution, "w", encoding="utf-8") as f:
        f.write(text.replace("added-term records: ", "added-term records: 1"))
    assert checks.check_oracle(inputs, reports)
    os.remove(os.path.join(reports, "last_click.md"))
    assert checks.check_files(reports)


def test_extra_command_runs_add_samples_and_keep_reports(tmp_path):
    import time

    import run

    inputs = workloads.make_inputs(workloads.SMOKE["long"], 5, str(tmp_path / "in"))
    bench = run.Bench(ROOT, str(tmp_path), 0.0)
    result = bench.pipeline(inputs, "p0")
    assert result is not None and bench.failed == 0
    samples = {metric: [result[metric]] for metric in run.TIMED}
    # Room for at least the first command once more.
    bench.end = time.perf_counter() + 1.2 * max(result[metric] for metric in run.TIMED)
    bench.fill(inputs, result, samples)
    assert bench.failed == 0
    assert len(samples["setup_s"]) >= 2
