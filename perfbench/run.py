"""Benchmark of the sessionterms command-line pipeline.

    python3 perfbench/run.py --workload broad --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout. It writes seeded inputs (TREC
XML, qrels, a docs directory) for the workload, then runs the pipeline a
user runs: `sessionterms ingest`, then `sessionterms analyze` pairs,
positions, sources, scenarios and metrics, each command in a fresh
process, one after another, again and again for --seconds. Every
pipeline's reports are checked. The last line of stdout is a JSON result
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1). --smoke runs toy-size inputs once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from statistics import median

import checks
from tracer import self_times

ANALYSES = ("pairs", "positions", "sources", "scenarios", "metrics")
TIMED = ("setup_s", *(f"analyze_{a}_s" for a in ANALYSES))  # one per command
# A command still running this long after --seconds of measuring would
# have ended is killed; one pipeline takes well under a minute.
DEADLINE_MARGIN_S = 120.0

# Self-time layers of the traced run (span names, see tracer.TRACED).
LAYERS = (
    "cli.import", "cli.main",
    "corpus.ingest_trec_xml", "corpus.ingest_qrels", "corpus.attach_documents",
    "corpus.to_canonical_json", "corpus.from_canonical_json", "corpus.doc_terms",
    "textnorm.normalize",
    "actions.extract_pairs", "actions.pair_summary", "actions.positions",
    "similarity.build_stats.all_snippets", "similarity.build_stats.all_documents",
    "similarity.build_stats.impression", "similarity.build_stats.historical",
    "sources.rank_prefix_similarity", "sources.last_click_similarity",
    "sources.source_comparison", "sources.dwell_threshold_curve",
    "scenarios.assign_scenarios", "scenarios.tables",
    "ireval.metrics_by_position", "ireval.scenario_metric_eval", "ireval.metrics_csv",
    "report.render",
)
# The costliest calls at the seed commit; their full-size over half-size
# self-time ratio is ~2 when linear and ~4 when quadratic in sessions.
DOUBLING = (
    "sources.source_comparison", "similarity.build_stats.historical",
    "scenarios.assign_scenarios", "corpus.from_canonical_json",
    "ireval.scenario_metric_eval", "ireval.metrics_by_position",
)


class Bench:
    """Runs commands in fresh processes and keeps the operation tally."""

    def __init__(self, root, work, seconds):
        self.root, self.work, self.seconds = root, work, seconds
        self.end = None  # when --seconds of measuring are up; set by repeat()
        self.deadline = time.perf_counter() + seconds + DEADLINE_MARGIN_S
        self.attempted = self.failed = 0
        self.digests = {}  # inputs XML path -> report set sha256
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        PYTHONHASHSEED="0")

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok

    def command(self, argv, log_path, spans_path=None, run_id=""):
        """Run one sessionterms command; (wall s, peak RSS MB, exit code).
        With spans_path, the command runs traced and writes its spans there."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "sessionterms.cli", *argv]
        else:
            tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
            cmd = [sys.executable, tracer, run_id, spans_path, *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    @staticmethod
    def steps(inputs, corpus, reports):
        """(metric, argv) of the pipeline's commands, in order."""
        steps = [("setup_s", ["ingest", "--trec-xml", inputs.xml, "--qrels", inputs.qrels,
                              "--docs", inputs.docs, "--out", corpus])]
        steps += [(f"analyze_{a}_s", ["analyze", a, "--corpus", corpus, "--out-dir", reports])
                  for a in ANALYSES]
        return steps

    def pipeline(self, inputs, tag, traced=False):
        """ingest + five analyses + checks; None if a command or a check
        of its reports failed."""
        out = os.path.join(self.work, tag)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        corpus, reports = os.path.join(out, "corpus.json"), os.path.join(out, "reports")
        result = {"rss": [], "traces": [], "reports": reports, "corpus": corpus}
        for metric, argv in self.steps(inputs, corpus, reports):
            log = os.path.join(out, metric + ".log")
            spans = os.path.join(out, metric + ".spans.json") if traced else None
            wall, rss, rc = self.command(argv, log, spans, run_id=tag)
            failure = f"{tag}: sessionterms {' '.join(argv[:2])} exit {rc}:\n{_tail(log)}" if rc else ""
            if not self.op(rc == 0, failure):
                return None
            result[metric] = wall
            result["rss"].append(rss)
            if traced:
                with open(spans, encoding="utf-8") as f:
                    result["traces"].append(json.load(f))
        result["reports_s"] = sum(result[f"analyze_{a}_s"] for a in ANALYSES)
        errors = checks.check_files(reports)
        if not self.op(not errors, f"{tag}: " + "; ".join(errors)):
            return None
        try:
            errors = checks.check_oracle(inputs, reports)
        except (KeyError, ValueError) as exc:
            errors = [f"unreadable report: {exc!r}"]
        if not self.op(not errors, f"{tag}: " + "; ".join(errors)):
            return None
        digest = checks.digest(reports)
        self.op(self.digests.setdefault(inputs.xml, digest) == digest,
                f"{tag}: reports differ between pipelines")
        return result

    def repeat(self, body):
        """Call body() until --seconds of measuring would be exceeded by
        another call; it always runs once."""
        start, longest = time.perf_counter(), 0.0
        self.end = start + self.seconds
        while True:
            t = time.perf_counter()
            body()
            longest = max(longest, time.perf_counter() - t)
            if time.perf_counter() + longest > self.end:
                return

    def fill(self, inputs, result, samples):
        """Spend what is left of --seconds on more runs of the single
        commands of a checked pipeline, in pipeline order, each only when a
        run as long as its longest so far still fits. The short commands,
        whose times scatter most, gain the most samples. Their reports must
        keep the bytes the pipeline's checks passed."""
        out = os.path.dirname(result["reports"])
        ran = True
        while ran:
            ran = False
            for metric, argv in self.steps(inputs, result["corpus"], result["reports"]):
                if time.perf_counter() + max(samples[metric]) > self.end:
                    continue
                log = os.path.join(out, metric + ".log")
                wall, _, rc = self.command(argv, log)
                if not self.op(rc == 0, f"extra sessionterms {' '.join(argv[:2])} exit {rc}:\n"
                                        + _tail(log)):
                    return
                samples[metric].append(wall)
                ran = True
        errors = checks.check_files(result["reports"])
        self.op(not errors and checks.digest(result["reports"]) == self.digests[inputs.xml],
                "reports changed in the extra command runs: " + "; ".join(errors))


def _tail(path, size=800):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()[-size:]


def roundtrip_check(bench, seed):
    """The ingested corpus of a rendered synthetic corpus yields the same
    pairs and scenario records as the generator's own corpus."""
    from sessionterms.actions import extract_pairs
    from sessionterms.corpus import from_canonical_json
    from sessionterms.scenarios import assign_scenarios, records_to_csv
    from sessionterms.synthgen import GeneratorSpec, generate
    from workloads import render_synthetic

    spec = GeneratorSpec(seed=seed, sessions=10, session_length=5, p_keep=0.6, p_ncs=0.3,
                         p_cs=0.4, p_cd=0.8, force_click=True, with_test_query=True)
    generated = generate(spec)
    out = os.path.join(bench.work, "roundtrip")
    os.makedirs(out)
    xml, qrels, docs = render_synthetic(generated, 3, 0.2, seed, out)
    corpus_path = os.path.join(out, "corpus.json")
    _, _, rc = bench.command(["ingest", "--trec-xml", xml, "--qrels", qrels, "--docs", docs,
                              "--out", corpus_path], os.path.join(out, "ingest.log"))
    if not bench.op(rc == 0, f"round trip: ingest exit {rc}"):
        return
    with open(corpus_path, "rb") as f:
        ingested = from_canonical_json(f.read())

    def outputs(corpus):
        pairs = extract_pairs(corpus, include_test_queries=True)
        keys = [(p.session_id, p.position, p.qn_bag.counts, p.qn1_bag.counts,
                 p.involves_test_query) for p in pairs]
        eligible = [p for p in pairs if not p.involves_test_query]
        return keys, records_to_csv(assign_scenarios(eligible, corpus))

    bench.op(outputs(ingested) == outputs(generated),
             "round trip: ingested pairs or scenario records differ from the generator's")


def end_to_end(bench, inputs):
    results = []
    bench.repeat(lambda: results.append(bench.pipeline(inputs, f"p{len(results)}")))
    ok = [r for r in results if r is not None]
    if not ok:
        return {}
    samples = {metric: [r[metric] for r in ok] for metric in TIMED}
    bench.fill(inputs, ok[-1], samples)
    metrics = {metric: median(values) for metric, values in samples.items()}
    metrics["reports_s"] = sum(metrics[f"analyze_{a}_s"] for a in ANALYSES)
    metrics["pairs_per_s"] = inputs.pairs / metrics["reports_s"]
    metrics["peak_rss_mb"] = median([max(r["rss"]) for r in ok])
    for metric, values in samples.items():
        print(f"{metric} " + " ".join(f"{v:.3f}" for v in values))
    units = {"peak_rss_mb": "MB", "pairs_per_s": "1/s"}
    return {name: (value, units.get(name, "s")) for name, value in metrics.items()}


def layer_times(result):
    """Self seconds per layer, summed over a pipeline's commands."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for doc in result["traces"]:
        for name, seconds in self_times(doc).items():
            totals[name] = totals.get(name, 0.0) + seconds
    return totals


def corpus_counts(path):
    with open(path, "rb") as f:
        data = f.read()
    doc = json.loads(data)
    impressions = [i for s in doc["sessions"] for i in s["impressions"] if i["results"]]
    return {
        "corpus.sessions": len(doc["sessions"]),
        "corpus.impressions": len(impressions),
        "corpus.doc_refs": sum(len(i["results"]) for i in impressions),
        "corpus.docs": len(doc["docstore"] or {}),
        "corpus.qrels": len(doc["qrels"] or []),
        "corpus.json_bytes": len(data),
    }


def report_counts(result):
    reports = result["reports"]
    summary = checks.Table(os.path.join(reports, "pair_summary.csv"))
    pairs = max(pop for _, pop in summary.cells.values())
    comparison = checks.Table(os.path.join(reports, "source_comparison.csv"))
    used_pairs = {(r["session"], r["position"])
                  for r in checks.read_records(os.path.join(reports, "scenario_records.csv"))}
    header, rows = checks.read_series(os.path.join(reports, "metrics_by_position.csv"))
    counts = {
        "actions.pairs": pairs,
        "sources.pairs_used_frac": min(pop for _, pop in comparison.cells.values()) / pairs,
        "scenarios.pairs_used_frac": len(used_pairs) / pairs,
        "ireval.impressions": sum(int(row[header.index("impressions")]) for row in rows),
    }
    for doc in result["traces"]:
        for name, value in doc["counts"].items():
            counts[name] = max(counts.get(name, 0), value)
    counts["trace.spans"] = sum(len(doc["spans"]) for doc in result["traces"])
    return counts


def traced(bench, inputs, half_inputs):
    """A round is an untraced and a traced pipeline at half size, then
    traced pipelines at full and at half size again. The two traced
    half-size pipelines bracket the full-size one, so a drift in machine
    speed during the round cancels out of the doubling ratios."""
    plain, half, full = [], [], []

    def round_():
        n = len(full)
        plain.append(bench.pipeline(half_inputs, f"u{n}"))
        before = bench.pipeline(half_inputs, f"h{n}a", traced=True)
        full.append(bench.pipeline(inputs, f"t{n}", traced=True))
        after = bench.pipeline(half_inputs, f"h{n}b", traced=True)
        half.append((before, after))

    bench.repeat(round_)
    plain = [r for r in plain if r is not None]
    full = [r for r in full if r is not None]
    half = [pair for pair in half if None not in pair]
    if not (plain and full and half):
        return {}
    full_times = [layer_times(r) for r in full]
    half_times = [{name: (a[name] + b[name]) / 2 for name in a}
                  for a, b in ((layer_times(a), layer_times(b)) for a, b in half)]
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = (median([t[name] for t in full_times]), "s")
    for name in DOUBLING:
        base = median([t[name] for t in half_times])
        ratio = median([t[name] for t in full_times]) / base if base > 0 else 0.0
        metrics[f"{name}.doubling_ratio"] = (ratio, "ratio")
    counts = {**corpus_counts(full[-1]["corpus"]), **report_counts(full[-1])}
    for name, value in counts.items():
        unit = "frac" if name.endswith("_frac") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit)
    # The first traced half-size pipeline runs right after the untraced one.
    overhead = (median([before["reports_s"] for before, _ in half])
                / median([r["reports_s"] for r in plain]) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["broad", "long", "trec"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs, one pipeline")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sessionterms", "cli.py")):
        print("error: run from the root of a sessionterms checkout (no src/sessionterms)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, work, 0.0 if args.smoke else args.seconds)
    try:
        table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
        workload = table[args.workload]
        inputs = workloads.make_inputs(workload, args.seed, os.path.join(work, "inputs"))
        roundtrip_check(bench, args.seed)
        if args.trace:
            half = workloads.make_inputs(workload.scaled(0.5), args.seed,
                                         os.path.join(work, "inputs-half"))
            metrics = traced(bench, inputs, half)
        else:
            metrics = end_to_end(bench, inputs)
        print(f"failed_frac={bench.failed / max(bench.attempted, 1):.4f} "
              f"({bench.failed} of {bench.attempted} operations failed)")
        if inputs.xml in bench.digests:
            print(f"report_sha256 {args.workload} seed={args.seed}: {bench.digests[inputs.xml]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
