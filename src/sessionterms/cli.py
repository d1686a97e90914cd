"""Command-line front end: ingest logs, run the analyses, generate
synthetic corpora. Reports are written as CSV plus Markdown mirrors;
figure data series are emitted as CSV for external plotting. Every
analysis computes all of its reports before it writes the first, so one
that fails leaves no report behind.

Exit codes: 0 success (also a degraded run with a notice), 1 analysis
failure, 2 usage or input error; README's "Exit codes" lists the cases.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import sys
from dataclasses import replace

from . import actions, ireval, scenarios, sources, synthgen
from .corpus import (
    Corpus,
    IngestError,
    attach_documents,
    canonical_json_chunks,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    merge,
    normalization_settings,
    read_text,
    unique_name,
)
from .similarity import MissingDocstoreError, ScoreOverflowError
from .stattests import MissingDependencyError
from .textnorm import NormalizationConfig, parse_stoplist


def _config_hash(config: NormalizationConfig) -> str:
    doc = json.dumps(normalization_settings(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _normalization_config(args) -> NormalizationConfig:
    return NormalizationConfig(
        stoplist=parse_stoplist(read_text(args.stoplist)) if args.stoplist else None,
        stemming_enabled=not args.no_stem,
        keep_numeric_tokens=not args.drop_numeric,
    )


def _positive_int(text) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite(text) -> float:
    """argparse type of a finite number (not nan or inf)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _non_negative(text) -> float:
    """argparse type of --k1: a finite number of at least 0."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _unit_interval(text) -> float:
    """argparse type of --b: a finite number from 0 to 1."""
    value = _finite(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be from 0 to 1, got {text!r}")
    return value


def _thresholds(text) -> list:
    """argparse type of --dwell-thresholds: comma-separated finite numbers."""
    try:
        return [_finite(t) for t in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}"
        ) from None


def _config_default(parser, dest, value):
    """A --config value as argparse should see it: a boolean for an
    on/off flag, else text. argparse applies an option's `type` only to
    string defaults, so numbers are passed as text and a config value is
    checked as the same flag typed on the command line would be."""
    if isinstance(parser.get_default(dest), bool):
        if isinstance(value, bool):
            return value
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        return str(value)
    parser.error(f"--config: invalid value {value!r} for {dest}")


def _load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return from_canonical_json(f.read())


def _write_corpus(corpus, path):
    """Write a corpus's canonical JSON chunk by chunk to a temporary file
    next to `path`, then move it into place: no whole-corpus string is
    built, and an interrupted write leaves no truncated corpus behind."""
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as f:
            f.writelines(canonical_json_chunks(corpus))
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def cmd_ingest(args) -> int:
    config = _normalization_config(args)
    corpus = merge(ingest_trec_xml(path, config) for path in args.trec_xml)
    if args.qrels:
        corpus = replace(corpus, qrels=ingest_qrels(args.qrels))
    if args.docs:
        corpus = attach_documents(corpus, args.docs)
    _write_corpus(corpus, args.out)
    n_sessions = len(corpus.sessions)
    n_impressions = sum(
        1 for s in corpus.sessions for i in s.impressions if not i.is_test_query
    )
    pairs = actions.extract_pairs(corpus, include_test_queries=True)
    lengths = [
        i.query_terms.length for s in corpus.sessions for i in s.impressions
    ]
    mean_len = sum(lengths) / len(lengths) if lengths else 0.0
    print(f"sessions: {n_sessions}")
    print(f"impressions: {n_impressions}")
    print(f"query pairs: {len(pairs)}")
    print(f"mean query length: {mean_len:.2f}")
    print(f"wrote {args.out}")
    return 0


def _table_files(table, name, args, header):
    """The (filename, text) files of a report table in --format, with
    `header` (the corpus's normalization hash and provenance)."""
    table.header.update(header)
    files = []
    if args.format in ("csv", "both"):
        files.append((name + ".csv", table.to_csv()))
    if args.format in ("md", "both"):
        files.append((name + ".md", table.to_markdown()))
    return files


def _series_file(rows, columns, name, header):
    """The (filename, text) CSV file of a figure data series, with
    `header` as comment lines."""
    lines = [f"# {key}: {value}" for key, value in header.items()]
    lines.append(",".join(columns))
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return name + ".csv", "".join(line + "\n" for line in lines)


def _notice(args, message) -> int:
    if args.strict:
        print(f"error: {message}", file=sys.stderr)
        return 1
    print(f"notice: {message} (skipped)")
    return 0


def cmd_analyze(args) -> int:
    """Run one analysis. Every report is computed before the first is
    written, so an analysis that fails leaves no report behind."""
    corpora = [_load_corpus(path) for path in args.corpus]
    if args.analysis != "metrics":
        # Only `metrics` reads the judgments; the load has checked them.
        corpora = [replace(c, qrels=None) for c in corpora]
    corpus = merge(corpora)
    # The header of every report: computed once, and kept when the corpus is released.
    header = {"normalization": _config_hash(corpus.config), "provenance": corpus.provenance}
    pairs = actions.extract_pairs(corpus, include_test_queries=args.include_test_queries)
    if args.analysis == "metrics" and corpus.qrels is None:
        return _notice(args, "metric evaluation requires qrels")
    if args.analysis in ("positions", "metrics") and not pairs:
        raise actions.EmptyInputError(f"analyze {args.analysis} requires at least one pair")
    if args.analysis in ("scenarios", "metrics"):
        records = scenarios.assign_scenarios(
            [p for p in pairs if not p.involves_test_query], corpus, args.docstore_policy)
    files = []  # (filename, text) of every report, in the order they are written
    notice = skipped = None  # printed after the reports; `skipped` names a missing one
    if args.analysis == "pairs":
        if len(corpora) > 1:
            # A label that collides with another or with the combined
            # column gets the prefix `merge` gives a colliding session id.
            by_label = {}
            for i, c in enumerate(corpora):
                label = unique_name(c.provenance, i, {*by_label, actions.COMBINED})
                by_label[label] = actions.extract_pairs(c, args.include_test_queries)
        else:
            by_label = {corpus.provenance: pairs}
        files += _table_files(actions.pair_summary(by_label), "pair_summary", args, header)
    elif args.analysis == "positions":
        files += [
            _series_file(actions.length_by_position(corpus, args.max_position + 1),
                         ["session_length", "position", "mean_query_length", "sessions"],
                         "query_length_by_position", header),
            _series_file(actions.similarity_by_position(pairs, args.max_position),
                         ["position", "mean_jaccard", "mean_cosine", "pairs"],
                         "similarity_by_position", header),
            _series_file(actions.fixed_query_similarity(corpus, args.max_position),
                         ["fixed_position", "position", "mean_cosine", "sessions"],
                         "fixed_query_similarity", header),
        ]
    elif args.analysis == "sources":
        try:
            scored = sources.score_pairs(pairs, corpus, args.k1, args.b)
        except ScoreOverflowError as exc:
            args.parser.error(f"argument --k1: {exc}; use a smaller value")
        if not scored:
            raise actions.EmptyInputError(
                "analyze sources requires at least one pair whose earlier query has results")
        # The curve comes first: with no document to score it is an
        # input error (exit 2), whatever the tables would fail with.
        curve = []
        if corpus.docstore:
            curve.append(_series_file(
                sources.dwell_threshold_curve(scored, args.dwell_thresholds, args.docstore_policy),
                ["threshold", "mean_cosine", "surviving_docs"], "dwell_thresholds", header))
        else:
            skipped = "dwell threshold curve requires --docs"
        files += _table_files(sources.rank_prefix_similarity(scored, args.k_max),
                              "rank_prefix", args, header)
        files += _table_files(sources.last_click_similarity(scored), "last_click", args, header)
        samples = sources.comparison_samples(scored, args.docstore_policy)
        # The Welch p-values come last, as they may import scipy: with
        # the corpus, the pairs and the scores released first, that
        # import reuses their memory instead of raising the peak.
        del corpora, corpus, pairs, scored
        files += _table_files(sources.source_comparison(samples), "source_comparison",
                              args, header)
        files += curve
    elif args.analysis == "scenarios":
        files += _table_files(scenarios.scenario_distribution(records),
                              "scenario_distribution", args, header)
        files.append(_series_file(scenarios.retention_by_scenario(records),
                                  ["scenario", "fraction_retained", "fraction_removed"],
                                  "retention_by_scenario", header))
        files += _table_files(scenarios.click_outcome_eval(records), "click_outcomes",
                              args, header)
        files.append(("scenario_records.csv", scenarios.records_to_csv(records)))
        if not corpus.docstore:
            notice = "no docstore attached; clicked-document bits unavailable"
    elif args.analysis == "metrics":
        metrics = ireval.score_impressions(corpus, args.cutoff)
        files += _table_files(ireval.scenario_metric_eval(records, metrics),
                              "scenario_metric_eval", args, header)
        files.append(_series_file(
            ireval.metrics_by_position(metrics),
            ["position", "mean_ndcg", "mean_nerr", "mean_map", "impressions"],
            "metrics_by_position", header))
        files.append(("impression_metrics.csv", ireval.metrics_csv(metrics)))
    os.makedirs(args.out_dir, exist_ok=True)
    for filename, text in files:
        path = os.path.join(args.out_dir, filename)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {path}")
    if notice:
        print(f"notice: {notice}")
    return _notice(args, skipped) if skipped else 0


def cmd_synth(args) -> int:
    corpus = synthgen.generate(synthgen.GeneratorSpec.from_json(read_text(args.spec)))
    _write_corpus(corpus, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessionterms",
        description="Term-based analysis of query reformulation in session search logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="parse session logs into canonical JSON")
    ingest.add_argument("--trec-xml", nargs="+", required=True, metavar="PATH")
    ingest.add_argument("--qrels", metavar="PATH")
    ingest.add_argument("--docs", metavar="DIR")
    ingest.add_argument("--stoplist", metavar="PATH")
    ingest.add_argument("--no-stem", action="store_true")
    ingest.add_argument("--drop-numeric", action="store_true")
    ingest.add_argument("--out", required=True, metavar="PATH")
    ingest.set_defaults(func=cmd_ingest)

    analyze = sub.add_parser("analyze", help="run an analysis on a canonical corpus")
    analyze.add_argument(
        "analysis",
        choices=["pairs", "positions", "sources", "scenarios", "metrics"],
    )
    analyze.add_argument("--corpus", nargs="+", required=True, metavar="PATH")
    analyze.add_argument("--config", metavar="PATH", help="JSON file of flag defaults")
    # The options a --config file may set: not --corpus, which is required
    # on the command line, nor --config itself, which is read only once.
    options = [
        analyze.add_argument("--out-dir", default="reports"),
        analyze.add_argument("--format", choices=["csv", "md", "both"], default="both"),
        analyze.add_argument("--include-test-queries", action="store_true"),
        analyze.add_argument("--k1", type=_non_negative, default=1.2),
        analyze.add_argument("--b", type=_unit_interval, default=0.75),
        analyze.add_argument("--k-max", type=_positive_int, default=5),
        analyze.add_argument("--max-position", type=_positive_int,
                             default=actions.DEFAULT_MAX_POSITION),
        analyze.add_argument("--cutoff", type=_positive_int, default=ireval.DEFAULT_CUTOFF),
        analyze.add_argument(
            "--dwell-thresholds", type=_thresholds,
            default=",".join(map(str, sources.DEFAULT_DWELL_THRESHOLDS)),
        ),
        analyze.add_argument("--docstore-policy", choices=["drop", "empty"], default="drop"),
        analyze.add_argument("--strict", action="store_true"),
    ]
    # `parser` and `options` let main() check and set the --config
    # defaults on this subparser; other keys of the namespace are internal.
    analyze.set_defaults(func=cmd_analyze, parser=analyze,
                         options=frozenset(action.dest for action in options))

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--spec", required=True, metavar="PATH")
    synth.add_argument("--out", required=True, metavar="PATH")
    synth.set_defaults(func=cmd_synth)
    return parser


def _run(argv) -> int:
    parser = build_parser()
    # --config supplies defaults; explicit flags take precedence, so the
    # first pass only finds the file and the second parses with its values.
    args, _ = parser.parse_known_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                defaults = json.load(f)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            parser.error(f"cannot read --config {args.config}: {exc}")
        if not isinstance(defaults, dict):
            parser.error(f"--config {args.config} must hold a JSON object")
        for key, value in defaults.items():
            dest = key.replace("-", "_")
            if dest not in args.options:
                args.parser.error(
                    f"--config {args.config}: {key!r} names no option a config file can set")
            args.parser.set_defaults(**{dest: _config_default(args.parser, dest, value)})
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, synthgen.SpecError, actions.EmptyInputError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MissingDocstoreError, MissingDependencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused. A
    command's corpus, indexes and scores hold no reference cycle, so a
    collection during the command would find nothing, yet walk every
    object alive. The collector is enabled again on return only if it
    was before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def console_main() -> int:
    """Entry point of the `sessionterms` script and of `python -m
    sessionterms.cli`: `main`, then `gc.freeze()`, so the interpreter's
    last collections at exit skip every object the command left alive.

    numpy, loaded only with scipy for a Welch p-value, would start an
    OpenBLAS thread per core that spins while the command runs. No
    code of the package calls BLAS, so one thread is the default; a
    value already set is kept."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
