"""Command-line front end: ingest logs, run the analyses, generate
synthetic corpora. Reports are written as CSV plus Markdown mirrors;
figure data series are emitted as CSV for external plotting.

Exit codes: 0 success (including degraded runs with notices), 1
analysis failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace

from . import actions, ireval, scenarios, sources, synthgen
from .corpus import (
    Corpus,
    IngestError,
    attach_documents,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    merge,
    normalization_settings,
    to_canonical_json,
)
from .similarity import MissingDocstoreError
from .textnorm import NormalizationConfig, load_stoplist

STOPLIST_ENV = "SESSIONTERMS_STOPLIST"


def _config_hash(config: NormalizationConfig) -> str:
    doc = json.dumps(normalization_settings(config), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def _normalization_config(args) -> NormalizationConfig:
    stoplist = None
    path = args.stoplist or os.environ.get(STOPLIST_ENV)
    if path:
        stoplist = load_stoplist(path)
    return NormalizationConfig(
        stoplist=stoplist,
        stemming_enabled=not args.no_stem,
        keep_numeric_tokens=not args.drop_numeric,
    )


def _load_corpus(path) -> Corpus:
    with open(path, "rb") as f:
        return from_canonical_json(f.read())


def cmd_ingest(args) -> int:
    config = _normalization_config(args)
    corpora = [ingest_trec_xml(path, config) for path in args.trec_xml]
    corpus = corpora[0] if len(corpora) == 1 else merge(
        corpora, provenance="+".join(c.provenance for c in corpora)
    )
    if args.qrels:
        corpus = replace(corpus, qrels=ingest_qrels(args.qrels))
    if args.docs:
        corpus = attach_documents(corpus, args.docs)
    with open(args.out, "wb") as f:
        f.write(to_canonical_json(corpus))
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


def _write_table(table, name, args, corpus):
    table.header["normalization"] = _config_hash(corpus.config)
    table.header["provenance"] = corpus.provenance
    os.makedirs(args.out_dir, exist_ok=True)
    paths = []
    if args.format in ("csv", "both"):
        path = os.path.join(args.out_dir, name + ".csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(table.to_csv())
        paths.append(path)
    if args.format in ("md", "both"):
        path = os.path.join(args.out_dir, name + ".md")
        with open(path, "w", encoding="utf-8") as f:
            f.write(table.to_markdown())
        paths.append(path)
    for path in paths:
        print(f"wrote {path}")


def _write_series(rows, columns, name, args, corpus):
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name + ".csv")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# normalization: {_config_hash(corpus.config)}\n")
        f.write(f"# provenance: {corpus.provenance}\n")
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    print(f"wrote {path}")


def _write_text(text, name, args):
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {path}")


def _notice(args, message) -> int:
    if args.strict:
        print(f"error: {message}", file=sys.stderr)
        return 1
    print(f"notice: {message} (skipped)")
    return 0


def cmd_analyze(args) -> int:
    corpora = [_load_corpus(path) for path in args.corpus]
    corpus = corpora[0] if len(corpora) == 1 else merge(
        corpora, provenance="+".join(c.provenance for c in corpora)
    )
    pairs = actions.extract_pairs(corpus, include_test_queries=args.include_test_queries)
    rc = 0
    if args.analysis == "pairs":
        if len(corpora) > 1:
            by_label = {
                c.provenance: actions.extract_pairs(c, args.include_test_queries)
                for c in corpora
            }
        else:
            by_label = {corpus.provenance: pairs}
        _write_table(actions.pair_summary(by_label), "pair_summary", args, corpus)
    elif args.analysis == "positions":
        lengths_rows = []
        for session_length in range(2, args.max_position + 2):
            for pos, mean, count in actions.length_by_position(corpus, session_length):
                lengths_rows.append((session_length, pos, mean, count))
        _write_series(
            lengths_rows,
            ["session_length", "position", "mean_query_length", "sessions"],
            "query_length_by_position", args, corpus,
        )
        _write_series(
            actions.similarity_by_position(corpus, args.include_test_queries, args.max_position),
            ["position", "mean_jaccard", "mean_cosine", "pairs"],
            "similarity_by_position", args, corpus,
        )
        fixed_rows = []
        for x in range(1, args.max_position + 1):
            for pos, mean, count in actions.fixed_query_similarity(corpus, x, args.max_position):
                fixed_rows.append((x, pos, mean, count))
        _write_series(
            fixed_rows,
            ["fixed_position", "position", "mean_cosine", "sessions"],
            "fixed_query_similarity", args, corpus,
        )
    elif args.analysis == "sources":
        _write_table(
            sources.rank_prefix_similarity(pairs, corpus, args.k_max, args.k1, args.b),
            "rank_prefix", args, corpus,
        )
        _write_table(
            sources.last_click_similarity(pairs, corpus, args.k1, args.b),
            "last_click", args, corpus,
        )
        _write_table(
            sources.source_comparison(pairs, corpus, args.docstore_policy, args.k1, args.b),
            "source_comparison", args, corpus,
        )
        if corpus.docstore:
            thresholds = [float(t) for t in args.dwell_thresholds.split(",")]
            _write_series(
                sources.dwell_threshold_curve(pairs, corpus, thresholds, args.docstore_policy),
                ["threshold", "mean_cosine", "surviving_docs"],
                "dwell_thresholds", args, corpus,
            )
        else:
            rc = max(rc, _notice(args, "dwell threshold curve requires --docs"))
    elif args.analysis == "scenarios":
        eligible = [p for p in pairs if not p.involves_test_query]
        records = scenarios.assign_scenarios(eligible, corpus, args.docstore_policy)
        _write_table(scenarios.scenario_distribution(records), "scenario_distribution", args, corpus)
        _write_series(
            scenarios.retention_by_scenario(records),
            ["scenario", "fraction_retained", "fraction_removed"],
            "retention_by_scenario", args, corpus,
        )
        _write_table(scenarios.click_outcome_eval(records), "click_outcomes", args, corpus)
        _write_text(scenarios.records_to_csv(records), "scenario_records.csv", args)
        if not corpus.docstore:
            print("notice: no docstore attached; clicked-document bits unavailable")
    elif args.analysis == "metrics":
        if corpus.qrels is None:
            return _notice(args, "metric evaluation requires qrels")
        eligible = [p for p in pairs if not p.involves_test_query]
        records = scenarios.assign_scenarios(eligible, corpus, args.docstore_policy)
        _write_table(
            ireval.scenario_metric_eval(records, corpus, cutoff=args.cutoff),
            "scenario_metric_eval", args, corpus,
        )
        _write_series(
            ireval.metrics_by_position(corpus, cutoff=args.cutoff),
            ["position", "mean_ndcg", "mean_nerr", "mean_map", "impressions"],
            "metrics_by_position", args, corpus,
        )
        _write_text(ireval.metrics_csv(corpus, cutoff=args.cutoff), "impression_metrics.csv", args)
    return rc


def cmd_synth(args) -> int:
    with open(args.spec, encoding="utf-8") as f:
        spec = synthgen.GeneratorSpec.from_json(f.read())
    corpus = synthgen.generate(spec)
    with open(args.out, "wb") as f:
        f.write(to_canonical_json(corpus))
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
    analyze.add_argument("--out-dir", default="reports")
    analyze.add_argument("--format", choices=["csv", "md", "both"], default="both")
    analyze.add_argument("--include-test-queries", action="store_true")
    analyze.add_argument("--k1", type=float, default=1.2)
    analyze.add_argument("--b", type=float, default=0.75)
    analyze.add_argument("--k-max", type=int, default=5)
    analyze.add_argument("--max-position", type=int, default=9)
    analyze.add_argument("--cutoff", type=int, default=10)
    analyze.add_argument(
        "--dwell-thresholds", default=",".join(map(str, sources.DEFAULT_DWELL_THRESHOLDS))
    )
    analyze.add_argument("--docstore-policy", choices=["drop", "empty"], default="drop")
    analyze.add_argument("--strict", action="store_true")
    analyze.add_argument("--config", metavar="PATH", help="JSON file of flag defaults")
    # `parser` lets main() set the --config defaults on this subparser.
    analyze.set_defaults(func=cmd_analyze, parser=analyze)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--spec", required=True, metavar="PATH")
    synth.add_argument("--out", required=True, metavar="PATH")
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # --config supplies defaults; explicit flags take precedence, so the
    # first pass only finds the file and the second parses with its values.
    args, _ = parser.parse_known_args(argv)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as f:
                defaults = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read --config {args.config}: {exc}")
        args.parser.set_defaults(**{k.replace("-", "_"): v for k, v in defaults.items()})
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IngestError, synthgen.SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MissingDocstoreError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
