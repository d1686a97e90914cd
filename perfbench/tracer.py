"""In-memory span tracer installed around the public calls of each
sessionterms layer, from outside the package.

A span is (name, start_ns, end_ns, parent index); every command of one
pipeline is given the same run id. Spans stay in memory and are written
once, when the command ends. `self_times` turns a span
list into self time per name: a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Traced call -> span name. A callable name is resolved as
# "module:qualname"; build_stats spans are named after their source kind.
TRACED = {
    "sessionterms.corpus:ingest_trec_xml": "corpus.ingest_trec_xml",
    "sessionterms.corpus:ingest_qrels": "corpus.ingest_qrels",
    "sessionterms.corpus:attach_documents": "corpus.attach_documents",
    "sessionterms.corpus:to_canonical_json": "corpus.to_canonical_json",
    "sessionterms.corpus:from_canonical_json": "corpus.from_canonical_json",
    "sessionterms.corpus:Corpus.doc_terms": "corpus.doc_terms",
    "sessionterms.textnorm:normalize": "textnorm.normalize",
    "sessionterms.actions:extract_pairs": "actions.extract_pairs",
    "sessionterms.actions:pair_summary": "actions.pair_summary",
    "sessionterms.actions:length_by_position": "actions.positions",
    "sessionterms.actions:similarity_by_position": "actions.positions",
    "sessionterms.actions:fixed_query_similarity": "actions.positions",
    "sessionterms.similarity:build_stats": "similarity.build_stats",
    "sessionterms.sources:rank_prefix_similarity": "sources.rank_prefix_similarity",
    "sessionterms.sources:last_click_similarity": "sources.last_click_similarity",
    "sessionterms.sources:source_comparison": "sources.source_comparison",
    "sessionterms.sources:dwell_threshold_curve": "sources.dwell_threshold_curve",
    "sessionterms.scenarios:assign_scenarios": "scenarios.assign_scenarios",
    "sessionterms.scenarios:scenario_distribution": "scenarios.tables",
    "sessionterms.scenarios:retention_by_scenario": "scenarios.tables",
    "sessionterms.scenarios:click_outcome_eval": "scenarios.tables",
    "sessionterms.scenarios:records_to_csv": "scenarios.tables",
    "sessionterms.ireval:metrics_by_position": "ireval.metrics_by_position",
    "sessionterms.ireval:scenario_metric_eval": "ireval.scenario_metric_eval",
    "sessionterms.ireval:metrics_csv": "ireval.metrics_csv",
    "sessionterms.report:ReportTable.to_csv": "report.render",
    "sessionterms.report:ReportTable.to_markdown": "report.render",
    "sessionterms.cli:main": "cli.main",
}

# Calls inside these spans are part of their self time: a document's
# normalization is the cost of its first doc_terms touch.
OPAQUE = {"corpus.doc_terms"}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.name_index = {}
        self.spans = []  # [name index, start ns, end ns, parent index]
        self.counts = {}
        self.stack = []
        self.opaque_depth = 0

    def name_id(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, fn, name):
        tracer = self
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.opaque_depth:
                return fn(*args, **kwargs)
            span_name = name
            if name == "similarity.build_stats":
                kind = args[1] if len(args) > 1 else kwargs["kind"]
                span_name = f"{name}.{kind.value}"
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [tracer.name_id(span_name), time.perf_counter_ns(), 0, parent]
            tracer.spans.append(span)
            tracer.stack.append(index)
            tracer.opaque_depth += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.opaque_depth -= opaque
                tracer.stack.pop()
                span[2] = time.perf_counter_ns()
            tracer._count(span_name, result)
            return result

        return traced

    def _count(self, name, result):
        if name == "textnorm.normalize":
            self.counts["textnorm.tokens"] = self.counts.get("textnorm.tokens", 0) + result.length
        elif name.startswith("similarity.build_stats."):
            self.counts[name + ".instances"] = result.N
        elif name == "scenarios.assign_scenarios":
            self.counts["scenarios.records"] = len(result)

    def install(self):
        """Replace every traced callable, in every sessionterms module that
        holds a reference to it, by its traced wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if n == "sessionterms" or n.startswith("sessionterms.")]
        for target, name in TRACED.items():
            module_name, qualname = target.split(":")
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name)
            setattr(owner, attr, wrapped)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"run": self.run_id, "names": self.names, "spans": self.spans,
                       "counts": self.counts}, f)


def self_times(doc) -> dict:
    """Self seconds per span name of one dumped trace."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for (name, start, end, _), children in zip(spans, child_ns):
        key = doc["names"][name]
        totals[key] = totals.get(key, 0.0) + (end - start - children) / 1e9
    return totals
