"""Term-based analysis of query reformulation in session search logs."""

from .actions import (
    QueryPair,
    extract_pairs,
    fixed_query_similarity,
    length_by_position,
    pair_summary,
    similarity_by_position,
)
from .corpus import (
    ClickEvent,
    Corpus,
    Impression,
    IngestError,
    RelevanceJudgments,
    Session,
    SnippetEntry,
    attach_documents,
    from_canonical_json,
    ingest_qrels,
    ingest_trec_xml,
    merge,
    to_canonical_json,
)
from .ireval import (
    average_precision,
    metrics_by_position,
    ndcg_at_k,
    nerr_at_k,
    scenario_metric_eval,
)
from .report import Cell, ReportTable
from .scenarios import (
    ScenarioRecord,
    assign_scenarios,
    click_outcome_eval,
    retention_by_scenario,
    scenario_distribution,
    scenario_index,
    scenario_membership,
)
from .similarity import (
    CollectionStats,
    MissingDocstoreError,
    SourceKind,
    bm25,
    build_stats,
    cosine_tf,
    cosine_tfidf,
    jaccard,
)
from .sources import (
    dwell_threshold_curve,
    extract_source,
    historical_terms,
    last_click_similarity,
    rank_prefix_similarity,
    source_comparison,
)
from .stattests import TestResult, welch_t, wilcoxon_signed_rank
from .synthgen import GeneratorSpec, expected_statistics, generate
from .textnorm import (
    NormalizationConfig,
    TermBag,
    normalize,
    stem,
    strip_html,
    tokenize,
)

__version__ = "0.1.0"
