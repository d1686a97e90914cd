"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line. Criteria 2 and 3 need the public TREC Session Track
logs; point SESSIONTERMS_TREC_DIR at a directory containing the session
XML to enable them, otherwise they are skipped with a notice.
"""

import itertools
import math
import os
import random

import pytest

from sessionterms.actions import extract_pairs, pair_summary
from sessionterms.cli import main as cli_main
from sessionterms.corpus import (
    from_canonical_json,
    ingest_trec_xml,
    to_canonical_json,
)
from sessionterms.ireval import average_precision, ndcg_at_k, nerr_at_k
from sessionterms.scenarios import (
    ADDED_TERM,
    QUERY_TERM,
    assign_scenarios,
    scenario_index,
    scenario_membership,
)
from sessionterms.similarity import cosine_tf, jaccard
from sessionterms.sources import (
    SourceIndex,
    clicked_mask,
    comparison_samples,
    score_pairs,
    source_comparison,
)
from sessionterms.stattests import welch_t, wilcoxon_signed_rank
from sessionterms.synthgen import GeneratorSpec, expected_statistics, generate
from sessionterms.textnorm import NormalizationConfig, TermBag, normalize

from conftest import summed_bag

TREC_ENV = "SESSIONTERMS_TREC_DIR"


@pytest.fixture
def report(capsys):
    """Print one PASS/FAIL line per criterion, bypassing capture so the
    verdicts appear in plain pytest output."""

    def _report(number, description, passed):
        with capsys.disabled():
            print(f"\nacceptance {number}: {'PASS' if passed else 'FAIL'} - {description}")
        assert passed, f"acceptance criterion {number} failed: {description}"

    return _report


@pytest.fixture
def skip_notice(capsys):
    def _skip(number, message):
        with capsys.disabled():
            print(f"\nacceptance {number}: SKIP - {message}")
        pytest.skip(message)

    return _skip


def trec_sessions():
    directory = os.environ.get(TREC_ENV)
    if not directory or not os.path.isdir(directory):
        return None
    config = NormalizationConfig()
    corpora = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".xml"):
            corpora.append(ingest_trec_xml(os.path.join(directory, name), config))
    return corpora or None


def test_criterion_1_worked_example_exactness(report):
    config = NormalizationConfig()
    q4 = normalize("gun control current affairs", config)
    q5 = normalize("gun violence us", config)
    j = jaccard(q4.terms, q5.terms)
    c = cosine_tf(q4, q5)
    ok = (
        j == pytest.approx(1 / 6)
        and c == pytest.approx(1 / (2 * math.sqrt(3)))
        and round(j, 2) == 0.17
        and round(c, 2) == 0.29
    )
    report(1, "session-40 pair jaccard = 1/6 and cosine = 1/(2*sqrt(3))", ok)


def test_criterion_2_pair_summary_reproduction(report, skip_notice):
    corpora = trec_sessions()
    if corpora is None:
        skip_notice(2, f"session logs not found (set {TREC_ENV})")
    by_label = {c.provenance: extract_pairs(c) for c in corpora}
    table = pair_summary(by_label)
    col = "combined" if len(corpora) > 1 else corpora[0].provenance
    targets = {
        "jaccard": 0.50,
        "cosine": 0.63,
        "retained": 2.13,
        "removed": 1.12,
        "added": 1.24,
    }
    ok = all(abs(table.value(row, col) - want) <= 0.05 for row, want in targets.items())
    report(2, "combined pair summary within +/-0.05 of reference values", ok)


def test_criterion_3_scenario_distribution_reproduction(report, skip_notice):
    corpora = trec_sessions()
    if corpora is None:
        skip_notice(3, f"session logs not found (set {TREC_ENV})")
    from sessionterms.corpus import merge

    corpus = merge(corpora)
    pairs = [p for p in extract_pairs(corpus) if not p.involves_test_query]
    records = assign_scenarios(pairs, corpus)
    query = [r for r in records if r.origin == QUERY_TERM]
    counts = {s: 0 for s in range(1, 9)}
    for rec in query:
        counts[rec.scenario] += 1
    pct = {s: 100.0 * n / len(query) for s, n in counts.items()}
    ok = pct[5] + pct[8] >= 80.0 and pct[5] == max(pct.values())
    report(3, "query-term scenarios 5+8 >= 80% with scenario 5 the mode", ok)


def brute_ndcg(perm, pool, k=10):
    def dcg(grades):
        return sum((2 ** g - 1) / math.log2(r + 1) for r, g in enumerate(grades[:k], 1))

    ideal = dcg(sorted(pool, reverse=True))
    return dcg(list(perm)) / ideal if ideal else 0.0


def brute_nerr(perm, pool, k=10):
    def err(grades):
        total, survive = 0.0, 1.0
        for r, g in enumerate(grades[:k], 1):
            stop = (2 ** g - 1) / 16
            total += survive * stop / r
            survive *= 1 - stop
        return total

    ideal = err(sorted(pool, reverse=True))
    return err(list(perm)) / ideal if ideal else 0.0


def brute_ap(perm, relevant):
    if relevant <= 0:
        return 0.0
    hits, total = 0, 0.0
    for r, g in enumerate(perm, 1):
        if g > 0:
            hits += 1
            total += hits / r
    return total / relevant


def test_criterion_4_metric_oracle_suite(report):
    cases = 0
    ok = True
    # full enumeration of length-3 graded lists and their permutations
    for pool in itertools.product(range(5), repeat=3):
        relevant = sum(1 for g in pool if g > 0)
        for perm in itertools.permutations(pool):
            cases += 1
            ok &= ndcg_at_k(list(perm), list(pool)) == pytest.approx(
                brute_ndcg(perm, pool), abs=1e-12
            )
            ok &= nerr_at_k(list(perm), list(pool)) == pytest.approx(
                brute_nerr(perm, pool), abs=1e-12
            )
            ok &= average_precision(list(perm), relevant) == pytest.approx(
                brute_ap(perm, relevant), abs=1e-12
            )
    rng = random.Random(101)
    for _ in range(500):
        pool = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        relevant = sum(1 for g in pool if g > 0)
        for perm in itertools.permutations(pool):
            cases += 1
            ok &= ndcg_at_k(list(perm), pool) == pytest.approx(brute_ndcg(perm, pool), abs=1e-12)
            ok &= nerr_at_k(list(perm), pool) == pytest.approx(brute_nerr(perm, pool), abs=1e-12)
            ok &= average_precision(list(perm), relevant) == pytest.approx(
                brute_ap(perm, relevant), abs=1e-12
            )
    report(4, f"NDCG/NERR/AP match brute force on {cases} permutation cases", ok)


WELCH_REFERENCE = [
    ([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], 0.34659350708733416),
    ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 1.0),
    ([0, 0, 0, 0], [10, 10, 10, 10.0001], 3.445779752871818e-17),
    ([1.5, 2.5], [9.0, 9.5, 10.0], 0.010954417689669428),
    ([1, 1, 2, 2, 3, 3], [10, 20, 30], 0.08872722222031758),
    ([5.1, 4.9, 5.0, 5.2], [5.0, 5.1, 4.95, 5.05, 5.15], 1.0),
    ([-3, -1, 0, 2, 4, 6], [1, 1, 1], 0.8158714843641037),
    ([2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9], 0.1951661946063394),
    ([0.2, 0.4, 0.6, 0.8, 1.0, 1.2], [0.1, 0.5, 0.9], 0.5116443934134248),
    ([3.2, 3.8, 4.1, 2.9, 3.5, 4.4, 3.0, 3.7], [5.1, 4.8, 5.6, 5.0], 0.00017279093012187267),
]


def enumeration_wilcoxon(deltas):
    nonzero = [d for d in deltas if d != 0.0]
    order = sorted(range(len(nonzero)), key=lambda i: abs(nonzero[i]))
    ranks = [0.0] * len(nonzero)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and abs(nonzero[order[j + 1]]) == abs(nonzero[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    w_obs = sum(r for d, r in zip(nonzero, ranks) if d > 0)
    n = len(nonzero)
    if n == 0:
        return 1.0
    low = high = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w <= w_obs + 1e-9:
            low += 1
        if w >= w_obs - 1e-9:
            high += 1
    return min(1.0, 2.0 * min(low, high) / 2 ** n)


def test_criterion_5_statistical_test_oracles(report):
    ok = True
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(1, 12)
        deltas = [rng.randint(-5, 5) * 0.5 for _ in range(n)]
        ok &= wilcoxon_signed_rank(deltas).p_value == pytest.approx(
            enumeration_wilcoxon(deltas), abs=1e-12
        )
    for a, b, p_ref in WELCH_REFERENCE:
        ok &= welch_t(a, b).p_value == pytest.approx(p_ref, abs=1e-3)
    report(5, "Wilcoxon matches sign enumeration; Welch matches reference table", ok)


ACCEPTANCE_SPECS = [
    GeneratorSpec(seed=70, sessions=2000, session_length=6, query_length=3,
                  p_keep=0.7, drift=0.1),
    GeneratorSpec(seed=71, sessions=2000, session_length=6, query_length=4,
                  p_keep=0.5, p_ncs=0.6, click_prob=0.3),
    GeneratorSpec(seed=72, sessions=2000, session_length=6, query_length=3,
                  p_keep=0.6, p_ncs=0.3, p_cs=0.5, p_cd=0.4,
                  force_click=True, click_prob=0.3),
    GeneratorSpec(seed=73, sessions=2000, session_length=6, query_length=3,
                  p_keep=0.4, p_ncs=0.1, p_cs=0.2, p_cd=0.8,
                  force_click=True, click_prob=0.2),
    GeneratorSpec(seed=74, sessions=1000, session_length=11, query_length=3,
                  p_keep=0.8, drift=0.05, p_ncs=0.5, click_prob=0.5),
]


def test_criterion_6_synthetic_recovery(report):
    ok = True
    dominance_checked = False
    for spec in ACCEPTANCE_SPECS:
        expected = expected_statistics(spec)
        corpus = generate(spec)
        pairs = extract_pairs(corpus)
        assert len(pairs) == spec.sessions * (spec.session_length - 1)
        n = len(pairs)
        for name, values in (
            ("retained", [len(p.retained) for p in pairs]),
            ("removed", [len(p.removed) for p in pairs]),
            ("added", [len(p.added) for p in pairs]),
        ):
            mean = sum(values) / n
            se = math.sqrt(expected[f"var_{name}"] / n)
            ok &= abs(mean - expected[f"mean_{name}"]) <= 3 * se + 1e-9
        records = [
            r for r in assign_scenarios(pairs, corpus) if r.origin == ADDED_TERM
        ]
        if records:
            m = len(records)
            observed = {s: 0 for s in range(1, 9)}
            for rec in records:
                observed[rec.scenario] += 1
            for scenario, p in expected["added_scenario_distribution"].items():
                se = math.sqrt(p * (1 - p) / m)
                ok &= abs(observed[scenario] / m - p) <= 3 * se + 1e-9
        if spec.p_cd > 0 and spec.p_cd >= 4 * max(spec.p_ncs, 0.01):
            dominance_checked = True
            table = source_comparison(comparison_samples(score_pairs(pairs, corpus)))
            for col in ("jaccard", "cosine", "bm25"):
                ok &= table.value("cd", col) > table.value("ncd", col)
    ok &= dominance_checked
    report(6, "5 synthetic specs recover planted statistics within 3 SE", ok)


def test_criterion_7_determinism(tmp_path, report):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"seed": 19, "sessions": 15, "session_length": 4, '
        '"p_cs": 0.4, "p_cd": 0.4, "force_click": true}'
    )
    corpus_path = tmp_path / "corpus.json"
    assert cli_main(["synth", "--spec", str(spec_path), "--out", str(corpus_path)]) == 0
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        for analysis in ("pairs", "sources", "scenarios"):
            assert cli_main(
                ["analyze", analysis, "--corpus", str(corpus_path),
                 "--out-dir", str(out_dir)]
            ) == 0
        outputs.append(
            {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
        )
    ok = outputs[0] == outputs[1]
    corpus = from_canonical_json(corpus_path.read_bytes())
    blob = to_canonical_json(corpus)
    ok &= from_canonical_json(blob) == corpus and to_canonical_json(
        from_canonical_json(blob)
    ) == blob
    report(7, "analyze reruns byte-identical; canonical JSON round trip lossless", ok)


def test_criterion_8_randomized_invariants(report):
    ok = True
    cases = 0
    rng = random.Random(88)
    vocab = [f"t{i}" for i in range(15)]
    # similarity bounds and symmetry
    for _ in range(4000):
        cases += 1
        a = set(rng.sample(vocab, rng.randint(0, 8)))
        b = set(rng.sample(vocab, rng.randint(0, 8)))
        j = jaccard(a, b)
        ok &= 0.0 <= j <= 1.0 and j == jaccard(b, a)
        bag_a = TermBag({t: rng.randint(1, 4) for t in a})
        bag_b = TermBag({t: rng.randint(1, 4) for t in b})
        c = cosine_tf(bag_a, bag_b)
        ok &= -1e-12 <= c <= 1.0 + 1e-12 and c == cosine_tf(bag_b, bag_a)
    # scenario bijection
    for _ in range(3000):
        cases += 1
        bits = (rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.5)
        ok &= scenario_membership(scenario_index(*bits)) == bits
    # source partition over generated impressions: the clicked mask
    # splits the snippets into clicked and non-clicked ones, and the
    # impression bag holds every snippet and every clicked document
    corpus = generate(GeneratorSpec(seed=90, sessions=120, session_length=5,
                                    click_prob=0.5))
    index = SourceIndex(corpus)
    for session in corpus.sessions:
        impressions = index.impressions(session)
        for imp in session.impressions:
            cases += 1
            mask = clicked_mask(imp)
            clicked = [r for r, c in zip(imp.results, mask) if c]
            non = [r for r, c in zip(imp.results, mask) if not c]
            ok &= len(clicked) + len(non) == len(imp.results)
            ok &= {r.rank for r in clicked} == {c.rank for c in imp.clicks}
            full = summed_bag(r.terms for r in imp.results)
            ok &= summed_bag(r.terms for r in clicked + non) == full
            if not imp.is_test_query:
                full = summed_bag([full, *(corpus.doc_terms(r.docid) for r in clicked)])
                ok &= impressions[imp.position] == full
                ok &= None not in index.clicked_docs(imp)
    # metric delta antisymmetry: swapping the two rankings negates each delta
    for _ in range(3000):
        cases += 1
        pool = [rng.randint(0, 4) for _ in range(4)]
        perm_a = rng.sample(pool, len(pool))
        perm_b = rng.sample(pool, len(pool))
        d_fwd = ndcg_at_k(perm_b, pool) - ndcg_at_k(perm_a, pool)
        d_rev = ndcg_at_k(perm_a, pool) - ndcg_at_k(perm_b, pool)
        ok &= d_fwd == pytest.approx(-d_rev, abs=1e-12)
    ok &= cases >= 10000
    report(8, f"randomized invariants hold over {cases} generated cases", ok)
