"""Deterministic synthetic-session generator used as a ground-truth
oracle: term behavior is planted with known probabilities so the
analysis modules can be validated against closed-form expectations.

Randomness comes from a SplitMix64 counter generator documented below,
so a fixed seed always yields byte-identical canonical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .corpus import ClickEvent, Corpus, Impression, Session, SnippetEntry
from .scenarios import scenario_index
from .textnorm import NormalizationConfig, TermBag

_MASK = (1 << 64) - 1


class SplitMix64:
    """Counter-based generator: state advances by the 64-bit golden
    gamma 0x9E3779B97F4A7C15, the output is a finalizer mix of the
    counter. Simple, splittable and reproducible everywhere.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self, index: int) -> "SplitMix64":
        """Independent child stream keyed on an index."""
        mixer = SplitMix64((self.state ^ (index * 0xD1342543DE82EF95)) & _MASK)
        return SplitMix64(mixer.next_u64())

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]; modulo bias is negligible for
        the small ranges used here."""
        return low + self.next_u64() % (high - low + 1)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def sample_distinct(self, low: int, high: int, k: int, exclude=frozenset()):
        """k distinct integers from [low, high] not in exclude."""
        if high - low + 1 - len(exclude) < k:
            raise SpecError("vocabulary too small for requested sample")
        picked = []
        seen = set(exclude)
        while len(picked) < k:
            x = self.randint(low, high)
            if x not in seen:
                seen.add(x)
                picked.append(x)
        return picked


class SpecError(Exception):
    pass


class UnsupportedSpecError(Exception):
    """Spec outside the analytically tractable regime."""


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 0
    sessions: int = 10
    session_length: int = 4  # queries per session (or [min, max] in JSON)
    session_length_max: int | None = None
    vocabulary_size: int = 1000
    query_length: int = 3
    p_keep: float = 0.7
    drift: float = 0.0
    p_ncs: float = 0.0
    p_cs: float = 0.0
    p_cd: float = 0.0
    click_prob: float = 0.3
    click_decay: float = 0.5
    force_click: bool = False
    results_per_query: int = 5
    snippet_length: int = 10
    doc_length: int = 30
    with_test_query: bool = False

    def __post_init__(self):
        for name in ("seed", "sessions", "session_length", "session_length_max",
                     "vocabulary_size", "query_length", "results_per_query",
                     "snippet_length", "doc_length"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "session_length_max" and value is None):
                raise SpecError(f"{name} must be an integer, got {value!r}")
        if self.session_length_max is not None and self.session_length_max < self.session_length:
            raise SpecError("the session_length maximum must be at least its minimum")
        for name in ("p_keep", "drift", "p_ncs", "p_cs", "p_cd",
                     "click_prob", "click_decay"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0.0 <= value <= 1.0:
                raise SpecError(f"{name} must be a number in [0, 1], got {value!r}")
        for name in ("force_click", "with_test_query"):
            if type(getattr(self, name)) is not bool:
                raise SpecError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.sessions <= 0 or self.session_length < 1 or self.query_length < 1:
            raise SpecError("sessions, session_length and query_length must be positive")
        if self.vocabulary_size < 3 * self.query_length:
            raise SpecError("vocabulary_size must be at least 3x query_length")
        if self.results_per_query < 2:
            raise SpecError("results_per_query must be at least 2")

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SpecError(f"invalid spec JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SpecError("spec must be a JSON object")
        if isinstance(doc.get("session_length"), list):
            if len(doc["session_length"]) != 2:
                raise SpecError("session_length must be an integer or a list of two integers")
            low, high = doc["session_length"]
            doc = dict(doc, session_length=low, session_length_max=high)
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise SpecError(f"unknown spec fields: {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise SpecError(str(exc)) from exc


def _session_length(spec, rng):
    if spec.session_length_max is None:
        return spec.session_length
    return rng.randint(spec.session_length, spec.session_length_max)


def _qterm(i):
    return f"q{i}"


def generate(spec: GeneratorSpec) -> Corpus:
    """Generate a corpus with planted term behavior.

    Queries evolve by keeping each term with p_keep (further thinned by
    the drift rate) and refilling to a fixed length with fresh terms;
    each fresh term is planted into the predecessor impression's
    non-clicked snippets, clicked snippets and clicked documents with
    the configured probabilities. Snippet and document filler vocabulary
    is disjoint from the query vocabulary, so source membership is
    exactly what was planted.
    """
    config = NormalizationConfig(stoplist=frozenset(), stemming_enabled=False)
    master = SplitMix64(spec.seed)
    sessions = []
    docstore = {}
    for s_index in range(spec.sessions):
        rng = master.split(s_index + 1)
        length = _session_length(spec, rng)
        # 1. query sequence with planted additions
        queries = []
        additions = []  # additions[i]: terms added in query i with membership bits
        q = set(_qterm(i) for i in rng.sample_distinct(
            0, spec.vocabulary_size - 1, spec.query_length))
        queries.append(q)
        additions.append({})
        for _ in range(1, length):
            kept = {
                t for t in sorted(queries[-1])
                if rng.bernoulli(spec.p_keep) and not rng.bernoulli(spec.drift)
            }
            need = spec.query_length - len(kept)
            exclude = {int(t[1:]) for t in queries[-1]}
            fresh = [
                _qterm(i)
                for i in rng.sample_distinct(0, spec.vocabulary_size - 1, need, exclude)
            ]
            planted = {
                t: (
                    rng.bernoulli(spec.p_ncs),
                    rng.bernoulli(spec.p_cs),
                    rng.bernoulli(spec.p_cd),
                )
                for t in fresh
            }
            queries.append(kept | set(fresh))
            additions.append(planted)

        # 2. impressions with planting
        impressions = []
        filler_counter = 0

        def filler(count):
            nonlocal filler_counter
            tokens = [f"f{s_index}x{filler_counter + i}" for i in range(count)]
            filler_counter += count
            return tokens

        for n in range(1, length + 1):
            is_test = spec.with_test_query and n == length
            query_text = " ".join(sorted(queries[n - 1]))
            if is_test:
                impressions.append(Impression(
                    position=n,
                    raw_query=query_text,
                    query_terms=TermBag.from_tokens(sorted(queries[n - 1])),
                    results=(),
                    clicks=(),
                ))
                continue
            m = spec.results_per_query
            # clicks on ranks 1..M-1 so a non-clicked snippet always exists
            clicked = [
                rank for rank in range(1, m)
                if rng.bernoulli(spec.click_prob * spec.click_decay ** (rank - 1))
            ]
            if spec.force_click and not clicked:
                clicked = [1]
            snippet_tokens = {rank: filler(spec.snippet_length) for rank in range(1, m + 1)}
            doc_tokens = {rank: filler(spec.doc_length) for rank in range(1, m + 1)}
            # plant next query's additions into this impression
            if n < length:
                non_clicked = [r for r in range(1, m + 1) if r not in clicked]
                for term, (b_ncs, b_cs, b_cd) in sorted(additions[n].items()):
                    if b_ncs and non_clicked:
                        snippet_tokens[non_clicked[rng.randint(0, len(non_clicked) - 1)]].append(term)
                    if b_cs and clicked:
                        snippet_tokens[clicked[rng.randint(0, len(clicked) - 1)]].append(term)
                    if b_cd and clicked:
                        doc_tokens[clicked[rng.randint(0, len(clicked) - 1)]].append(term)
            results = []
            for rank in range(1, m + 1):
                docid = f"d{s_index}-{n}-{rank}"
                snippet = " ".join(snippet_tokens[rank])
                docstore[docid] = " ".join(doc_tokens[rank])
                results.append(SnippetEntry(
                    rank=rank,
                    url=f"http://synthetic/{docid}",
                    docid=docid,
                    title="",
                    snippet=snippet,
                    terms=TermBag.from_tokens(snippet_tokens[rank]),
                ))
            clicks = tuple(
                ClickEvent(
                    rank=rank,
                    order=order,
                    start_time=float(10 * order),
                    end_time=float(10 * order) + 5.0 + 55.0 * rng.random(),
                )
                for order, rank in enumerate(sorted(clicked), start=1)
            )
            impressions.append(Impression(
                position=n,
                raw_query=query_text,
                query_terms=TermBag.from_tokens(sorted(queries[n - 1])),
                results=tuple(results),
                clicks=clicks,
            ))
        sessions.append(Session(
            id=f"synth-{s_index}", topic_id=None, impressions=tuple(impressions)
        ))
    return Corpus(
        sessions=tuple(sessions),
        config=config,
        docstore=docstore,
        provenance=f"synthetic seed={spec.seed}",
    ).validate()


def expected_statistics(spec: GeneratorSpec) -> dict:
    """Closed-form expectations for the tractable Bernoulli regime.

    Requires a fixed session length; clicked-source planting (p_cs or
    p_cd > 0) additionally requires force_click so the planted bits are
    always realizable.
    """
    if spec.session_length_max is not None:
        raise UnsupportedSpecError("expected_statistics requires a fixed session length")
    if (spec.p_cs > 0 or spec.p_cd > 0) and not spec.force_click:
        raise UnsupportedSpecError(
            "clicked-source planting requires force_click for tractability"
        )
    eff_keep = spec.p_keep * (1.0 - spec.drift)
    length = spec.query_length
    scenario_dist = {}
    for scenario in range(1, 9):
        p = 1.0
        for bit, prob in zip(
            ((scenario - 1) & 4, (scenario - 1) & 2, (scenario - 1) & 1),
            (spec.p_ncs, spec.p_cs, spec.p_cd),
        ):
            p *= prob if bit else (1.0 - prob)
        scenario_dist[scenario] = p
    assert scenario_index(True, True, True) == 8
    return {
        "mean_retained": length * eff_keep,
        "var_retained": length * eff_keep * (1.0 - eff_keep),
        "mean_removed": length * (1.0 - eff_keep),
        "var_removed": length * eff_keep * (1.0 - eff_keep),
        "mean_added": length * (1.0 - eff_keep),
        "var_added": length * eff_keep * (1.0 - eff_keep),
        "retention_fraction": eff_keep,
        "added_scenario_distribution": scenario_dist,
        "query_scenario_distribution": {1: 1.0},
    }
