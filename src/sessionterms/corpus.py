"""Session data model and ingestion.

Supports TREC Session Track style XML, 4-column qrels, a document-text
sidecar directory and a versioned canonical JSON interchange format.
Sessions, impressions, results and clicks are frozen dataclasses.
`Corpus` is not: it is a plain mutable dataclass whose `doc_terms`
fills a per-instance memo of normalized documents on first use, and a
copy made with `dataclasses.replace` starts with an empty memo.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace

from .textnorm import NormalizationConfig, TermBag, normalize, strip_html

CANONICAL_SCHEMA_VERSION = 1


class IngestError(Exception):
    """Raised on malformed or inconsistent input data."""


@dataclass(frozen=True)
class ClickEvent:
    rank: int
    order: int
    start_time: float
    end_time: float

    @property
    def dwell(self):
        return self.end_time - self.start_time


@dataclass(frozen=True)
class SnippetEntry:
    rank: int
    url: str
    docid: str
    title: str
    snippet: str
    terms: TermBag


@dataclass(frozen=True)
class Impression:
    position: int
    raw_query: str
    query_terms: TermBag
    results: tuple
    clicks: tuple

    @property
    def is_test_query(self):
        return not self.results

    @property
    def clicked_ranks(self):
        return {c.rank for c in self.clicks}

    def result_at(self, rank):
        return self.results[rank - 1]


@dataclass(frozen=True)
class Session:
    id: str
    topic_id: str | None
    impressions: tuple

    @property
    def has_test_query(self):
        return bool(self.impressions) and self.impressions[-1].is_test_query


class RelevanceJudgments:
    """Graded judgments keyed by (topic_id, docid); unjudged pairs grade 0."""

    def __init__(self, grades=None):
        self.grades = dict(grades or {})

    def grade(self, topic_id, docid):
        return self.grades.get((topic_id, docid), 0)

    def topic_pool(self, topic_id):
        """All judged grades for a topic."""
        return [g for (t, _), g in self.grades.items() if t == topic_id]

    def topic_relevant_count(self, topic_id):
        return sum(1 for (t, _), g in self.grades.items() if t == topic_id and g > 0)

    def __len__(self):
        return len(self.grades)

    def __eq__(self, other):
        return isinstance(other, RelevanceJudgments) and self.grades == other.grades


@dataclass
class Corpus:
    sessions: tuple
    config: NormalizationConfig
    qrels: RelevanceJudgments | None = None
    docstore: dict = None
    provenance: str = ""
    incomplete_impressions: frozenset = frozenset()

    def session_by_id(self, session_id):
        for s in self.sessions:
            if s.id == session_id:
                return s
        raise KeyError(session_id)

    def doc_terms(self, docid) -> TermBag | None:
        """Normalized term bag of a sidecar document, or None if absent.

        Normalization is memoized; the docstore is immutable after
        ingestion so the cache never goes stale.
        """
        if not self.docstore or docid not in self.docstore:
            return None
        cache = self.__dict__.setdefault("_doc_bag_cache", {})
        if docid not in cache:
            cache[docid] = normalize(strip_html(self.docstore[docid]), self.config)
        return cache[docid]

    def validate(self):
        seen = set()
        for session in self.sessions:
            if session.id in seen:
                raise IngestError(f"duplicate session id {session.id!r}")
            seen.add(session.id)
            for i, imp in enumerate(session.impressions):
                if imp.position != i + 1:
                    raise IngestError(
                        f"session {session.id!r}: impression positions must be 1..N"
                    )
                ranks = [r.rank for r in imp.results]
                if ranks != list(range(1, len(ranks) + 1)):
                    raise IngestError(
                        f"session {session.id!r} position {imp.position}: "
                        "result ranks must be 1..M with no gaps"
                    )
                for click in imp.clicks:
                    if not 1 <= click.rank <= len(imp.results):
                        raise IngestError(
                            f"session {session.id!r} position {imp.position}: "
                            f"click rank {click.rank} outside ranking"
                        )
                    if click.dwell < 0:
                        raise IngestError(
                            f"session {session.id!r} position {imp.position}: "
                            "click end time before start time"
                        )
        return self


def _text(elem, tag, default=""):
    child = elem.find(tag)
    return (child.text or "") if child is not None else default


def _query_text(interaction):
    query = interaction.find("currentquery")
    if query is None:
        query = interaction.find("query")
    if query is None:
        return None
    nested = query.find("query")
    if nested is not None:
        return nested.text or ""
    return query.text or ""


def _parse_result(result, session_id, config):
    rank = result.get("rank")
    if rank is None:
        rank = _text(result, "rank", None)
    if rank is None:
        raise IngestError(f"session {session_id!r}: result missing rank")
    title = _text(result, "title")
    snippet = _text(result, "snippet")
    docid = _text(result, "docid")
    if not docid:
        for tag in ("clueweb12id", "clueweb09id", "clueweb12-id", "clueweb09-id"):
            docid = _text(result, tag)
            if docid:
                break
    return SnippetEntry(
        rank=int(rank),
        url=_text(result, "url"),
        docid=docid,
        title=title,
        snippet=snippet,
        terms=normalize(title + " " + snippet, config),
    )


def _parse_click(click, order, session_id):
    start = click.get("starttime")
    end = click.get("endtime")
    if start is None:
        start = _text(click, "starttime", "0")
    if end is None:
        end = _text(click, "endtime", start)
    rank = click.get("rank")
    if rank is None:
        rank = _text(click, "rank", None)
    if rank is None:
        raise IngestError(f"session {session_id!r}: click missing rank")
    num = click.get("num")
    return ClickEvent(
        rank=int(rank),
        order=int(num) if num is not None else order,
        start_time=float(start),
        end_time=float(end),
    )


def ingest_trec_xml(path, config: NormalizationConfig) -> Corpus:
    """Parse TREC Session Track XML into a Corpus.

    Layout: sessions/session/interaction with currentquery, results
    (result@rank with url/docid/title/snippet) and clicked
    (click@starttime,endtime with rank). A trailing query without
    results becomes the session's test query.
    """
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise IngestError(f"malformed XML in {path}: {exc}") from exc
    root = tree.getroot()
    session_elems = root.findall(".//session") if root.tag != "session" else [root]
    sessions = []
    for elem in session_elems:
        session_id = elem.get("num") or elem.get("id") or str(len(sessions) + 1)
        topic = elem.find("topic")
        topic_id = None
        if topic is not None:
            topic_id = topic.get("num") or (topic.text or "").strip() or None
        impressions = []
        for interaction in elem.findall("interaction"):
            raw_query = _query_text(interaction)
            if raw_query is None:
                raise IngestError(f"session {session_id!r}: interaction without query")
            results_elem = interaction.find("results")
            results = []
            if results_elem is not None:
                for result in results_elem.findall("result"):
                    results.append(_parse_result(result, session_id, config))
            clicks = []
            clicked = interaction.find("clicked")
            if clicked is not None:
                for order, click in enumerate(clicked.findall("click"), start=1):
                    clicks.append(_parse_click(click, order, session_id))
            impressions.append(
                Impression(
                    position=len(impressions) + 1,
                    raw_query=raw_query,
                    query_terms=normalize(raw_query, config),
                    results=tuple(results),
                    clicks=tuple(clicks),
                )
            )
        # A trailing bare <currentquery> outside any interaction is the
        # test query of the session.
        trailing = elem.find("currentquery")
        if trailing is not None:
            raw_query = (
                (trailing.find("query").text or "")
                if trailing.find("query") is not None
                else (trailing.text or "")
            )
            impressions.append(
                Impression(
                    position=len(impressions) + 1,
                    raw_query=raw_query,
                    query_terms=normalize(raw_query, config),
                    results=(),
                    clicks=(),
                )
            )
        sessions.append(Session(id=session_id, topic_id=topic_id, impressions=tuple(impressions)))
    corpus = Corpus(
        sessions=tuple(sessions),
        config=config,
        provenance=os.path.basename(str(path)),
    )
    return corpus.validate()


def ingest_qrels(path) -> RelevanceJudgments:
    """Parse 4-column qrels (`topic 0 docid grade`).

    Negative grades are clamped to 0; grades above 4 are rejected.
    """
    grades = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise IngestError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            topic, _, docid, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError:
                raise IngestError(
                    f"{path}:{lineno}: non-integer grade {grade_str!r}"
                ) from None
            if grade > 4:
                raise IngestError(f"{path}:{lineno}: grade {grade} above scale maximum 4")
            grades[(topic, docid)] = max(grade, 0)
    return RelevanceJudgments(grades)


def attach_documents(corpus: Corpus, directory) -> Corpus:
    """Load raw document texts named by docid from a sidecar directory.

    Impressions whose clicked docids have no sidecar file are flagged
    document-incomplete; unreadable files are skipped with a warning
    recorded on the returned corpus provenance.
    """
    docstore = {}
    warnings = []
    for name in sorted(os.listdir(directory)):
        full = os.path.join(directory, name)
        if not os.path.isfile(full):
            continue
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                docstore[name] = f.read()
        except OSError as exc:
            warnings.append(f"unreadable document {name}: {exc}")
    incomplete = set()
    for session in corpus.sessions:
        for imp in session.impressions:
            clicked_docids = {
                imp.result_at(c.rank).docid for c in imp.clicks
            }
            if any(d not in docstore for d in clicked_docids):
                incomplete.add((session.id, imp.position))
    provenance = corpus.provenance
    if warnings:
        provenance = provenance + " | " + "; ".join(warnings)
    return replace(
        corpus,
        docstore=docstore,
        provenance=provenance,
        incomplete_impressions=frozenset(incomplete),
    )


def merge(corpora, provenance="combined") -> Corpus:
    """Concatenate corpora sharing a normalization config.

    Session ids are prefixed with the corpus index when they collide.
    """
    corpora = list(corpora)
    if not corpora:
        raise IngestError("cannot merge zero corpora")
    config = corpora[0].config
    sessions = []
    seen = set()
    docstore = {}
    grades = {}
    any_docs = False
    any_qrels = False
    for i, corpus in enumerate(corpora):
        for session in corpus.sessions:
            if session.id in seen:
                session = replace(session, id=f"{i}:{session.id}")
            seen.add(session.id)
            sessions.append(session)
        if corpus.docstore:
            any_docs = True
            docstore.update(corpus.docstore)
        if corpus.qrels:
            any_qrels = True
            grades.update(corpus.qrels.grades)
    return Corpus(
        sessions=tuple(sessions),
        config=config,
        qrels=RelevanceJudgments(grades) if any_qrels else None,
        docstore=docstore if any_docs else None,
        provenance=provenance,
        incomplete_impressions=frozenset(
            pair for c in corpora for pair in c.incomplete_impressions
        ),
    ).validate()


def normalization_settings(config: NormalizationConfig) -> dict:
    """The normalization config as stored in canonical JSON."""
    return {
        "stoplist": sorted(config.stoplist),
        "stemming_enabled": config.stemming_enabled,
        "keep_numeric_tokens": config.keep_numeric_tokens,
    }


def _bag_to_json(bag: TermBag):
    return {t: bag.counts[t] for t in sorted(bag.counts)}


def to_canonical_json(corpus: Corpus) -> bytes:
    """Serialize a corpus to the versioned canonical JSON format."""
    doc = {
        "schema": CANONICAL_SCHEMA_VERSION,
        "provenance": corpus.provenance,
        "normalization": normalization_settings(corpus.config),
        "sessions": [
            {
                "id": s.id,
                "topic_id": s.topic_id,
                "impressions": [
                    {
                        "position": imp.position,
                        "raw_query": imp.raw_query,
                        "query_terms": _bag_to_json(imp.query_terms),
                        "results": [
                            {
                                "rank": r.rank,
                                "url": r.url,
                                "docid": r.docid,
                                "title": r.title,
                                "snippet": r.snippet,
                                "terms": _bag_to_json(r.terms),
                            }
                            for r in imp.results
                        ],
                        "clicks": [
                            {
                                "rank": c.rank,
                                "order": c.order,
                                "start_time": c.start_time,
                                "end_time": c.end_time,
                            }
                            for c in imp.clicks
                        ],
                    }
                    for imp in s.impressions
                ],
            }
            for s in corpus.sessions
        ],
        "qrels": (
            sorted([t, d, g] for (t, d), g in corpus.qrels.grades.items())
            if corpus.qrels is not None
            else None
        ),
        "docstore": (
            {d: corpus.docstore[d] for d in sorted(corpus.docstore)}
            if corpus.docstore is not None
            else None
        ),
        "incomplete_impressions": sorted(
            [sid, pos] for sid, pos in corpus.incomplete_impressions
        ),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def from_canonical_json(data: bytes) -> Corpus:
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot decode canonical JSON: {exc}") from exc
    version = doc.get("schema")
    if version != CANONICAL_SCHEMA_VERSION:
        raise IngestError(
            f"unsupported canonical schema version {version!r} "
            f"(expected {CANONICAL_SCHEMA_VERSION})"
        )
    norm = doc["normalization"]
    config = NormalizationConfig(
        stoplist=frozenset(norm["stoplist"]),
        stemming_enabled=norm["stemming_enabled"],
        keep_numeric_tokens=norm["keep_numeric_tokens"],
    )
    sessions = tuple(
        Session(
            id=s["id"],
            topic_id=s.get("topic_id"),
            impressions=tuple(
                Impression(
                    position=imp["position"],
                    raw_query=imp["raw_query"],
                    query_terms=TermBag(imp["query_terms"]),
                    results=tuple(
                        SnippetEntry(
                            rank=r["rank"],
                            url=r["url"],
                            docid=r["docid"],
                            title=r["title"],
                            snippet=r["snippet"],
                            terms=TermBag(r["terms"]),
                        )
                        for r in imp["results"]
                    ),
                    clicks=tuple(
                        ClickEvent(
                            rank=c["rank"],
                            order=c["order"],
                            start_time=c["start_time"],
                            end_time=c["end_time"],
                        )
                        for c in imp["clicks"]
                    ),
                )
                for imp in s["impressions"]
            ),
        )
        for s in doc["sessions"]
    )
    qrels = None
    if doc.get("qrels") is not None:
        qrels = RelevanceJudgments({(t, d): g for t, d, g in doc["qrels"]})
    return Corpus(
        sessions=sessions,
        config=config,
        qrels=qrels,
        docstore=doc.get("docstore"),
        provenance=doc.get("provenance", ""),
        incomplete_impressions=frozenset(
            (sid, pos) for sid, pos in doc.get("incomplete_impressions", [])
        ),
    ).validate()
