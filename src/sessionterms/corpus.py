"""Session data model and ingestion.

Supports TREC Session Track style XML, 4-column qrels, a document-text
sidecar directory and a versioned canonical JSON interchange format.
Sessions, impressions, results and clicks are frozen dataclasses.
`Corpus` is a plain dataclass with no memo: `doc_terms` normalizes a
document on every call, and `sources.SourceIndex` keeps each bag for
an analysis.

`RelevanceJudgments` indexes its judgments by topic at construction
(each topic's grades and relevant count), so its `grades` must not
change after that; build a new object for other judgments.
"""

from __future__ import annotations

import json
import math
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from itertools import chain
from json.decoder import scanstring
from operator import attrgetter

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


class RelevanceJudgments:
    """Graded judgments keyed by (topic_id, docid); unjudged pairs grade 0.

    Each topic's judged grades, sorted descending, and its relevant
    count (grade > 0) are indexed at construction, so `grades` must not
    change after that.
    """

    def __init__(self, grades=None):
        self.grades = dict(grades or {})
        pools = {}
        for (topic_id, _), grade in self.grades.items():
            pools.setdefault(topic_id, []).append(grade)
        self._pools = {t: sorted(pool, reverse=True) for t, pool in pools.items()}
        self._relevant_counts = {t: sum(1 for g in pool if g > 0) for t, pool in pools.items()}

    def grade(self, topic_id, docid):
        return self.grades.get((topic_id, docid), 0)

    def topic_pool(self, topic_id):
        """All judged grades for a topic, sorted descending."""
        return list(self._pools.get(topic_id, ()))

    def topic_relevant_count(self, topic_id):
        return self._relevant_counts.get(topic_id, 0)

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

    def doc_terms(self, docid) -> TermBag | None:
        """Normalized term bag of a sidecar document, or None if absent."""
        if not self.docstore or docid not in self.docstore:
            return None
        return normalize(strip_html(self.docstore[docid]), self.config)

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
                    for name, value in (("start_time", click.start_time),
                                        ("end_time", click.end_time)):
                        if not math.isfinite(value):
                            raise IngestError(
                                f"session {session.id!r} position {imp.position}: "
                                f"click {name} {value!r} is not a finite number"
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


def _query_element_text(query):
    """The text of a query element: its nested <query>'s, or its own."""
    nested = query.find("query")
    return (nested if nested is not None else query).text or ""


def _query_text(interaction):
    query = interaction.find("currentquery")
    if query is None:
        query = interaction.find("query")
    return None if query is None else _query_element_text(query)


def _number(convert, value, session_id, attribute):
    """`convert(value)`, or an IngestError naming the session and the
    attribute; a float must be finite."""
    try:
        number = convert(value)
    except ValueError:
        raise IngestError(
            f"session {session_id!r}: {attribute} {value!r} is not "
            + ("an integer" if convert is int else "a number")
        ) from None
    if convert is float and not math.isfinite(number):
        raise IngestError(
            f"session {session_id!r}: {attribute} {value!r} is not a finite number")
    return number


def _field(elem, name, default=None):
    """The `name` attribute of `elem`, else the text of its `name` child
    (empty when the child has none), else `default`."""
    value = elem.get(name)
    return _text(elem, name, default) if value is None else value


def _parse_result(result, session_id, config):
    rank = _field(result, "rank")
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
        rank=_number(int, rank, session_id, "result rank"),
        url=_text(result, "url"),
        docid=docid,
        title=title,
        snippet=snippet,
        terms=normalize(title + " " + snippet, config),
    )


def _parse_click(click, order, session_id):
    start = _field(click, "starttime", "0")
    end = _field(click, "endtime", start)
    rank = _field(click, "rank")
    if rank is None:
        raise IngestError(f"session {session_id!r}: click missing rank")
    num = click.get("num")
    return ClickEvent(
        rank=_number(int, rank, session_id, "click rank"),
        order=_number(int, num, session_id, "click num") if num is not None else order,
        start_time=_number(float, start, session_id, "click starttime"),
        end_time=_number(float, end, session_id, "click endtime"),
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

        def add_impression(raw_query, results=(), clicks=()):
            impressions.append(Impression(
                position=len(impressions) + 1,
                raw_query=raw_query,
                query_terms=normalize(raw_query, config),
                results=tuple(results),
                clicks=tuple(clicks),
            ))

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
            add_impression(raw_query, results, clicks)
        # A trailing bare <currentquery> outside any interaction is the
        # test query of the session.
        trailing = elem.find("currentquery")
        if trailing is not None:
            add_impression(_query_element_text(trailing))
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
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
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


def read_text(path) -> str:
    """The text of a UTF-8 input file, line ends read as `\\n`;
    IngestError naming the file when it is not UTF-8."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path} is not UTF-8 text: {exc}") from None


def _is_file(entry) -> bool:
    """`entry.is_file()`, False where it cannot tell, as `os.path.isfile`
    gives for a path it cannot `stat`."""
    try:
        return entry.is_file()
    except OSError:
        return False


def _read_bytes(path) -> bytes:
    """A file's bytes, read through `os.read`: no Python file object per
    file."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def attach_documents(corpus: Corpus, directory) -> Corpus:
    """Load raw document texts named by docid from a sidecar directory.

    Unreadable files are skipped with a warning recorded on the returned
    corpus provenance. Whether an impression's clicked documents all
    have text is not stored: `sources.SourceIndex` derives it from the
    docstore.

    The directory is scanned once; `DirEntry.is_file` follows symlinks
    as `os.path.isfile` does, without a `stat` per regular file. Each
    file is read as bytes and decoded once, and its line ends are
    translated as a text-mode read would: `\\r\\n` and a lone `\\r`
    become `\\n`.
    """
    with os.scandir(directory) as entries:
        files = sorted((entry.name, entry.path) for entry in entries if _is_file(entry))
    docstore = {}
    warnings = []
    for name, path in files:
        try:
            text = _read_bytes(path).decode("utf-8", errors="replace")
        except OSError as exc:
            warnings.append(f"unreadable document {name}: {exc}")
            continue
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        docstore[name] = text
    provenance = corpus.provenance
    if warnings:
        provenance = provenance + " | " + "; ".join(warnings)
    return replace(corpus, docstore=docstore, provenance=provenance)


def unique_name(name, index, taken):
    """`name`, prefixed with `index:` as often as it takes not to be in
    `taken`."""
    while name in taken:
        name = f"{index}:{name}"
    return name


def merge(corpora) -> Corpus:
    """Concatenate corpora sharing a normalization config; IngestError
    when two configs differ. A lone corpus is returned unchanged; a
    merged one is named after its parts, their provenances joined with
    `+`.

    A colliding session id is prefixed with its corpus's index
    (`unique_name`).
    """
    corpora = list(corpora)
    if not corpora:
        raise IngestError("cannot merge zero corpora")
    if len(corpora) == 1:
        return corpora[0]
    config = corpora[0].config
    for corpus in corpora[1:]:
        if corpus.config != config:
            raise IngestError(
                f"cannot merge corpora with different normalization configs: "
                f"{corpora[0].provenance!r} and {corpus.provenance!r}"
            )
    sessions = []
    seen = set()
    docstore = {}
    grades = {}
    any_docs = False
    any_qrels = False
    for i, corpus in enumerate(corpora):
        for session in corpus.sessions:
            if session.id in seen:
                session = replace(session, id=unique_name(session.id, i, seen))
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
        provenance="+".join(c.provenance for c in corpora),
    ).validate()


def normalization_settings(config: NormalizationConfig) -> dict:
    """The normalization config as stored in canonical JSON."""
    return {
        "stoplist": sorted(config.stoplist),
        "stemming_enabled": config.stemming_enabled,
        "keep_numeric_tokens": config.keep_numeric_tokens,
    }


# A count above 2**53 has no exact float, and far larger ones overflow
# the float sums of lengths and scores.
_MAX_COUNT = 2 ** 53


def _check_counts(bags):
    """TypeError unless every canonical JSON bag is an object whose
    counts are integers, not booleans, from 1 to 2**53. One pass of C
    calls over all the corpus's counts: loading makes one bag per query
    and per snippet."""
    if bags and set(map(type, bags)) != {dict}:
        raise TypeError("term bags must be JSON objects of term counts")
    values = list(chain.from_iterable(map(dict.values, bags)))
    if values and (set(map(type, values)) != {int}
                   or min(values) < 1 or max(values) > _MAX_COUNT):
        raise TypeError("term counts must be integers from 1 to 2**53")


def _types(objects, *names) -> set:
    """The types of the `names` attributes of `objects`, one C pass per
    name."""
    return set().union(*(map(type, map(attrgetter(name), objects)) for name in names))


def _check_scalars(sessions, provenance, grades):
    """TypeError unless positions, ranks and click orders are integers
    (not booleans), click times integers or floats, ids, docids (also
    the judged (topic, docid) keys of `grades`), raw queries, result
    texts and the provenance strings, and session topic ids strings or
    null. Each check is a pass of C calls, as in `_check_counts`."""
    impressions = list(chain.from_iterable(map(attrgetter("impressions"), sessions)))
    results = list(chain.from_iterable(map(attrgetter("results"), impressions)))
    clicks = list(chain.from_iterable(map(attrgetter("clicks"), impressions)))
    if not (_types(impressions, "position") | _types(results, "rank")
            | _types(clicks, "rank", "order")) <= {int}:
        raise TypeError("positions, ranks and click orders must be integers")
    if not _types(clicks, "start_time", "end_time") <= {int, float}:
        raise TypeError("click times must be numbers")
    if not (_types(sessions, "id") | _types(impressions, "raw_query")
            | _types(results, "url", "docid", "title", "snippet")
            | set(map(type, chain.from_iterable(grades))) | {type(provenance)}) <= {str}:
        raise TypeError("ids, docids, raw queries, result texts and the provenance must be "
                        "strings")
    if not _types(sessions, "topic_id") <= {str, type(None)}:
        raise TypeError("topic ids must be strings or null")


# One encoder for every value written: `json.dumps` with these options
# builds a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _dumps(value) -> bytes:
    return _ENCODER.encode(value).encode("utf-8")


def _session_to_json(s: Session) -> dict:
    return {
        "id": s.id,
        "topic_id": s.topic_id,
        "impressions": [
            {
                "position": imp.position,
                "raw_query": imp.raw_query,
                "query_terms": imp.query_terms.counts,
                "results": [
                    {
                        "rank": r.rank,
                        "url": r.url,
                        "docid": r.docid,
                        "title": r.title,
                        "snippet": r.snippet,
                        "terms": r.terms.counts,
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


def _delimited(opening: bytes, items, closing: bytes):
    """A JSON array or object: `opening`, the encoded items separated by
    commas, `closing`."""
    yield opening
    separator = b""
    for item in items:
        yield separator + item
        separator = b","
    yield closing


def canonical_json_chunks(corpus: Corpus):
    """The canonical JSON of a corpus in UTF-8 chunks: one per docstore
    entry and per session, and the other top-level members between them,
    all in sorted key order. Joined, the chunks are `json.dumps` of the
    whole document with sorted keys, no spaces and no ASCII escaping, so
    a writer needs no whole-corpus string."""
    docstore = corpus.docstore
    yield b'{"docstore":'
    if docstore is None:
        yield b"null"
    else:
        yield from _delimited(
            b"{", (_dumps(d) + b":" + _dumps(docstore[d]) for d in sorted(docstore)), b"}")
    # The members whose keys sort between "docstore" and "sessions".
    middle = {
        "normalization": normalization_settings(corpus.config),
        "provenance": corpus.provenance,
        "qrels": (
            sorted([t, d, g] for (t, d), g in corpus.qrels.grades.items())
            if corpus.qrels is not None
            else None
        ),
        "schema": CANONICAL_SCHEMA_VERSION,
    }
    yield b"," + _dumps(middle)[1:-1] + b',"sessions":'
    yield from _delimited(b"[", map(_dumps, map(_session_to_json, corpus.sessions)), b"]")
    yield b"}"


def to_canonical_json(corpus: Corpus) -> bytes:
    """Serialize a corpus to the versioned canonical JSON format: the
    join of `canonical_json_chunks`."""
    return b"".join(canonical_json_chunks(corpus))


# The decoder of every canonical JSON value, and the whitespace JSON
# allows between tokens (`json.decoder.WHITESPACE`).
_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")


def from_canonical_json(data: bytes) -> Corpus:
    """The corpus of a canonical JSON document; IngestError when it
    cannot be decoded, has another schema version, misses a key or holds
    a value of the wrong type.

    The bytes are decoded to text once, in the encoding `json.loads`
    detects (UTF-8 with or without a BOM, UTF-16, UTF-32), and released.
    The top-level object is then read member by member, and each session
    is built as soon as its JSON is decoded, so the load holds the text,
    the corpus and one session's JSON at a time. The errors keep the
    precedence of a whole-document `json.loads`: a text it rejects gives
    its message; then a top level that is not an object; then the
    schema; then missing keys and wrong types, in the order
    `_corpus_from_doc` checks them.
    """
    try:
        text = data.decode(json.detect_encoding(data), "surrogatepass")
        del data  # freed when the caller passed its only reference, as `_load_corpus` does
        doc = _document(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise IngestError(f"cannot decode canonical JSON: {exc}") from exc
    del text
    if not isinstance(doc, dict):
        raise IngestError(f"canonical JSON must hold an object, not {type(doc).__name__}")
    version = doc.get("schema")
    if version != CANONICAL_SCHEMA_VERSION:
        raise IngestError(
            f"unsupported canonical schema version {version!r} "
            f"(expected {CANONICAL_SCHEMA_VERSION})"
        )
    try:
        return _corpus_from_doc(doc)
    except KeyError as exc:
        raise IngestError(f"canonical JSON: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise IngestError(f"canonical JSON: value of the wrong type: {exc}") from None


class _Reader:
    """A JSON text read token by token from `pos`, which always stands
    past any whitespace. A syntax error raises a JSONDecodeError."""

    def __init__(self, text):
        self.text = text
        self.pos = _SPACE.match(text).end()

    def skip(self, char) -> bool:
        """Whether the next token is `char`; if so, read past it."""
        if not self.text.startswith(char, self.pos):
            return False
        self.pos = _SPACE.match(self.text, self.pos + 1).end()
        return True

    def expect(self, char):
        if not self.skip(char):
            raise json.JSONDecodeError(f"Expecting {char!r}", self.text, self.pos)

    def value(self):
        """The JSON value at `pos`, decoded whole."""
        value, end = _DECODER.raw_decode(self.text, self.pos)
        self.pos = _SPACE.match(self.text, end).end()
        return value

    def key(self) -> str:
        """An object member's key and its colon."""
        if not self.text.startswith('"', self.pos):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                       self.text, self.pos)
        key, end = scanstring(self.text, self.pos + 1)
        self.pos = _SPACE.match(self.text, end).end()
        self.expect(":")
        return key

    def items(self, close):
        """Once per element of the array or object just opened, up to
        `close`: the caller reads the element before the next step."""
        if self.skip(close):
            return
        while True:
            yield
            if self.skip(close):
                return
            self.expect(",")


def _document(text):
    """`json.loads` of the text, except that the `sessions` member of a
    top-level object holds what `_sessions` builds from it."""
    reader = _Reader(text)
    try:
        if not reader.skip("{"):
            return _DECODER.decode(text)
        doc = {}
        for _ in reader.items("}"):
            key = reader.key()
            # A repeated key keeps its last value, as in `json.loads`.
            doc[key] = _sessions(reader) if key == "sessions" else reader.value()
        if reader.pos != len(text):
            raise json.JSONDecodeError("Extra data", text, reader.pos)
        return doc
    except json.JSONDecodeError:
        _DECODER.decode(text)  # raises the error as `json.loads` words it
        raise


def _sessions(reader):
    """(sessions, the counts of every term bag) of the `sessions` member
    at the reader, each session built before the next is decoded; or
    the error of the first one that is not a session, raised by
    `_corpus_from_doc` after its earlier checks. The sessions after a
    bad one are still decoded: a syntax error anywhere wins."""
    if not reader.skip("["):
        return _built(reader.value())
    values = (reader.value() for _ in reader.items("]"))
    built = _built(values)
    for _ in values:  # the sessions after a bad one
        pass
    return built


def _built(values):
    """(sessions, bags) of decoded sessions, or the error of the first
    one that is not a session."""
    bags = []
    try:
        return tuple(_session_from_json(s, bags) for s in values), bags
    except (KeyError, AttributeError, TypeError) as exc:
        return exc


def _session_from_json(s, bags) -> Session:
    """The Session of one decoded canonical JSON session; each term
    bag's counts are appended to `bags`, for `_check_counts`."""

    def bag(counts) -> TermBag:
        bags.append(counts)
        terms = TermBag()
        terms.counts = counts
        return terms

    return Session(
        s["id"],
        s.get("topic_id"),
        tuple(
            Impression(
                imp["position"],
                imp["raw_query"],
                bag(imp["query_terms"]),
                tuple(
                    SnippetEntry(r["rank"], r["url"], r["docid"], r["title"], r["snippet"],
                                 bag(r["terms"]))
                    for r in imp["results"]
                ),
                tuple(
                    ClickEvent(c["rank"], c["order"], c["start_time"], c["end_time"])
                    for c in imp["clicks"]
                ),
            )
            for imp in s["impressions"]
        ),
    )


def _corpus_from_doc(doc) -> Corpus:
    norm = doc["normalization"]
    stoplist = norm["stoplist"]
    flags = norm["stemming_enabled"], norm["keep_numeric_tokens"]
    if not (type(stoplist) is list and set(map(type, stoplist)) <= {str}
            and set(map(type, flags)) == {bool}):
        raise TypeError("the normalization must hold a stoplist of strings and two booleans")
    config = NormalizationConfig(frozenset(stoplist), *flags)
    built = doc["sessions"]
    if isinstance(built, Exception):
        raise built
    sessions, bags = built
    _check_counts(bags)
    qrels = doc.get("qrels")
    if qrels is not None:
        qrels = RelevanceJudgments({(t, d): g for t, d, g in qrels})
        if not {(type(g), g) for g in qrels.grades.values()} <= {(int, g) for g in range(5)}:
            raise TypeError("qrels grades must be integers from 0 to 4")
    provenance = doc.get("provenance", "")
    _check_scalars(sessions, provenance, qrels.grades if qrels is not None else {})
    docstore = doc.get("docstore")
    if docstore is not None and not (type(docstore) is dict
                                     and set(map(type, docstore.values())) <= {str}):
        raise TypeError("docstore must be null or an object of document texts")
    return Corpus(
        sessions=sessions,
        config=config,
        qrels=qrels,
        docstore=docstore,
        provenance=provenance,
    ).validate()
