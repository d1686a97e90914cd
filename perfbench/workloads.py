"""Seeded benchmark inputs: TREC-style session XML, a qrels file and a
docid-named document directory, written for `sessionterms ingest`.

`broad` and `long` render a `synthgen.generate` corpus, so the planted
statistics of `expected_statistics` hold for the ingested corpus too.
`trec` is English-like text built here: stopwords, inflected pseudo-words
that Porter stemming folds back onto their base, HTML documents shared
by the sessions of a topic, and dense judgment pools. Its generator
records the counts the analyses must report for it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace
from xml.sax.saxutils import escape, quoteattr

from sessionterms.synthgen import GeneratorSpec, generate


@dataclass(frozen=True)
class Workload:
    sessions: int
    kind: str  # "synthetic" or "trec"
    session_length: int = 6
    topics: int = 20
    max_length: int = 10  # trec: non-test queries per session, 2..max
    docs_per_topic: int = 80  # trec
    judged_per_topic: int = 400  # trec

    def spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(
            seed=seed, sessions=self.sessions, session_length=self.session_length,
            p_keep=0.6, p_ncs=0.3, p_cs=0.4, p_cd=0.8, force_click=True,
        )

    def scaled(self, factor: float) -> "Workload":
        """The same workload with `factor` times the sessions and topics,
        so sessions per topic, and with them docs and qrels per session,
        stay the same."""
        return replace(self, sessions=max(2, round(self.sessions * factor)),
                       topics=max(1, round(self.topics * factor)))


# Sized so that one ingest + five analyze pipeline takes about 14-17 s on
# a 2-core x86 VM, of which the six commands' interpreter start and
# numpy/scipy import are about 3.5 s; a 36 s run holds two pipelines.
WORKLOADS = {
    "broad": Workload(sessions=440, kind="synthetic", session_length=6, topics=60),
    "long": Workload(sessions=80, kind="synthetic", session_length=20, topics=20),
    "trec": Workload(sessions=80, kind="trec", topics=16, judged_per_topic=800),
}

SMOKE = {
    "broad": Workload(sessions=12, kind="synthetic", session_length=6, topics=4),
    "long": Workload(sessions=4, kind="synthetic", session_length=12, topics=2),
    "trec": Workload(sessions=8, kind="trec", topics=3, max_length=5,
                     docs_per_topic=15, judged_per_topic=40),
}


JUDGED_FRAC = 0.05  # synthetic workloads: share of retrieved docs judged


@dataclass
class Inputs:
    xml: str
    qrels: str
    docs: str
    # What the generator knows independently of the program under test.
    pairs: int = 0  # non-test adjacent query pairs
    query_records: int = 0  # scenario records of query terms
    added_records: int = 0  # scenario records of added terms
    spec: GeneratorSpec | None = None


def _write_qrels(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for topic, docid, grade in rows:
            f.write(f"{topic} 0 {docid} {grade}\n")


def _write_docs(directory, docs):
    os.makedirs(directory, exist_ok=True)
    for docid, text in docs.items():
        with open(os.path.join(directory, docid), "w", encoding="utf-8") as f:
            f.write(text)


def _grade(rng):
    x = rng.random()
    return 0 if x < 0.5 else 1 if x < 0.75 else 2 if x < 0.9 else 3 if x < 0.97 else 4


def render_synthetic(corpus, topics, judged_frac, seed, out_dir) -> tuple:
    """Write a generated corpus as XML, qrels and docs; topics are
    assigned round-robin and `judged_frac` of retrieved docs judged."""
    rng = random.Random(seed * 7919 + 1)
    retrieved = [(f"t{index % topics}", r.docid)
                 for index, session in enumerate(corpus.sessions)
                 for imp in session.impressions for r in imp.results]
    judged = rng.sample(retrieved, round(judged_frac * len(retrieved)))
    qrels = [(topic, docid, _grade(rng)) for topic, docid in sorted(judged)]
    xml_path = os.path.join(out_dir, "sessions.xml")
    with open(xml_path, "w", encoding="utf-8") as f:
        f.write("<sessiontrack>\n")
        for index, session in enumerate(corpus.sessions):
            topic = f"t{index % topics}"
            f.write(f'<session num={quoteattr(session.id)}>\n<topic num="{topic}"/>\n')
            for imp in session.impressions:
                f.write(f"<interaction num=\"{imp.position}\">\n"
                        f"<query>{escape(imp.raw_query)}</query>\n<results>\n")
                for r in imp.results:
                    f.write(f'<result rank="{r.rank}"><url>{escape(r.url)}</url>'
                            f"<docid>{escape(r.docid)}</docid><title>{escape(r.title)}</title>"
                            f"<snippet>{escape(r.snippet)}</snippet></result>\n")
                f.write("</results>\n")
                if imp.clicks:
                    f.write("<clicked>")
                    for c in imp.clicks:
                        f.write(f'<click num="{c.order}" starttime="{c.start_time!r}" '
                                f'endtime="{c.end_time!r}"><rank>{c.rank}</rank></click>')
                    f.write("</clicked>\n")
                f.write("</interaction>\n")
            f.write("</session>\n")
        f.write("</sessiontrack>\n")
    qrels_path = os.path.join(out_dir, "qrels.txt")
    _write_qrels(qrels_path, qrels)
    docs_path = os.path.join(out_dir, "docs")
    _write_docs(docs_path, corpus.docstore)
    return xml_path, qrels_path, docs_path


# --- English-like text for the trec workload -------------------------------

# All of these are in the default stoplist, so ingest removes them.
STOPWORDS = (
    "the of and a to in for is on with how what which about from by at an "
    "are this that be or as it can do not".split()
)
_ONSETS = "b c d f g h j k l m n p r s t v z br cl dr fl gr pl st tr".split()
_VOWELS = "a e i o u".split()
# A base ends in a vowel from a/o/u and a final k, p or b and has two or
# more vowel-consonant runs; no Porter suffix rule matches such an ending,
# so base, base+s, base+ing and base+ed all stem to the base and distinct
# bases stay distinct.
_FINAL_VOWELS = "a o u".split()
_FINALS = "k p b".split()
SUFFIXES = ("", "s", "ing", "ed")


def _base(rng, syllables):
    parts = [rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables - 1)]
    return "".join(parts) + rng.choice(_ONSETS) + rng.choice(_FINAL_VOWELS) + rng.choice(_FINALS)


def _vocabulary(rng, size):
    words = set()
    while len(words) < size:
        words.add(_base(rng, rng.randint(2, 3)))
    return sorted(words)


def _inflect(rng, base):
    word = base + rng.choice(SUFFIXES)
    return word.capitalize() if rng.random() < 0.1 else word


def _text(rng, content, n_words, stop_frac=0.35):
    words = []
    for _ in range(n_words):
        if rng.random() < stop_frac:
            words.append(rng.choice(STOPWORDS))
        else:
            words.append(_inflect(rng, rng.choice(content)))
    if rng.random() < 0.3:
        words.insert(rng.randint(0, len(words)), "&")
    return " ".join(words)


def _html(rng, title, body_words, content):
    paragraphs = []
    for _ in range(rng.randint(3, 6)):
        para = _text(rng, content, body_words // 4)
        para = para.replace("&", "&amp;")
        if rng.random() < 0.5:
            para += " &#233;t&eacute; &nbsp;"
        paragraphs.append(f"<p class=\"c{rng.randint(0, 9)}\">{para}</p>")
    return (
        "<!DOCTYPE html>\n<html><head><title>" + escape(title) + "</title>\n"
        "<style>p { margin: 0 } .c1 { color: red }</style>\n"
        "<script type=\"text/javascript\">var track = {id: " + str(rng.randint(1, 10**6))
        + ", tags: ['a', 'b']}; if (track.id < 3) { track.id = 3; }</script>\n"
        "</head><body><!-- navigation --><div id=\"nav\"><a href=\"/\">home</a></div>\n"
        "<h1>" + escape(title) + "</h1>\n" + "\n".join(paragraphs)
        + "\n<ul><li>" + escape(_text(rng, content, 5)) + "</li></ul></body></html>\n"
    )


def render_trec(w: Workload, seed, out_dir) -> Inputs:
    """English-like TREC session log; each session ends with a test query."""
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 4000)
    background = vocab[:1000]
    topic_words = [vocab[1000 + 60 * t: 1000 + 60 * (t + 1)] for t in range(w.topics)]
    docs, qrels = {}, []
    doc_ids = []
    for t in range(w.topics):
        content = topic_words[t] + background[:200]
        ids = [f"clueweb12-{t:04d}wb-{i:02d}-{rng.randint(0, 99999):05d}"
               for i in range(w.docs_per_topic)]
        doc_ids.append(ids)
        for docid in ids:
            title = _text(rng, content, rng.randint(3, 7))
            docs[docid] = _html(rng, title, rng.randint(120, 240), content)
        judged = ids + [f"clueweb12-{t:04d}wj-{i:05d}"
                        for i in range(w.judged_per_topic - len(ids))]
        qrels.extend((f"{t + 1}", docid, _grade(rng)) for docid in judged)

    # Session lengths cycle through 2..max_length, so the amount of work
    # does not depend on the seed; the seed only decides their order.
    lengths = [2 + s % (w.max_length - 1) for s in range(w.sessions)]
    rng.shuffle(lengths)
    pairs = query_records = added_records = 0
    xml_path = os.path.join(out_dir, "sessions.xml")
    with open(xml_path, "w", encoding="utf-8") as f:
        f.write("<sessiontrack2014>\n")
        for s in range(w.sessions):
            t = s % w.topics
            pool = topic_words[t]
            content = pool + background[:200]
            f.write(f'<session num="{s + 1}" userid="u{rng.randint(1, 99)}">\n'
                    f'<topic num="{t + 1}"><desc>{escape(_text(rng, pool, 8))}</desc></topic>\n')
            length = lengths[s]
            query = set(rng.sample(pool, rng.randint(2, 4)))
            clock = 0.0
            for n in range(1, length + 2):
                if n > 1:
                    kept = {b for b in sorted(query) if rng.random() < 0.6}
                    fresh = set(rng.sample([b for b in pool if b not in query],
                                           rng.randint(1, 3)))
                    if n <= length:  # the pair's later query is not the test query
                        pairs += 1
                        query_records += len(query)
                        added_records += len(fresh)
                    query = kept | fresh
                words = sorted(query)
                rng.shuffle(words)
                words = [_inflect(rng, b) for b in words]
                for _ in range(rng.randint(0, 2)):
                    words.insert(rng.randint(0, len(words)), rng.choice(STOPWORDS))
                qtext = escape(" ".join(words))
                if n == length + 1:
                    f.write(f'<currentquery starttime="{clock:.3f}"><query>{qtext}</query>'
                            "</currentquery>\n")
                    break
                f.write(f'<interaction num="{n}" starttime="{clock:.3f}" type="page">\n'
                        f"<query>{qtext}</query>\n<results>\n")
                ranked = rng.sample(doc_ids[t], 10)
                for rank, docid in enumerate(ranked, start=1):
                    title = _text(rng, content, rng.randint(3, 7))
                    snippet_words = sorted(query) + rng.sample(content, 6)
                    snippet = _text(rng, snippet_words, rng.randint(18, 30))
                    f.write(f'<result rank="{rank}"><url>http://www.example.org/{docid}'
                            f"</url><clueweb12id>{docid}</clueweb12id>"
                            f"<title>{escape(title)}</title>"
                            f"<snippet>{escape(snippet)}</snippet></result>\n")
                f.write("</results>\n")
                clicked = [r for r in range(1, 11) if rng.random() < 0.45 * 0.75 ** (r - 1)]
                if clicked:
                    f.write("<clicked>")
                    for order, rank in enumerate(clicked, start=1):
                        start = clock + 5.0 * order
                        end = start + rng.uniform(1.0, 90.0)
                        f.write(f'<click num="{order}" starttime="{start:.3f}" '
                                f'endtime="{end:.3f}"><rank>{rank}</rank></click>')
                    f.write("</clicked>\n")
                f.write("</interaction>\n")
                clock += 120.0
            f.write("</session>\n")
        f.write("</sessiontrack2014>\n")
    qrels_path = os.path.join(out_dir, "qrels.txt")
    _write_qrels(qrels_path, qrels)
    docs_path = os.path.join(out_dir, "docs")
    _write_docs(docs_path, docs)
    return Inputs(xml_path, qrels_path, docs_path, pairs=pairs,
                  query_records=query_records, added_records=added_records)


def make_inputs(w: Workload, seed: int, out_dir) -> Inputs:
    """Write the inputs of one workload and seed into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    if w.kind == "trec":
        return render_trec(w, seed, out_dir)
    spec = w.spec(seed)
    corpus = generate(spec)
    xml, qrels, docs = render_synthetic(corpus, w.topics, JUDGED_FRAC, seed, out_dir)
    inputs = Inputs(xml, qrels, docs, spec=spec)
    for session in corpus.sessions:
        queries = [set(imp.raw_query.split()) for imp in session.impressions]
        for qn, qn1 in zip(queries, queries[1:]):
            inputs.pairs += 1
            inputs.query_records += len(qn)
            inputs.added_records += len(qn1 - qn)
    return inputs
