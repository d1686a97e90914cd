"""Text normalization: HTML stripping, tokenization, stopwords, stemming.

The pipeline is tokenize -> stopword filter -> stem, producing a TermBag
(term frequency counts). All downstream analysis operates on TermBags.
`normalize` filters and stems in one pass over the tokens. Only a token
of letters can be stemmed, so the others (every token with a digit) skip
the Porter memo and `stem`; a word is looked up in the per-process memo
before `stem` runs its regex, and each distinct ASCII word is stemmed
once per process.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from . import porter

_TOKEN_RE = re.compile(r"[0-9a-zÀ-￿]+", re.UNICODE)
_NUMERIC_RE = re.compile(r"^[0-9]+$")
_ASCII_WORD_RE = re.compile(r"^[a-z]+$")

_SCRIPT_STYLE_RE = re.compile(
    r"<(script|style)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_TAG_RE = re.compile(r"<[^>]*>")
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)

_NAMED_ENTITIES = {
    "amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": " ",
}
_ENTITY_RE = re.compile(r"&(#x?[0-9a-fA-F]+|[a-zA-Z]+);")


class TermBag:
    """Multiset of terms with strictly positive counts. Its counts can
    change, so it has no hash."""

    __slots__ = ("counts",)

    def __init__(self, counts=None):
        self.counts = {}
        if counts:
            for term, count in counts.items():
                if count > 0:
                    self.counts[term] = int(count)

    @classmethod
    def from_tokens(cls, tokens):
        counts = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        bag = cls()
        bag.counts = counts
        return bag

    @property
    def terms(self):
        """Set view of the bag."""
        return set(self.counts)

    @property
    def length(self):
        """Total token count."""
        return sum(self.counts.values())

    @staticmethod
    def union(bags):
        """Count-summed union of bags, built in one pass: the first bag's
        terms in its order, then each later bag's new terms in its order.
        Sums of positive counts need no re-validation, so it skips
        `__init__`'s checks."""
        merged = None
        for bag in bags:
            if merged is None:
                merged = dict(bag.counts)
                continue
            for term, count in bag.counts.items():
                merged[term] = merged.get(term, 0) + count
        union = TermBag()
        union.counts = merged or {}
        return union

    def __contains__(self, term):
        return term in self.counts

    def __len__(self):
        return len(self.counts)

    def __eq__(self, other):
        return isinstance(other, TermBag) and self.counts == other.counts

    def __repr__(self):
        return f"TermBag({self.counts!r})"


def default_stoplist():
    """Bundled English stopword list."""
    text = resources.files("sessionterms.data").joinpath("stopwords.txt").read_text()
    return parse_stoplist(text)


def parse_stoplist(text):
    """Parse a stoplist: one word per line, '#' comments allowed."""
    words = set()
    for line in text.splitlines():
        word = line.split("#", 1)[0].strip().lower()
        if word:
            words.add(word)
    return words


@dataclass(frozen=True)
class NormalizationConfig:
    stoplist: frozenset = None
    stemming_enabled: bool = True
    keep_numeric_tokens: bool = True

    def __post_init__(self):
        stoplist = self.stoplist
        if stoplist is None:
            stoplist = default_stoplist()
        object.__setattr__(self, "stoplist", frozenset(stoplist))


def _decode_entity(match):
    ref = match.group(1)
    if ref.startswith("#"):
        try:
            code = int(ref[2:], 16) if ref[1] in "xX" else int(ref[1:])
            return chr(code)
        except (ValueError, OverflowError):
            return match.group(0)
    return _NAMED_ENTITIES.get(ref.lower(), match.group(0))


def strip_html(html: str) -> str:
    """Extract visible text from HTML, best effort.

    Script/style contents are dropped, tags become single spaces, the
    common named entities and numeric character references are decoded.
    """
    text = _COMMENT_RE.sub(" ", html)
    text = _SCRIPT_STYLE_RE.sub(" ", text)
    text = _TAG_RE.sub(" ", text)
    text = _ENTITY_RE.sub(_decode_entity, text)
    return " ".join(text.split())


def tokenize(text: str, keep_numeric_tokens: bool = True):
    """Lowercase tokens split on any non-alphanumeric character."""
    tokens = _TOKEN_RE.findall(text.lower())
    if not keep_numeric_tokens:
        tokens = [t for t in tokens if not _NUMERIC_RE.match(t)]
    return tokens


# Porter stem of each ASCII word seen. Tokens with digits or non-ASCII
# characters never enter it: they pass through unstemmed, and synthetic
# logs hold hundreds of thousands of distinct ones.
_STEMS = {}


def stem(token: str) -> str:
    """Porter-stem an ASCII token; non-ASCII tokens pass through."""
    if not _ASCII_WORD_RE.match(token):
        return token
    stemmed = _STEMS.get(token)
    if stemmed is None:
        stemmed = _STEMS[token] = porter.stem(token)
    return stemmed


def normalize(text: str, config: NormalizationConfig) -> TermBag:
    """Full pipeline: tokenize, remove stopwords, stem, count. Stopwords
    are dropped and the rest stemmed in one pass over the tokens; a token
    that is not all letters, or a word already in the Porter memo, skips
    `stem` and its regex."""
    tokens = tokenize(text, config.keep_numeric_tokens)
    stoplist = config.stoplist
    if config.stemming_enabled:
        tokens = [(_STEMS.get(t) or stem(t)) if t.isalpha() else t
                  for t in tokens if t not in stoplist]
    else:
        tokens = [t for t in tokens if t not in stoplist]
    return TermBag.from_tokens(tokens)
