import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessionterms import porter, textnorm
from sessionterms.textnorm import (
    NormalizationConfig,
    TermBag,
    default_stoplist,
    normalize,
    parse_stoplist,
    stem,
    strip_html,
    tokenize,
)

from conftest import summed_bag


class TestStripHtml:
    def test_tags_become_spaces(self):
        assert strip_html("<p>gun <b>control</b></p>") == "gun control"

    def test_script_contents_dropped(self):
        assert strip_html("<script>x=1</script>law") == "law"

    def test_style_contents_dropped(self):
        assert strip_html("<style>a{color:red}</style>center") == "center"

    def test_named_entities(self):
        assert strip_html("A&amp;B") == "A&B"
        assert strip_html("1&lt;2 &gt;0 &quot;q&quot; &apos;a&apos;") == "1<2 >0 \"q\" 'a'"

    def test_numeric_references(self):
        assert strip_html("&#65;&#x42;") == "AB"

    def test_unknown_entity_preserved(self):
        assert strip_html("a&bogus;b") == "a&bogus;b"

    def test_unbalanced_tags_tolerated(self):
        assert strip_html("<div><p>text") == "text"

    def test_comments_dropped(self):
        assert strip_html("a<!-- hidden -->b") == "a b"


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Gun Control, US!") == ["gun", "control", "us"]

    def test_hyphen_splits(self):
        assert tokenize("law-center") == ["law", "center"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numeric_kept_by_default(self):
        assert tokenize("top 10 laws") == ["top", "10", "laws"]

    def test_numeric_dropped_when_disabled(self):
        assert tokenize("top 10 laws", keep_numeric_tokens=False) == ["top", "laws"]

    # rule confirmed against a hand list of punctuation fixtures
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a.b", ["a", "b"]),
            ("don't", ["don", "t"]),
            ("U.S.A.", ["u", "s", "a"]),
            ("x_y", ["x", "y"]),
            ("  spaced   out  ", ["spaced", "out"]),
            ("end.", ["end"]),
            ("semi;colon", ["semi", "colon"]),
            ("(parens)", ["parens"]),
            ("slash/slash", ["slash", "slash"]),
            ("mix3d 4lpha", ["mix3d", "4lpha"]),
        ],
    )
    def test_punctuation_fixtures(self, text, expected):
        assert tokenize(text) == expected


_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_STEP_SUFFIXES = [
    # steps 2, 3 and 4, then 5a and 5b
    "ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli",
    "eli", "ousli", "ization", "ation", "ator", "alism", "iveness",
    "fulness", "ousness", "aliti", "iviti", "biliti",
    "icate", "ative", "alize", "iciti", "ical", "ful", "ness",
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "sion", "tion", "ou", "ism", "ate", "iti",
    "ous", "ive", "ize", "e", "ll", "",
]
_STEP1_SUFFIXES = ["sses", "ies", "ss", "s", "eed", "ed", "ing", "ated",
                   "bling", "izing", "y", ""]


def _pinned_vocabulary(size=200_000, seed=1601):
    """Distinct words: a random stem of consonants, vowels and `y`, its
    last letter doubled one time in five, then a suffix of steps 2-5b and
    one of steps 1a-1c."""
    rng = random.Random(seed)
    words = {}
    while len(words) < size:
        chars = []
        for _ in range(rng.randint(1, 6)):
            draw = rng.random()
            if draw < 0.5:
                chars.append(rng.choice(_CONSONANTS))
            elif draw < 0.85:
                chars.append(rng.choice("aeiou"))
            else:
                chars.append("y")
        if rng.random() < 0.2:
            chars.append(chars[-1])
        word = "".join(chars) + rng.choice(_STEP_SUFFIXES) + rng.choice(_STEP1_SUFFIXES)
        words[word] = None
    return list(words)


def _mixed_strings(size=20_000, seed=1602):
    """Strings of 0-9 characters: mixed case, digits, non-ASCII, spaces."""
    rng = random.Random(seed)
    alphabet = "aeiouyAEIOUYbcstlnzBSZ09é ß-"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            for _ in range(size)]


def _stems_sha256(words):
    lines = "".join(f"{word}\t{porter.stem(word)}\n" for word in words)
    return hashlib.sha256(lines.encode()).hexdigest()


class TestPorter:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("opinions", "opinion"),
            ("caresses", "caress"),
            ("gun", "gun"),
            ("ponies", "poni"),
            ("caress", "caress"),
            ("cats", "cat"),
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("homologou", "homolog"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("effective", "effect"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
            ("violence", "violenc"),
            ("government", "govern"),
            ("affairs", "affair"),
        ],
    )
    def test_reference_vocabulary(self, token, expected):
        assert stem(token) == expected

    def test_short_tokens_unchanged(self):
        assert stem("us") == "us"
        assert stem("a") == "a"

    def test_non_ascii_passes_through(self):
        assert stem("café") == "café"
        assert stem("über") == "über"

    # The digests are those of the rule-by-rule Porter code that the
    # table-driven kernel replaced.
    def test_pinned_generated_vocabulary(self):
        words = _pinned_vocabulary()
        assert len(set(words)) == 200_000
        assert _stems_sha256(words) == (
            "9f831308139c433282ed7e0fce5ca07340bac0374c2b6e15e69481f919238e78")

    def test_pinned_mixed_strings(self):
        assert _stems_sha256(_mixed_strings()) == (
            "f7a7a051b3c93527a4dcd97e8f087727843cc34a3b5bd9b5d0a9da57e63d633f")

    @pytest.mark.parametrize("token,expected", [
        ("", ""), ("a", "a"), ("ab", "ab"), ("ye", "ye"), ("ll", "ll"),
        ("Y", "Y"), ("yy", "yy"), ("AEE", "AEE"), ("aEe", "aE"), ("Yuce", "Yuce"),
        ("YUCE", "YUCE"), ("Yelling", "Yell"), ("RUNNING", "RUNNING"),
        ("Caresses", "Caress"), ("ponIES", "ponIES"), ("happY", "happY"),
        ("rationALity", "rationAL"), ("abcdeedY", "abcdeedY"), ("CONTROLL", "CONTROLL"),
        ("sky2", "sky2"), ("2019", "2019"), ("x86ing", "x86ing"),
        ("hopeful1ness", "hopeful1"), ("café", "café"), ("cafés", "café"),
        ("résumés", "résumé"), ("über", "über"), ("naïveté", "naïveté"),
        ("straße", "straße"), ("日本語", "日本語"),
        ("yes", "ye"), ("ayy", "ayi"), ("toyed", "toi"), ("syzygy", "syzygi"),
        ("aing", "a"), ("aed", "a"), ("ied", "i"), ("bed", "bed"), ("eed", "eed"),
        ("sss", "sss"), ("lll", "lll"),
    ])
    def test_inputs_outside_lowercase_letters(self, token, expected):
        assert porter.stem(token) == expected

    def test_idempotent_on_corpus_vocabulary(self):
        # classic Porter is not idempotent on arbitrary strings (e.g.
        # "jealously" -> "jealous" -> "jealou"), but it is on the
        # vocabulary our corpora actually produce
        from sessionterms.synthgen import GeneratorSpec, generate

        # stopwords are filtered before stemming, so they are not part
        # of the stemmer's input vocabulary
        vocabulary = set()
        vocabulary.update(
            "gun control opinions us government current affairs violence law "
            "center prevent connecticut fire academy depression help someone "
            "session search query reformulation snippet document click dwell "
            "ranking evaluation relevance judgment topic impression term "
            "retention removal addition similarity measure collection "
            "frequency statistics analysis experiment result table figure "
            "running jumped quickly slowly happiness readiness national "
            "international relational conditional operations generalization "
            "optimization considered computing computed computes electrical "
            "engineering sciences retrieval clicked snippets documents".split()
        )
        corpus = generate(GeneratorSpec(seed=3, sessions=120, session_length=4))
        for session in corpus.sessions:
            for imp in session.impressions:
                for result in imp.results:
                    vocabulary.update(result.terms.counts)
        assert len(vocabulary) > 10000
        for token in vocabulary:
            once = stem(token)
            assert stem(once) == once, token


class TestStemMemo:
    @pytest.fixture
    def porter_calls(self, monkeypatch):
        """Tokens handed to the Porter stemmer, starting from an empty memo."""
        monkeypatch.setattr(textnorm, "_STEMS", {})
        calls = []
        real = porter.stem

        def counting_stem(token):
            calls.append(token)
            return real(token)

        monkeypatch.setattr(porter, "stem", counting_stem)
        return calls

    def test_repeated_normalize_stems_each_distinct_word_once(self, porter_calls):
        config = NormalizationConfig(stoplist=frozenset())
        text = "running dogs running cats dogs"
        for _ in range(3):
            assert normalize(text, config).counts == {"run": 2, "dog": 2, "cat": 1}
        assert sorted(porter_calls) == ["cats", "dogs", "running"]
        assert textnorm._STEMS == {"running": "run", "dogs": "dog", "cats": "cat"}

    def test_digit_and_non_ascii_tokens_never_enter_the_memo(self, porter_calls):
        config = NormalizationConfig(stoplist=frozenset())
        text = "f0x50 w12 2016 café über naïve running"
        for _ in range(2):
            assert normalize(text, config).counts == {
                "f0x50": 1, "w12": 1, "2016": 1, "café": 1, "über": 1, "naïve": 1,
                "run": 1,
            }
        assert porter_calls == ["running"]
        assert textnorm._STEMS == {"running": "run"}


    def test_tokens_with_digits_skip_stem(self, porter_calls, monkeypatch):
        """Only a token of letters can be stemmed: the others never reach
        `stem`, and the bag and the memo stay the same."""
        stemmed = []
        real = textnorm.stem

        def counting_stem(token):
            stemmed.append(token)
            return real(token)

        monkeypatch.setattr(textnorm, "stem", counting_stem)
        config = NormalizationConfig(stoplist=frozenset())
        assert normalize("f0x50 w12 2016 café running", config).counts == {
            "f0x50": 1, "w12": 1, "2016": 1, "café": 1, "run": 1}
        assert stemmed == ["café", "running"]
        assert textnorm._STEMS == {"running": "run"}


class TestNormalize:
    def test_stopword_removal_equalizes_queries(self):
        config = NormalizationConfig()
        assert normalize("what is the connecticut fire academy", config) == normalize(
            "connecticut fire academy", config
        )

    def test_composed_pipeline(self):
        config = NormalizationConfig()
        assert normalize("gun control opinions", config).counts == {
            "gun": 1,
            "control": 1,
            "opinion": 1,
        }

    def test_all_stopwords(self):
        config = NormalizationConfig()
        assert normalize("the of and", config).counts == {}

    def test_no_uppercase_or_punctuation_in_output(self):
        config = NormalizationConfig()
        rng = random.Random(5)
        chars = "abcXYZ 12!@.-_&é"
        for _ in range(500):
            text = "".join(rng.choice(chars) for _ in range(rng.randint(0, 40)))
            for term in normalize(text, config).counts:
                assert term == term.lower()
                assert all(c.isalnum() for c in term)

    def test_stemming_toggle_preserves_token_count(self):
        stemmed = NormalizationConfig(stemming_enabled=True)
        raw = NormalizationConfig(stemming_enabled=False)
        for text in [
            "running dogs eat quickly",
            "gun control opinions and realities",
            "the quick brown foxes jumped",
        ]:
            assert normalize(text, stemmed).length == normalize(text, raw).length


def pipeline_normalize(text, config):
    """normalize as written before it became one pass over the tokens:
    filter stopwords, then Porter-stem every ASCII word, with no memo."""
    tokens = tokenize(text, config.keep_numeric_tokens)
    tokens = [t for t in tokens if t not in config.stoplist]
    if config.stemming_enabled:
        tokens = [porter.stem(t) if re.match(r"^[a-z]+$", t) else t for t in tokens]
    return TermBag.from_tokens(tokens)


_WORDS = ["running", "Runs", "connected", "policies", "caresses", "ponies", "agreed",
          "happiness", "generalizations", "a", "is", "ox", "be", "THE", "of", "and"]
_TOKENS = st.one_of(
    st.sampled_from(_WORDS),
    st.sampled_from(sorted(default_stoplist())),
    st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=9),
    st.text("0123456789", min_size=1, max_size=5),
    st.text("ab1éüßçñ", min_size=1, max_size=6),
    st.text("xyz", min_size=1, max_size=2),
)
_TEXTS = st.lists(st.tuples(_TOKENS, st.sampled_from([" ", ", ", "-", ". ", "\n"])),
                  max_size=25).map(lambda parts: "".join(t + sep for t, sep in parts))


class TestNormalizeEqualsPipeline:
    @pytest.mark.parametrize("stemming", [True, False])
    @pytest.mark.parametrize("keep_numeric", [True, False])
    @settings(max_examples=150, deadline=None)
    @given(text=_TEXTS)
    def test_same_ordered_counts(self, stemming, keep_numeric, text):
        for stoplist in (None, frozenset({"ox", "12", "é"})):
            config = NormalizationConfig(stoplist=stoplist, stemming_enabled=stemming,
                                         keep_numeric_tokens=keep_numeric)
            expected = list(pipeline_normalize(text, config).counts.items())
            # twice: the second pass finds every ASCII word in the memo
            assert list(normalize(text, config).counts.items()) == expected
            assert list(normalize(text, config).counts.items()) == expected


class TestStoplist:
    def test_default_list_is_lowercase_punctuation_free(self):
        for word in default_stoplist():
            assert word == word.lower()
            assert word.isalnum()

    def test_us_not_a_stopword(self):
        # session-40 similarity values depend on "us" surviving
        assert "us" not in default_stoplist()

    def test_parse_comments_and_blanks(self):
        words = parse_stoplist("# comment\nthe\n\nof  # trailing\nAND\n")
        assert words == {"the", "of", "and"}


class TestTermBag:
    def test_counts_strictly_positive(self):
        bag = TermBag({"a": 2, "b": 0, "c": -1})
        assert bag.counts == {"a": 2}

    def test_set_view_matches_keys(self):
        bag = TermBag({"a": 2, "b": 1})
        assert bag.terms == {"a", "b"}

    def test_length_sums_counts(self):
        assert TermBag({"a": 2, "b": 3}).length == 5

    def test_union_merges_counts(self):
        merged = TermBag.union([TermBag({"a": 1}), TermBag({"a": 2, "b": 1})])
        assert merged.counts == {"a": 3, "b": 1}

    def test_union_equals_plain_dict_sum_in_term_order(self):
        bags = [TermBag({"b": 1, "a": 2}), TermBag({"c": 1, "a": 1}), TermBag(), TermBag({"d": 4})]
        union = TermBag.union(bags)
        assert list(union.counts.items()) == list(summed_bag(bags).counts.items())
        assert bags[0].counts == {"b": 1, "a": 2}  # inputs are not modified
        assert TermBag.union([]) == TermBag()
