"""Classic Porter stemming algorithm (1980), steps 1a through 5b.

Operates on lowercase alphanumeric tokens. Tokens shorter than 3
characters are returned unchanged, as in the original definition.

For any `str`, the result equals that of the classic rules as coded
before this kernel: a letter is a vowel if it is one of `aeiou`, or a
`y` that follows a consonant; every other character, uppercase `Y`,
digits and non-ASCII included, is a consonant; the first of a step's
suffixes that the word ends with decides, even when its measure test
fails. `tests/test_textnorm.py` pins that output over 200,000 generated
words and a set of strings outside `a-z`.

The kernel builds each word's consonant/vowel form (one `c` or `v` per
character) once, with `str.translate`, and carries it through the steps
beside the word: a step that cuts a suffix cuts the form alike, since a
character's class depends only on the characters before it, and one
that appends a suffix appends the suffix's own form, which holds no `y`.
The measure m of [C](VC){m}[V] is then the number of `vc` in the form,
"contains a vowel" is `v` in the form, and *o (cvc) reads its last
three classes. The suffixes of steps 2, 3 and 4 are looked up by the
word's last letter; each table keeps the classic list order.
"""


class _Classes(dict):
    """`str.translate` table from a character to its class: `v` for a
    vowel, `c` for a consonant, and `y` for a `y` still to be resolved.
    Every character outside `a-z` is a consonant."""

    def __missing__(self, code):
        return "c"


_CLASSES = _Classes({code: "c" for code in range(ord("a"), ord("z") + 1)})
_CLASSES.update({ord(vowel): "v" for vowel in "aeiou"})
_CLASSES[ord("y")] = "y"


def _form(word):
    """Consonant/vowel form of `word`: a `y` is a consonant at the start
    or after a vowel, and a vowel after a consonant."""
    form = word.translate(_CLASSES)
    if "y" not in form:
        return form
    classes = []
    prev = "v"
    for cls in form:
        if cls == "y":
            cls = "c" if prev == "v" else "v"
        classes.append(cls)
        prev = cls
    return "".join(classes)


def _by_last_letter(rules):
    """Group (suffix, replacement) rules by the suffix's last letter,
    keeping their order, with each replacement's form."""
    table = {}
    for suffix, repl in rules:
        table.setdefault(suffix[-1], []).append((suffix, len(suffix), repl, _form(repl)))
    return table


_STEP2 = _by_last_letter([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
])

_STEP3 = _by_last_letter([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _by_last_letter([(suffix, "") for suffix in (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)])


def stem(token):
    """Stem a lowercase token with the classic Porter algorithm."""
    if len(token) <= 2:
        return token
    w = token
    f = _form(w)

    # Step 1a.
    if w[-1] == "s":
        if w.endswith(("sses", "ies")):
            w, f = w[:-2], f[:-2]
        elif w[-2] != "s":
            w, f = w[:-1], f[:-1]

    # Step 1b.
    if w.endswith("eed"):
        if "vc" in f[:-3]:
            w, f = w[:-1], f[:-1]
    else:
        cut = 0
        if w.endswith("ed"):
            if "v" in f[:-2]:
                cut = 2
        elif w.endswith("ing"):
            if "v" in f[:-3]:
                cut = 3
        if cut:
            w, f = w[:-cut], f[:-cut]
            if w.endswith(("at", "bl", "iz")):
                w, f = w + "e", f + "v"
            elif (len(w) >= 2 and w[-1] == w[-2] and f[-1] == "c"
                  and w[-1] not in "lsz"):
                w, f = w[:-1], f[:-1]
            elif f[-3:] == "cvc" and w[-1] not in "wxy" and f.count("vc") == 1:
                w, f = w + "e", f + "v"

    # Step 1c.
    if w[-1] == "y" and "v" in f[:-1]:
        w, f = w[:-1] + "i", f[:-1] + "v"

    # Steps 2 and 3: the first suffix that matches decides.
    for table in (_STEP2, _STEP3):
        for suffix, n, repl, repl_form in table.get(w[-1], ()):
            if w.endswith(suffix):
                if "vc" in f[:-n]:
                    w, f = w[:-n] + repl, f[:-n] + repl_form
                break

    # Step 4.
    for suffix, n, _, _ in _STEP4.get(w[-1], ()):
        if w.endswith(suffix):
            if f.count("vc", 0, -n) > 1 and (suffix != "ion" or w[-n - 1] in "st"):
                w, f = w[:-n], f[:-n]
            break

    # Step 5a.
    if w[-1] == "e":
        m = f.count("vc", 0, -1)
        if m > 1 or (m == 1 and not (f[-4:-1] == "cvc" and w[-2] not in "wxy")):
            w, f = w[:-1], f[:-1]

    # Step 5b.
    if w.endswith("ll") and f.count("vc") > 1:
        w = w[:-1]
    return w
