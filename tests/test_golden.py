"""Golden report check: `ingest` plus the five `analyze` commands,
`analyze sources --docstore-policy empty` and `analyze metrics --cutoff
5`, on a fixed synthetic log must write exactly the recorded bytes. So
must `ingest` and the five `analyze` commands on a small English log,
which takes stopwords, Porter stemming, HTML stripping and documents
shared between sessions through the same path.

Each command runs in its own process with PYTHONHASHSEED=0, as a user
would run it. Report bytes must not depend on the hash seed: `analyze
sources`, whose scores sum floats over sets of added terms, runs once
more under PYTHONHASHSEED=1 against the same digests. When a change is
meant to alter a report, record the new digests here in the same change.

The same digests hold on every CPython from 3.10 on: a float sum or
repr that differs between versions would change report bytes. One other
installed interpreter per minor version runs the golden commands too.
"""

import glob
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from xml.sax.saxutils import escape, quoteattr

import pytest

from sessionterms.synthgen import GeneratorSpec, generate

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SPEC = GeneratorSpec(
    seed=29, sessions=9, session_length=3, session_length_max=7,
    p_keep=0.6, p_ncs=0.3, p_cs=0.4, p_cd=0.8, click_prob=0.5,
    with_test_query=True,
)

ANALYSES = ["pairs", "positions", "sources", "scenarios", "metrics"]

GOLDEN = {
    "click_outcomes.csv": "0d2841e5a6047d3e521eae1c5b2a03e3462d0d0e96d289eae24911764873b10b",
    "click_outcomes.md": "4cb89b5d80c3cfda7e8430ec5ae828ea390caa85b7a89284a7722657e258cd5e",
    "corpus.json": "c9a7e22c515825467f603c0ffec151ce69ddf56b8f856689426b2229b5f1d0f2",
    "dwell_thresholds.csv": "f9d45db9410441386feaa4a20b1e2b0dec34197fc40153e40c242052d2c191f9",
    "fixed_query_similarity.csv": "684e395a2260d8055a4ebbe38a7021e500077bc617aafd2fa8be98a4e59bdc10",
    "impression_metrics.csv": "6aec93f7484aef41b59bd222557bf6813c5683c51983e7d3ef272f4d20f7f590",
    "last_click.csv": "8fd3c4e2cbbb83c6a5fd768115c7ade55d56c7686cad898af49f353ee1cf3d27",
    "last_click.md": "06a4eb8f08afe3772c061eff3676e0bb2907d83b76c2b23c32103b82a5cbd20b",
    "metrics_by_position.csv": "99ec0737bf6e07f4df07c35f8fe8eac973902b8723a515727b72fa064eb75cc3",
    "pair_summary.csv": "162f543872a1101ad62f6672619600fc5823c145ae1c03a19339a5123df48df0",
    "pair_summary.md": "670549d7d393394a2eaa043c9ccea09f663ac0248f3ce78d9ce3f4a14e86c8b5",
    "query_length_by_position.csv": "7eca80dbdf079119155573d5e966a178dffff03b0d5198e6d85642b2fed140db",
    "rank_prefix.csv": "1d131410b796bc3b8570fbb0cb7ad1589f95a9b0246e5868ca875458cafda8ab",
    "rank_prefix.md": "3f2a64753e04adc02ead28d4ebed8b25d65c7c4d16ec18024af0dfdb00ae6bc7",
    "retention_by_scenario.csv": "f071794f5dd66ee510ddfbc49936a879619d3b87810729ebf6d6092b7c25fbed",
    "scenario_distribution.csv": "517ed1ff46b94425407bf1f3a7558962f41e3e9da75e52e17791df4b0244441c",
    "scenario_distribution.md": "3970f9a6a9b8da6186d2eccf22dbde4808bec80f49725596651f8a55bbdb9848",
    "scenario_metric_eval.csv": "8cc0e39236bac0e5377fa74e670f73967a1d8495536c04b88cd533ce07792900",
    "scenario_metric_eval.md": "dac422bf65cfc50abc57c35be83823b85c79e9660b0344f24bd19b770febce0f",
    "scenario_records.csv": "07a2f664f7722dc1dac1ac32c4890f6f05e16932e3979add220b456534960de7",
    "similarity_by_position.csv": "212ee6f05c60282fbc494d90c67251fffac704a1c18c6193b50a89d6991b0850",
    "source_comparison.csv": "f9786924b938dbfed65b7b134586e67d4e2511fbb36d2a7eebec43969a53ec66",
    "source_comparison.md": "bec129e5f277c2e21c07ee13e6c306b8ee8d1ecd2866df8ee69fdae2617339b7",
}

# `analyze sources --docstore-policy empty` on the same corpus.
GOLDEN_EMPTY = {
    "dwell_thresholds.csv": "f9d45db9410441386feaa4a20b1e2b0dec34197fc40153e40c242052d2c191f9",
    "last_click.csv": "8fd3c4e2cbbb83c6a5fd768115c7ade55d56c7686cad898af49f353ee1cf3d27",
    "last_click.md": "06a4eb8f08afe3772c061eff3676e0bb2907d83b76c2b23c32103b82a5cbd20b",
    "rank_prefix.csv": "1d131410b796bc3b8570fbb0cb7ad1589f95a9b0246e5868ca875458cafda8ab",
    "rank_prefix.md": "3f2a64753e04adc02ead28d4ebed8b25d65c7c4d16ec18024af0dfdb00ae6bc7",
    "source_comparison.csv": "405d06ace32689d77d92542ffca35a9f87d8f20ed6c0181e4dc0be3be258f5ac",
    "source_comparison.md": "9b608f5de7bc3237d900f293d1219bf4defc2f8fe1458aade32c23212e401e92",
}

# `analyze metrics --cutoff 5` on the same corpus.
GOLDEN_CUTOFF_5 = {
    "impression_metrics.csv": "72fd040b269f7b946c7719523e276bed66626dfe908b346222845f9a9dc8a5e7",
    "metrics_by_position.csv": "19ba91fa50895c05c2dd264ee5f1306c4bc25afe921c67048f0a7cd9d2cbbe3c",
    "scenario_metric_eval.csv": "89765cf16ce2616aa646489ff8a310b50f00f3ab5c4689039d9bffd4b6d81027",
    "scenario_metric_eval.md": "3eee1497ab239d02868fd6ddfb1873ce11dfdb088c8b7fb1f86ebdd6b67b7bb4",
}


# `ingest` and the five `analyze` commands on `write_english_inputs`.
GOLDEN_ENGLISH = {
    "click_outcomes.csv": "0544cb43b0ec42f56959931c3218e3dda28e4f2feb3aa03e16b9f3cbe013ad65",
    "click_outcomes.md": "2ff52f564ecedbcf40b52b59c20ef7d8dd4e0b9985d6f50d7eafdc619354bf66",
    "corpus.json": "a31b83722e70b36be64e9d37656a39cd1c2cf1656a3bc6e866ece8396ce1dfdc",
    "dwell_thresholds.csv": "facebcdf018cc559b7beba418ef2b74500357870ad52b8304a2c9ec09c10d902",
    "fixed_query_similarity.csv": "177ec8b599e424653dcff759dc82875fbac9860cd1ffe89189ae16a31fc6f31a",
    "impression_metrics.csv": "654a7f20f94db41a78011f3b64992e4db48fd38ae37003e55744e0e7a512582d",
    "last_click.csv": "0c4c88b7248a6e3d04908487f06f71fa237eb0b9969399f6a905b52719fef92a",
    "last_click.md": "75a6046c9ab9e4b994aa29f7feffea80e047701bd06589e7a079d86e114a0a2d",
    "metrics_by_position.csv": "3a84de700fb3f3cc4c1ab09f040c2079075db4241c928f7aedab7bddac219025",
    "pair_summary.csv": "b94c3fe38c76dbdf2bdfbeab90466a9f689508d2f1527619c85c028dcf83b637",
    "pair_summary.md": "3a3dfcf6f7fe53bf12238b0b9713ddb102d16a8b4ae1bcc15484f8a6bffd87af",
    "query_length_by_position.csv": "d544714beb3edeb41ad28ce71f74f1373baeedbe81394f2756cdd83a763f1e77",
    "rank_prefix.csv": "70811a1b333ab81a1e6403232ab1d02b1d8e8b276cab1b6361ccbb4edce931b1",
    "rank_prefix.md": "cda923f52d40f98fd10047efc2dd9112baff739505d952625d056242ad34efb2",
    "retention_by_scenario.csv": "41e952bb1e39827845b4d6d4d37d388e6d66cbc0bd4f48398592ba7939e9bee2",
    "scenario_distribution.csv": "3cccb92567637e2c624f3f3c31021a8ef1cfc3c6d033e2b49e12c9c227c258f6",
    "scenario_distribution.md": "b1dff9127164532e411f802262d94acedcfffdb0c21159846cdd4373f03c49d1",
    "scenario_metric_eval.csv": "02d5b642500ddeb0988053cb1801894130e33795b5be8b5eca901bb984da01c5",
    "scenario_metric_eval.md": "d13b987ca92bb410e837ee8c5c9faedd29a4fb0a853c193b739fd264014b5488",
    "scenario_records.csv": "3588153fb3cbefcbbcaaecff7d1f1d82810f9f0fb1a4701636236ea98f9f557f",
    "similarity_by_position.csv": "7fd64106c7376f303caaad6a6586c9dd976b455174c3ddfb57396a169d1ca937",
    "source_comparison.csv": "6e02ecc74cae74cfcfc7ca8928e843315b66876e571740a600c52a4b53face07",
    "source_comparison.md": "42672a87303e3603c521b1f7507253be76665a12845260488a12b73c27d6498d",
}


def _topic(index):
    """Three topics round-robin; every fourth session has none."""
    return None if index % 4 == 3 else f"t{index % 3}"


def write_inputs(directory):
    """TREC XML, qrels and a docs directory rendered from SPEC. One
    clicked document is left out, so the missing-document paths run."""
    corpus = generate(SPEC)
    xml = ["<sessiontrack>"]
    qrels = []
    retrieved = 0  # results of sessions with a topic; two in three are judged
    for index, session in enumerate(corpus.sessions):
        topic = _topic(index)
        xml.append(f"<session num={quoteattr(session.id)}>")
        if topic is not None:
            xml.append(f'<topic num="{topic}"/>')
        for imp in session.impressions:
            if imp.is_test_query:
                xml.append(f"<currentquery>{escape(imp.raw_query)}</currentquery>")
                continue
            xml.append(f"<interaction><query>{escape(imp.raw_query)}</query><results>")
            for r in imp.results:
                xml.append(
                    f'<result rank="{r.rank}"><url>{escape(r.url)}</url>'
                    f"<docid>{r.docid}</docid><title></title>"
                    f"<snippet>{escape(r.snippet)}</snippet></result>"
                )
                if topic is not None:
                    if retrieved % 3 != 2:
                        qrels.append(f"{topic} 0 {r.docid} {retrieved % 5}\n")
                    retrieved += 1
            xml.append("</results><clicked>")
            for c in imp.clicks:
                xml.append(
                    f'<click num="{c.order}" starttime="{c.start_time!r}" '
                    f'endtime="{c.end_time!r}"><rank>{c.rank}</rank></click>'
                )
            xml.append("</clicked></interaction>")
        xml.append("</session>")
    xml.append("</sessiontrack>")
    with open(os.path.join(directory, "sessions.xml"), "w", encoding="utf-8") as f:
        f.write("\n".join(xml) + "\n")
    with open(os.path.join(directory, "qrels.txt"), "w", encoding="utf-8") as f:
        f.write("".join(qrels))
    missing = next(imp.result_at(imp.clicks[0].rank).docid
                   for session in corpus.sessions for imp in session.impressions
                   if imp.clicks)
    docs = os.path.join(directory, "docs")
    os.mkdir(docs)
    for docid, text in corpus.docstore.items():
        if docid != missing:
            with open(os.path.join(docs, docid), "w", encoding="utf-8") as f:
                f.write(text)


# Each topic's words: inflections Porter folds together (run, running,
# runs), a digit-bearing token, a non-ASCII word and words of two letters.
ENGLISH_TOPICS = {
    "e1": "running runs runner marathons marathon trained training shoes injuries "
          "injured knees stretching 10k ok",
    "e2": "connection connected connecting networks network routers wireless "
          "signals cables configured configuration settings wi fi",
    "e3": "policies policy elections elected voters voting campaigns campaigned "
          "candidates debates taxes taxation café",
}
ENGLISH_COMMON = "information resources reviews studies reported analysis 2015 guide"
ENGLISH_STOPWORDS = "the of and a in for is to on with how what about".split()


def _english_words(rng, topic, n):
    words = []
    for _ in range(n):
        x = rng.random()
        pool = (ENGLISH_STOPWORDS if x < 0.3 else ENGLISH_COMMON.split() if x < 0.45
                else ENGLISH_TOPICS[topic].split())
        words.append(rng.choice(pool))
    return " ".join(words)


def write_english_inputs(directory):
    """TREC XML, qrels and an HTML docs directory for three topics of
    three sessions each. Every result of a topic comes from its six
    documents, so the sessions of a topic share documents."""
    rng = random.Random(41)
    xml = ["<sessiontrack>"]
    qrels = []
    docs = os.path.join(directory, "docs")
    os.mkdir(docs)
    for topic in ENGLISH_TOPICS:
        docids = [f"{topic}-doc{i}" for i in range(6)]
        for docid in docids:
            qrels.append(f"{topic} 0 {docid} {rng.randint(0, 3)}\n")
            paragraphs = "".join(f"<p>{escape(_english_words(rng, topic, 12))} &amp; more</p>"
                                 for _ in range(rng.randint(2, 4)))
            with open(os.path.join(docs, docid), "w", encoding="utf-8") as f:
                f.write(f"<html><head><title>{topic} page</title><style>p {{ margin: 0 }}"
                        f"</style><script>var x = {rng.randint(1, 99)};</script></head>"
                        f"<body><!-- nav -->{paragraphs}</body></html>\n")
        for index in range(3):
            xml.append(f'<session num="{topic}-s{index}"><topic num="{topic}"/>')
            for _ in range(rng.randint(2, 4)):
                query = escape(_english_words(rng, topic, rng.randint(2, 4)))
                xml.append(f"<interaction><query>{query}</query><results>")
                results = rng.sample(docids, 5)
                for rank, docid in enumerate(results, start=1):
                    xml.append(f'<result rank="{rank}"><url>http://{docid}.example</url>'
                               f"<docid>{docid}</docid><title>{topic} page</title>"
                               f"<snippet>{escape(_english_words(rng, topic, 8).capitalize())}</snippet>"
                               "</result>")
                xml.append("</results><clicked>")
                start = 0.0
                for order, rank in enumerate(sorted(rng.sample(range(1, 6), rng.randint(0, 2))),
                                             start=1):
                    end = start + rng.choice([3.0, 12.5, 40.0])
                    xml.append(f'<click num="{order}" starttime="{start!r}" '
                               f'endtime="{end!r}"><rank>{rank}</rank></click>')
                    start = end + 1.0
                xml.append("</clicked></interaction>")
            if index == 2:
                xml.append(f"<currentquery>{escape(_english_words(rng, topic, 3))}"
                           "</currentquery>")
            xml.append("</session>")
    xml.append("</sessiontrack>")
    with open(os.path.join(directory, "sessions.xml"), "w", encoding="utf-8") as f:
        f.write("\n".join(xml) + "\n")
    with open(os.path.join(directory, "qrels.txt"), "w", encoding="utf-8") as f:
        f.write("".join(qrels))


def _sessionterms(directory, *command, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "sessionterms.cli", *command],
                          cwd=directory, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _digests(paths):
    digests = {}
    for path in paths:
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def _listing(directory):
    return [os.path.join(directory, n) for n in sorted(os.listdir(directory))]


def _ingest(directory):
    _sessionterms(directory, "ingest", "--trec-xml", "sessions.xml", "--qrels", "qrels.txt",
                  "--docs", "docs", "--out", "corpus.json")
    return directory


def _all_digests(directory):
    """Digests of corpus.json and of the five analyses' reports."""
    for analysis in ANALYSES:
        _sessionterms(directory, "analyze", analysis, "--corpus", "corpus.json",
                      "--out-dir", "reports")
    corpus = os.path.join(directory, "corpus.json")
    return _digests([corpus] + _listing(os.path.join(directory, "reports")))


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    """Directory holding the inputs and the ingested corpus.json."""
    directory = str(tmp_path_factory.mktemp("golden"))
    write_inputs(directory)
    return _ingest(directory)


def test_reports_match_golden_digests(ingested):
    assert _all_digests(ingested) == GOLDEN


def test_english_reports_match_golden_digests(tmp_path):
    write_english_inputs(str(tmp_path))
    assert _all_digests(_ingest(str(tmp_path))) == GOLDEN_ENGLISH


def test_docstore_policy_empty_matches_golden_digests(ingested):
    """Under `empty` the missing clicked document leaves its rows in,
    scored on the documents that are present."""
    _sessionterms(ingested, "analyze", "sources", "--corpus", "corpus.json",
                  "--docstore-policy", "empty", "--out-dir", "reports_empty")
    assert _digests(_listing(os.path.join(ingested, "reports_empty"))) == GOLDEN_EMPTY


def test_sources_reports_do_not_depend_on_the_hash_seed(ingested):
    _sessionterms(ingested, "analyze", "sources", "--corpus", "corpus.json",
                  "--out-dir", "reports_hash_seed_1", hash_seed="1")
    # GOLDEN_EMPTY names exactly the files `analyze sources` writes
    assert _digests(_listing(os.path.join(ingested, "reports_hash_seed_1"))) == {
        name: GOLDEN[name] for name in GOLDEN_EMPTY}


def test_metrics_cutoff_5_matches_golden_digests(ingested):
    """A non-default cutoff changes every NDCG and NERR value, so these
    digests differ from GOLDEN's."""
    _sessionterms(ingested, "analyze", "metrics", "--corpus", "corpus.json",
                  "--cutoff", "5", "--out-dir", "reports_cutoff_5")
    assert _digests(_listing(os.path.join(ingested, "reports_cutoff_5"))) == GOLDEN_CUTOFF_5


# Runs each JSON-listed argv through `cli.main` in one process, so an
# interpreter pays its start-up and import once for all its commands.
_RUN_COMMANDS = """
import json, sys
from sessionterms.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"exit {code}: sessionterms {' '.join(argv)}")
"""

_PROBE = ("import importlib.util, os, sys; print(sys.version_info[0], sys.version_info[1], "
          "os.path.realpath(sys.executable), importlib.util.find_spec('scipy') is not None)")


def _other_interpreters():
    """[(path, "3.x", has_scipy)]: one CPython 3.10+ per minor version
    other than the running one, from `python3.1x` on PATH, pyenv's
    versions and /usr/bin. Among interpreters of a minor version, one
    with scipy is preferred."""
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.1*/bin/python3")))
    candidates += sorted(glob.glob("/usr/bin/python3.1[0-9]"))
    found = {}
    for path in dict.fromkeys(filter(None, candidates)):
        try:
            probe = subprocess.run([path, "-c", _PROBE], capture_output=True, text=True,
                                   timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode != 0:
            continue  # e.g. a pyenv shim for a version that is not selected
        major, minor, executable, has_scipy = probe.stdout.split()
        version = f"{major}.{minor}"
        if (int(major), int(minor)) < (3, 10) or version == "%d.%d" % sys.version_info[:2]:
            continue
        if version not in found or (has_scipy == "True" and not found[version][1]):
            found[version] = (executable, has_scipy == "True")
    return [(path, version, has_scipy) for version, (path, has_scipy) in sorted(found.items())]


def _commands(inputs, out, analyses):
    corpus = os.path.join(out, "corpus.json")
    commands = [["ingest", "--trec-xml", os.path.join(inputs, "sessions.xml"),
                 "--qrels", os.path.join(inputs, "qrels.txt"),
                 "--docs", os.path.join(inputs, "docs"), "--out", corpus]]
    commands += [["analyze", analysis, "--corpus", corpus,
                  "--out-dir", os.path.join(out, "reports")] for analysis in analyses]
    return commands


def test_other_interpreters_match_golden_digests(tmp_path):
    """`analyze sources` needs scipy for GOLDEN's significant cells; an
    interpreter without scipy leaves that command out on GOLDEN."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10+ installed")
    inputs = {"golden": tmp_path / "golden", "english": tmp_path / "english"}
    for directory in inputs.values():
        directory.mkdir()
    write_inputs(str(inputs["golden"]))
    write_english_inputs(str(inputs["english"]))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
    runs = []
    for path, version, has_scipy in interpreters:
        expected = {"golden": dict(GOLDEN), "english": GOLDEN_ENGLISH}
        analyses = {"golden": list(ANALYSES), "english": ANALYSES}
        if not has_scipy:
            analyses["golden"].remove("sources")
            for name in GOLDEN_EMPTY:  # exactly the files `analyze sources` writes
                del expected["golden"][name]
        commands = []
        for name in inputs:
            out = tmp_path / version / name
            out.mkdir(parents=True)
            commands += _commands(str(inputs[name]), str(out), analyses[name])
        proc = subprocess.Popen([path, "-c", _RUN_COMMANDS, json.dumps(commands)], env=env,
                                cwd=tmp_path, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        runs.append((proc, path, version, expected))
    failures = []
    for proc, path, version, expected in runs:
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            failures.append(f"{path} ({version}): {err.strip().splitlines()[-1:]}")
            continue
        for name, digests in expected.items():
            out = tmp_path / version / name
            got = _digests([str(out / "corpus.json")] + _listing(str(out / "reports")))
            failures += [f"{path} ({version}) {name}: {file}"
                         for file in sorted(set(got) | set(digests))
                         if got.get(file) != digests.get(file)]
    assert not failures, failures
