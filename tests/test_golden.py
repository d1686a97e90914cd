"""Golden report check: `ingest` plus the five `analyze` commands on a
fixed synthetic log must write exactly the recorded bytes.

Each command runs in its own process with PYTHONHASHSEED=0, as a user
would run it; several report values are float sums taken in set order,
so only a fixed hash seed makes the bytes repeatable. When a change is
meant to alter a report, record the new digests here in the same change.
"""

import hashlib
import os
import subprocess
import sys
from xml.sax.saxutils import escape, quoteattr

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
    "corpus.json": "8a0bc3d45996e984e8d09e1d55a95a0ff25049ed8334b362a087c85d62aa9f2f",
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


def run_pipeline(directory):
    """sha256 of the corpus JSON and of every report file."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    corpus = os.path.join(directory, "corpus.json")
    reports = os.path.join(directory, "reports")
    commands = [["ingest", "--trec-xml", "sessions.xml", "--qrels", "qrels.txt",
                 "--docs", "docs", "--out", corpus]]
    commands += [["analyze", a, "--corpus", corpus, "--out-dir", reports] for a in ANALYSES]
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "sessionterms.cli", *command],
                              cwd=directory, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
    digests = {}
    for path in [corpus] + [os.path.join(reports, n) for n in sorted(os.listdir(reports))]:
        with open(path, "rb") as f:
            digests[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_reports_match_golden_digests(tmp_path):
    write_inputs(str(tmp_path))
    assert run_pipeline(str(tmp_path)) == GOLDEN
