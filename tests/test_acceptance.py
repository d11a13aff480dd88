"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 8 needs the full source treebank on disk and is
skipped unless AGVALEX_AGDT_DIR points at it.
"""

import os
import random
import time
import unicodedata

import pytest

from grcvalency import (
    beta_to_unicode,
    decode_postag,
    encode_postag,
    extract_entries,
    frame_frequencies,
    ks_two_sample,
    parse_treebank_file,
    query_entries,
    read_lexicon,
    significance_stars,
    stats_basic,
    stats_by_author,
    write_lexicon,
)
from grcvalency.casestudy import CaseStudyConfig
from grcvalency.cli import main
from grcvalency.postag import FIELDS

import synthetic_case
from conftest import CORPUS_DIR
from test_lexicon import _random_lexicon
from test_stats import enumeration_oracle


def _report(number, message):
    print(f"\nACCEPTANCE {number}: PASS - {message}")


def test_criterion_1_golden_entry(tmp_path):
    started = time.perf_counter()
    trees, issues = parse_treebank_file(
        (CORPUS_DIR / "persians.xml").read_bytes(), fallback_meta=("Aeschylus", "Persians")
    )
    assert not issues
    sentence = [t for t in trees if t.sentence_id == 2901046]
    entries = extract_entries(sentence)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.verb == "ἀνθίστημι"
    assert entry.voice == "medio-passive"
    assert entry.subdoc == "703-706"
    assert entry.sentence_id == 2901046
    assert entry.frame == "medio-passive_OBJ[dative],SBJ[nominative]"
    assert entry.frame_fillers == "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"published entry reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_postag_decode_and_roundtrip():
    attested = {
        "v3spie---": dict(
            pos="verb",
            person="3",
            number="singular",
            tense="present",
            mood="indicative",
            voice="medio-passive",
            gender="unspecified",
            case="unspecified",
            degree="unspecified",
        ),
        "n-s---nn-": dict(
            pos="noun",
            person="unspecified",
            number="singular",
            tense="unspecified",
            mood="unspecified",
            voice="unspecified",
            gender="neuter",
            case="nominative",
            degree="unspecified",
        ),
        "p-s----d-": dict(
            pos="pronoun",
            person="unspecified",
            number="singular",
            tense="unspecified",
            mood="unspecified",
            voice="unspecified",
            gender="unspecified",
            case="dative",
            degree="unspecified",
        ),
    }
    for tag, expected in attested.items():
        decoded = decode_postag(tag)
        for field, value in expected.items():
            assert getattr(decoded, field) == value

    rng = random.Random(424242)
    pools = [list(table) for _, table in FIELDS]
    for _ in range(10_000):
        tag = "".join(rng.choice(pool) for pool in pools)
        assert encode_postag(decode_postag(tag)) == tag
    _report(2, "three attested tags decode field-for-field; 10,000-tag round trip holds")


def test_criterion_3_beta_code_excerpt():
    quoted_line = "ἀλλ’ ἐπεὶ δέος παλαιὸν σοὶ φρενῶν ἀνθίσταται"
    words = quoted_line.split(" ")
    transcoded = [
        beta_to_unicode("a)ll'"),
        beta_to_unicode("e)pei\\"),
        beta_to_unicode("de/os"),
        beta_to_unicode("palaio\\n"),
        beta_to_unicode("soi\\"),
        beta_to_unicode("frenw=n"),
        beta_to_unicode("a)nqi/statai"),
    ]
    assert transcoded == [unicodedata.normalize("NFC", w) for w in words]
    for word in transcoded:
        assert word == unicodedata.normalize("NFC", word)
    _report(3, "all seven excerpt forms transcode diacritic-exact under NFC")


def test_criterion_4_lexicon_roundtrip(tmp_path):
    lexicon = _random_lexicon(1000, seed=20240917)
    path = tmp_path / "random.tsv"
    write_lexicon(lexicon, path)
    loaded = read_lexicon(path)
    assert loaded.entries == lexicon.entries
    basic = stats_basic(loaded)
    by_author = stats_by_author(loaded)
    assert sum(count for author, count in by_author[:-1]) == basic["entries"]
    assert by_author[-1] == ("TOTAL", basic["entries"])
    frequencies = frame_frequencies(loaded)
    assert sum(count for _, count in frequencies) == basic["entries"]
    counts = [count for _, count in frequencies]
    assert counts == sorted(counts, reverse=True)
    _report(4, "1,000-entry randomized lexicon round-trips; aggregate identities hold")


def test_criterion_5_ks_oracle():
    started = time.perf_counter()
    rng = random.Random(1234)

    def sample(n):
        if rng.random() < 0.5:
            return [rng.uniform(0, 1) for _ in range(n)]
        return [float(rng.randint(0, 4)) for _ in range(n)]

    for _ in range(200):
        a = sample(rng.randint(2, 8))
        b = sample(rng.randint(2, 8))
        result = ks_two_sample(a, b, method="exact")
        oracle_d, oracle_p = enumeration_oracle(a, b)
        assert result.d_statistic == oracle_d
        assert abs(result.p_value - oracle_p) <= 1e-12

    diffs = []
    for _ in range(60):
        n = rng.choice([8, 9, 10])
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        exact = ks_two_sample(a, b, method="exact").p_value
        asymptotic = ks_two_sample(a, b, method="asymptotic").p_value
        diffs.append(abs(exact - asymptotic))
    mean_abs_error = sum(diffs) / len(diffs)
    assert mean_abs_error <= 0.05
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        5,
        f"200 exact-vs-enumeration pairs identical; asymptotic MAE {mean_abs_error:.4f} "
        f"<= 0.05 in {elapsed:.1f}s",
    )


def test_criterion_6_significance_stars():
    table = {0.034: "**", 0.052: "*", 0.053: "*", 0.084: "*", 0.106: "", 0.240: ""}
    for p, stars in table.items():
        assert significance_stars(p) == stars
    _report(6, "published significance markings reproduced")


def test_criterion_7_synthetic_case_study(tmp_path):
    started = time.perf_counter()
    case = synthetic_case.build_case(tmp_path)

    # verb A's formulaic objects form a tight cluster (pairwise cosine >= 0.9)
    tight_vectors = [
        case["space"].vectors[lemma] for lemma in synthetic_case.TIGHT_EPIC_TYPES[:-1]
    ]
    from grcvalency import cosine_similarity

    for i, u in enumerate(tight_vectors):
        for v in tight_vectors[i + 1:]:
            assert cosine_similarity(u, v) >= 0.9

    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])

    by_verb = {c.verb: c for c in result.comparisons}
    tight = by_verb[synthetic_case.TIGHT_VERB]
    assert tight.ks.p_value < 0.05
    assert tight.boxes[0]["median"] != tight.boxes[1]["median"]
    same = by_verb[synthetic_case.SAME_VERB]
    assert same.ks.d_statistic <= 0.2
    assert same.stars == ""

    drops = {(e.verb, e.reason) for e in result.log if e.event == "drop"}
    assert (synthetic_case.RARE_VERB, "below_min_epic_tokens") in drops
    assert (synthetic_case.NARROW_VERB, "insufficient_epic_types") in drops
    assert (synthetic_case.THIN_VERB, "insufficient_baseline_types") in drops

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        7,
        f"clustered verb p={tight.ks.p_value:.2e} with distinct medians, identical verb "
        f"D={same.ks.d_statistic} unstarred, thresholds enforced, in {elapsed:.2f}s",
    )


def test_criterion_8_full_corpus_reproduction(tmp_path):
    corpus_dir = os.environ.get("AGVALEX_AGDT_DIR")
    if not corpus_dir:
        pytest.skip(
            "optional: set AGVALEX_AGDT_DIR to a directory of source treebank XML "
            "(and AGVALEX_AGDT_MANIFEST to a filename/author/title TSV) to run"
        )
    manifest_path = os.environ.get("AGVALEX_AGDT_MANIFEST")
    # the command a user runs, so the corpus is read as extract reads it: the
    # directory's own *.xml files, each checked, excluded and reported alike
    output = tmp_path / "lexicon.tsv"
    argv = ["extract", corpus_dir, "-o", str(output)]
    if manifest_path:
        argv += ["--manifest", manifest_path]
    assert main(argv) == 0  # else stdout names the report of what failed
    lexicon = read_lexicon(output)
    basic = stats_basic(lexicon)

    def within(value, target, tolerance=0.01):
        return abs(value - target) <= tolerance * target

    assert within(basic["entries"], 72_067)
    assert within(basic["unique_verb_lemmas"], 5_077)
    assert within(basic["unique_frames"], 7_100)
    assert within(basic["unique_frame_fillers"], 43_631)
    top_frame, top_count = frame_frequencies(lexicon, top_k=1)[0]
    assert top_frame == "active_OBJ[accusative]"
    assert within(top_count, 12_563)
    if manifest_path:
        by_author = dict(stats_by_author(lexicon))
        assert within(by_author.get("Homer", 0), 30_574)
        homeric_genitives = query_entries(
            lexicon, verb="αἱρέω", author="Homer", realization="genitive"
        )
        assert abs(len(homeric_genitives) - 15) <= 1
    _report(8, "full-corpus statistics within ±1% of the published tables")


def test_criterion_9_substitution_note():
    # Numerical reproduction of the published comparison table needs the
    # original vector space and the print formulaic editions; neither ships
    # here.  Criteria 5-7 are the property-based substitutes, so this
    # criterion only asserts that those substitutes exist and run.
    for name in (
        "test_criterion_5_ks_oracle",
        "test_criterion_6_significance_stars",
        "test_criterion_7_synthetic_case_study",
    ):
        assert name in globals()
    _report(9, "desk-scale substitutes (criteria 5-7) stand in for the published table")
