import hashlib
import random
import unicodedata
import xml.etree.ElementTree as ET

import pytest

from conftest import CORPUS_DIR
from grcvalency.betacode import (
    _FINAL_SIGMA,
    _LOWER,
    _MARK_RANK,
    _MARKS,
    _UPPER,
    APOSTROPHE,
    BetaCodeError,
    beta_to_unicode,
)
from grcvalency.treebank import normalize_lemma

# the annotated excerpt forms against the Greek of the quoted lines
EXCERPT_FORMS = [
    ("a)ll'", "ἀλλ’"),
    ("e)pei\\", "ἐπεὶ"),
    ("de/os", "δέος"),
    ("palaio\\n", "παλαιὸν"),
    ("soi\\", "σοὶ"),
    ("frenw=n", "φρενῶν"),
    ("a)nqi/statai", "ἀνθίσταται"),
]


@pytest.mark.parametrize("beta,expected", EXCERPT_FORMS)
def test_excerpt_forms(beta, expected):
    assert beta_to_unicode(beta) == unicodedata.normalize("NFC", expected)


@pytest.mark.parametrize(
    "beta,expected",
    [
        ("de/os", "δέος"),
        ("a)nqi/sthmi", "ἀνθίστημι"),
        ("frenw=n", "φρενῶν"),
        ("*(/ektwr", "Ἕκτωρ"),
        ("a)lla/", "ἀλλά"),
        ("e)pei/", "ἐπεί"),
        ("su/", "σύ"),
        ("qala/ssh|", "θαλάσσῃ"),
        ("w(=|", "ᾧ"),
        ("proi+/sthmi", "προΐστημι"),
        ("*zeu/s", "Ζεύς"),
        ("*)odusseu/s", "Ὀδυσσεύς"),
        ("va/nac", "ϝάναξ"),
        ("r(e/w", "ῥέω"),
        # a later '*' drops the marks an earlier one held
        ("**a", "Α"),
        ("*)*a", "Α"),
    ],
)
def test_common_words(beta, expected):
    assert beta_to_unicode(beta) == unicodedata.normalize("NFC", expected)


def test_empty_string():
    assert beta_to_unicode("") == ""


def test_final_sigma():
    assert beta_to_unicode("s") == "ς"
    assert beta_to_unicode("sofo/s") == "σοφός"
    assert beta_to_unicode("lo/gos te") == "λόγος τε"


def test_sigma_before_elision_stays_medial():
    assert beta_to_unicode("lh/cas'") == "λήξασ’"


def test_diacritic_order_within_cluster_is_irrelevant():
    assert beta_to_unicode("a)/llos") == beta_to_unicode("a/)llos")
    assert beta_to_unicode("w(=|") == beta_to_unicode("w|=(")
    assert beta_to_unicode("*(/ektwr") == beta_to_unicode("*/(ektwr")


def test_output_is_nfc_and_deterministic():
    rng = random.Random(20240917)
    alphabet = "abgdezhqiklmncoprstufxyw" + ")(/\\=+|*' "
    for _ in range(300):
        candidate = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        try:
            once = beta_to_unicode(candidate)
        except BetaCodeError:
            continue
        assert once == unicodedata.normalize("NFC", once)
        assert once == beta_to_unicode(candidate)


@pytest.mark.parametrize(
    "bad,char",
    [
        ("de?os", "?"),
        ("X", "X"),
        ("abc3", "3"),
        ("a[b", "["),
    ],
)
def test_unknown_character_errors(bad, char):
    with pytest.raises(BetaCodeError) as info:
        beta_to_unicode(bad)
    assert info.value.char == char
    assert repr(char) in str(info.value)


NO_LETTER = "diacritic with no letter to attach to"
NO_CAPITAL = "capital marker not followed by a letter"


@pytest.mark.parametrize(
    "bad,message,char,offset",
    [
        ("/abg", NO_LETTER, "/", 0),
        ("a *", NO_CAPITAL, "*", 2),
        ("a*'", NO_CAPITAL, "*", 1),
        ("*)*1", NO_CAPITAL, "*", 2),
        ("**", NO_CAPITAL, "*", 1),
        ("a /b", NO_LETTER, "/", 2),
        ("*(/*", NO_CAPITAL, "*", 3),
    ],
)
def test_misplaced_diacritic_errors(bad, message, char, offset):
    with pytest.raises(BetaCodeError) as info:
        beta_to_unicode(bad)
    assert info.value.args == (message, char, offset)


def test_error_carries_offset():
    with pytest.raises(BetaCodeError) as info:
        beta_to_unicode("abg#")
    assert info.value.offset == 3


def test_fuzzed_input_transcodes_or_raises_beta_code_error():
    # mostly the alphabet, so many strings transcode; the rest is ASCII
    # punctuation, digits, uppercase, controls and non-ASCII characters
    alphabet = "abgdevzhqiklmncoprstufxyw)(/\\=+|*' " * 3 + "AZ09#[],{}\t\n\x00é΄ά﻿"
    rng = random.Random(5150)
    transcoded = 0
    for _ in range(5000):
        beta = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        try:
            greek = beta_to_unicode(beta)
        except BetaCodeError as exc:
            assert beta[exc.offset] == exc.char, beta
            continue
        transcoded += 1
        assert greek == unicodedata.normalize("NFC", greek)
        assert not any(char.isascii() and char != " " for char in greek), beta
    assert 500 < transcoded < 4500


_MEDIAL_SIGMA = "σ"
_LETTER = "letter"
_SEPARATOR = "sep"


def _transcode_by_cluster(beta: str) -> str:
    """The character-by-character transcoder, the oracle for the grammar:
    it names the first fault of a string outside the alphabet, and a
    second ``*`` drops the marks held by the first."""
    clusters = []  # (_LETTER, base, [marks]) or (_SEPARATOR, text, None)
    capitalize = False
    cap_offset = 0
    held_marks = []

    for offset, char in enumerate(beta):
        if char == "*":
            capitalize = True
            cap_offset = offset
            held_marks = []
            continue
        if char in _MARKS:
            mark = _MARKS[char]
            if capitalize:
                held_marks.append(mark)
            elif clusters and clusters[-1][0] == _LETTER:
                clusters[-1][2].append(mark)
            else:
                raise BetaCodeError("diacritic with no letter to attach to", char, offset)
            continue
        if char in _LOWER:
            base = _UPPER[char] if capitalize else _LOWER[char]
            clusters.append((_LETTER, base, list(held_marks)))
            capitalize = False
            held_marks = []
            continue
        if capitalize:
            raise BetaCodeError("capital marker not followed by a letter", "*", cap_offset)
        if char == "'":
            clusters.append((_SEPARATOR, APOSTROPHE, None))
            continue
        if char == " ":
            clusters.append((_SEPARATOR, " ", None))
            continue
        raise BetaCodeError("character outside the Beta Code alphabet", char, offset)

    if capitalize:
        raise BetaCodeError("capital marker not followed by a letter", "*", cap_offset)

    out = []
    for index, (kind, text, marks) in enumerate(clusters):
        if kind == _SEPARATOR:
            out.append(text)
            continue
        base = text
        if base == _MEDIAL_SIGMA:
            following = clusters[index + 1] if index + 1 < len(clusters) else None
            word_ends = following is None or (
                following[0] == _SEPARATOR and following[1] != APOSTROPHE
            )
            if word_ends:
                base = _FINAL_SIGMA
        out.append(base)
        out.extend(sorted(marks, key=_MARK_RANK.__getitem__))
    return unicodedata.normalize("NFC", "".join(out))


def _outcome(transcode, beta):
    try:
        return transcode(beta)
    except BetaCodeError as exc:
        return (str(exc), exc.char, exc.offset)


def test_string_calls_agree_with_the_character_loop():
    # the alphabet, weighted up, then '*' runs and marks held across a
    # second '*', the separators, digits, uppercase ASCII and non-ASCII
    pieces = (
        list("abgdevzhqiklmncoprstufxyw)(/\\=+|") * 4
        + ["*", "*", "**", "*)*", "*(/*", "'", "'", " ", " ", "s ", "s'"]
        + list("0123456789AQSZjé΄άα")
    )
    rng = random.Random(20261019)
    seen = {"transcoded": 0, "raised": 0, "doubled capital": 0}
    for _ in range(100_000):
        beta = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 9)))
        fast = _outcome(beta_to_unicode, beta)
        assert fast == _outcome(_transcode_by_cluster, beta), beta
        if isinstance(fast, tuple):
            seen["raised"] += 1
            continue
        seen["transcoded"] += 1
        if "**" in beta or "*)*" in beta or "*(/*" in beta:
            seen["doubled capital"] += 1
    assert all(count > 1000 for count in seen.values()), seen


def test_normalize_lemma_keeps_every_corpus_lemma():
    raws = sorted(
        {
            word.get("lemma")
            for path in sorted(CORPUS_DIR.glob("*.xml"))
            for word in ET.parse(path).iter("word")
        }
    )
    lines = [f"{raw}\t{normalize_lemma(raw)}" for raw in raws]
    assert lines[:3] == ["a)/gw1\tἄγω", "a)kou/w1\tἀκούω", "a)lla/1\tἀλλά"]
    # the (raw, lemma) lines as the character loop wrote them
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert (len(lines), digest) == (
        49,
        "cf8b3b904600b40bcb62da2fb100d4dba7319af15e628689625f2956da1c4b90",
    )
