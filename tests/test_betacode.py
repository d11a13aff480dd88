import random
import unicodedata

import pytest

from grcvalency.betacode import BetaCodeError, beta_to_unicode

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


def test_misplaced_diacritic_errors():
    with pytest.raises(BetaCodeError):
        beta_to_unicode("/abg")
    with pytest.raises(BetaCodeError):
        beta_to_unicode("a *")
    with pytest.raises(BetaCodeError):
        beta_to_unicode("a*'")


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
