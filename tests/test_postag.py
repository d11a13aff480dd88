import random

import pytest

from grcvalency.postag import FIELDS, PosTag, PostagError, decode_postag, encode_postag


def test_verb_tag_from_annotation_excerpt():
    tag = decode_postag("v3spie---")
    assert tag.pos == "verb"
    assert tag.person == "3"
    assert tag.number == "singular"
    assert tag.tense == "present"
    assert tag.mood == "indicative"
    assert tag.voice == "medio-passive"
    assert tag.gender == "unspecified"
    assert tag.case == "unspecified"
    assert tag.degree == "unspecified"


def test_noun_tag_from_annotation_excerpt():
    tag = decode_postag("n-s---nn-")
    assert (tag.pos, tag.number, tag.gender, tag.case) == (
        "noun",
        "singular",
        "neuter",
        "nominative",
    )
    assert tag.mood == "unspecified"


def test_pronoun_tag_from_annotation_excerpt():
    tag = decode_postag("p-s----d-")
    assert (tag.pos, tag.number, tag.case) == ("pronoun", "singular", "dative")


def test_fully_underspecified_tag():
    tag = decode_postag("---------")
    assert tag == PosTag()


def test_short_tags_are_right_padded():
    assert decode_postag("d-----") == decode_postag("d--------")
    assert decode_postag("u-----").pos == "punctuation"
    assert decode_postag("v") == PosTag(pos="verb")


def test_participle_candidates():
    assert decode_postag("v-sppamn-").is_participle
    assert decode_postag("t-sppamn-").is_participle
    assert not decode_postag("v3spia---").is_participle
    assert decode_postag("v--pna---").is_verbal
    assert not decode_postag("n-s---nn-").is_verbal


def test_roundtrip_is_identity_on_random_tags():
    rng = random.Random(7)
    letter_pools = [list(table) for _, table in FIELDS]
    for _ in range(2000):
        tag = "".join(rng.choice(pool) for pool in letter_pools)
        assert encode_postag(decode_postag(tag)) == tag


def test_roundtrip_from_values():
    rng = random.Random(8)
    value_pools = [list(table.values()) for _, table in FIELDS]
    for _ in range(500):
        tag = PosTag(*(rng.choice(pool) for pool in value_pools))
        assert decode_postag(encode_postag(tag)) == tag


@pytest.mark.parametrize(
    "bad,char,position",
    [
        ("z--------", "z", 1),
        ("x--------", "x", 1),
        ("v3spix---", "x", 6),
        ("n-s---nq-", "q", 8),
    ],
)
def test_unknown_letter_names_position_and_character(bad, char, position):
    with pytest.raises(PostagError) as info:
        decode_postag(bad)
    assert info.value.char == char
    assert info.value.position == position


@pytest.mark.parametrize("bad", ["", "----------"])
def test_bad_length(bad):
    with pytest.raises(PostagError):
        decode_postag(bad)


def test_encode_rejects_unknown_value():
    with pytest.raises(ValueError):
        encode_postag(PosTag(pos="gerund"))


def test_fuzzed_tags_decode_or_raise_postag_error():
    letters = sorted({letter for _, table in FIELDS for letter in table}) * 2 + list("xzQ9 \t-é")
    rng = random.Random(6160)
    decoded = 0
    for _ in range(5000):
        tag = "".join(rng.choice(letters) for _ in range(rng.randint(0, 11)))
        try:
            parsed = decode_postag(tag)
        except PostagError as exc:
            if 1 <= len(tag) <= 9:
                assert tag.ljust(9, "-")[exc.position - 1] == exc.char, tag
            continue
        decoded += 1
        assert encode_postag(parsed) == tag.ljust(9, "-")
    assert decoded > 100


def test_fuzzed_values_encode_or_raise_value_error():
    pools = [list(table.values()) for _, table in FIELDS]
    junk = ["", "gerund", "Noun", "nominative ", None, 3, "-", "v"]
    rng = random.Random(6161)
    encoded = 0
    for _ in range(3000):
        values = [rng.choice(pool) if rng.random() < 0.9 else rng.choice(junk) for pool in pools]
        try:
            tag = encode_postag(PosTag(*values))
        except ValueError:
            assert any(value not in pool for value, pool in zip(values, pools))
            continue
        encoded += 1
        assert len(tag) == 9
        assert decode_postag(tag) == PosTag(*values)
    assert 500 < encoded < 2500
