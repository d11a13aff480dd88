"""Nine-slot positional morphology codes of the analytical annotation layer.

Slot order: part of speech, person, number, tense, mood, voice, gender,
case, degree.  Tags shorter than nine characters are right-padded with
'-' (real files contain six-character tags on adverbs and punctuation).
The letter tables below follow the treebank annotation guidelines and are
the documented alphabet; any other letter is a decode error.
"""

from functools import lru_cache
from typing import NamedTuple

UNSPECIFIED = "unspecified"

_POS = {
    "-": UNSPECIFIED,
    "n": "noun",
    "v": "verb",
    "t": "participle",
    "a": "adjective",
    "d": "adverb",
    "l": "article",
    "g": "particle",
    "c": "conjunction",
    "r": "preposition",
    "p": "pronoun",
    "m": "numeral",
    "i": "interjection",
    "u": "punctuation",
    "e": "exclamation",
}

_PERSON = {"-": UNSPECIFIED, "1": "1", "2": "2", "3": "3"}

_NUMBER = {"-": UNSPECIFIED, "s": "singular", "d": "dual", "p": "plural"}

_TENSE = {
    "-": UNSPECIFIED,
    "p": "present",
    "i": "imperfect",
    "r": "perfect",
    "l": "pluperfect",
    "t": "future-perfect",
    "f": "future",
    "a": "aorist",
}

_MOOD = {
    "-": UNSPECIFIED,
    "i": "indicative",
    "s": "subjunctive",
    "o": "optative",
    "n": "infinitive",
    "m": "imperative",
    "p": "participle",
}

_VOICE = {
    "-": UNSPECIFIED,
    "a": "active",
    "p": "passive",
    "m": "middle",
    "e": "medio-passive",
}

_GENDER = {"-": UNSPECIFIED, "m": "masculine", "f": "feminine", "n": "neuter"}

_CASE = {
    "-": UNSPECIFIED,
    "n": "nominative",
    "g": "genitive",
    "d": "dative",
    "a": "accusative",
    "v": "vocative",
}

_DEGREE = {"-": UNSPECIFIED, "c": "comparative", "s": "superlative"}

FIELDS = (
    ("pos", _POS),
    ("person", _PERSON),
    ("number", _NUMBER),
    ("tense", _TENSE),
    ("mood", _MOOD),
    ("voice", _VOICE),
    ("gender", _GENDER),
    ("case", _CASE),
    ("degree", _DEGREE),
)

_ENCODE = {name: {value: letter for letter, value in table.items()} for name, table in FIELDS}


class PostagError(ValueError):
    """A morphology tag with an undocumented letter or a bad length."""

    def __init__(self, message, char, position):
        super().__init__(message, char, position)  # what pickle rebuilds it from
        self.char = char
        self.position = position

    def __str__(self):
        return f"{self.args[0]}: {self.char!r} at position {self.position}"


class PosTag(NamedTuple):
    pos: str = UNSPECIFIED
    person: str = UNSPECIFIED
    number: str = UNSPECIFIED
    tense: str = UNSPECIFIED
    mood: str = UNSPECIFIED
    voice: str = UNSPECIFIED
    gender: str = UNSPECIFIED
    case: str = UNSPECIFIED
    degree: str = UNSPECIFIED

    @property
    def is_verbal(self) -> bool:
        return self.pos in ("verb", "participle")

    @property
    def is_participle(self) -> bool:
        """Participle predicate candidate: verb tagged with participle mood,
        or the dedicated participle part of speech."""
        return self.pos == "participle" or (self.pos == "verb" and self.mood == "participle")

    @property
    def has_case(self) -> bool:
        return self.case != UNSPECIFIED


@lru_cache(maxsize=None)
def decode_postag(tag: str) -> PosTag:
    """Decode a 1-9 character positional tag, right-padding with '-'.

    Cached per process, so every occurrence of a tag shares one immutable
    :class:`PosTag`.  Errors are not cached.
    """
    if not 1 <= len(tag) <= 9:
        raise PostagError("tag must be 1-9 characters", tag, 0)
    padded = tag.ljust(9, "-")
    values = {}
    for index, (name, table) in enumerate(FIELDS):
        letter = padded[index]
        if letter not in table:
            raise PostagError(f"unknown {name} letter", letter, index + 1)
        values[name] = table[letter]
    return PosTag(**values)


def encode_postag(tag: PosTag) -> str:
    """Inverse of :func:`decode_postag`; always emits nine characters."""
    letters = []
    for name, _ in FIELDS:
        value = getattr(tag, name)
        table = _ENCODE[name]
        if value not in table:
            raise ValueError(f"unknown {name} value: {value!r}")
        letters.append(table[value])
    return "".join(letters)
