"""Beta Code to polytonic Greek transcoding for treebank lemmas and forms.

Covers the conventions used in analytical-layer treebank files: lowercase
letters, '*'-marked capitals (diacritics may precede the base letter),
breathings, the three accents, iota subscript, diaeresis, and the elision
apostrophe.  A string outside that grammar raises an error naming its
first fault, so garbage never turns into a silently corrupted lemma key.
"""

import re
import unicodedata

_LOWER = {
    "a": "α",  # alpha
    "b": "β",  # beta
    "g": "γ",  # gamma
    "d": "δ",  # delta
    "e": "ε",  # epsilon
    "v": "ϝ",  # digamma
    "z": "ζ",  # zeta
    "h": "η",  # eta
    "q": "θ",  # theta
    "i": "ι",  # iota
    "k": "κ",  # kappa
    "l": "λ",  # lambda
    "m": "μ",  # mu
    "n": "ν",  # nu
    "c": "ξ",  # xi
    "o": "ο",  # omicron
    "p": "π",  # pi
    "r": "ρ",  # rho
    "s": "σ",  # sigma (finalized later)
    "t": "τ",  # tau
    "u": "υ",  # upsilon
    "f": "φ",  # phi
    "x": "χ",  # chi
    "y": "ψ",  # psi
    "w": "ω",  # omega
}

_UPPER = {beta: greek.upper() for beta, greek in _LOWER.items()}
_UPPER["v"] = "Ϝ"  # capital digamma has no casing pair via str.upper

_MARKS = {
    ")": "̓",   # smooth breathing
    "(": "̔",   # rough breathing
    "/": "́",   # acute
    "\\": "̀",  # grave
    "=": "͂",   # circumflex
    "+": "̈",   # diaeresis
    "|": "ͅ",   # iota subscript
}

# Canonical in-cluster order (breathing, diaeresis, accent, subscript); NFC
# alone cannot reorder marks of equal combining class, so Beta Code cluster
# order must not leak into the output.
_MARK_RANK = {
    "̓": 0,
    "̔": 0,
    "̈": 1,
    "́": 2,
    "̀": 2,
    "͂": 2,
    "ͅ": 3,
}

#: Elision mark rendered as the typographic apostrophe.
APOSTROPHE = "’"

_FINAL_SIGMA = "ς"

# The grammar: a letter and its marks, a capital (a run of '*'s and held
# marks, then a letter and its marks), and the two separators, commonest
# first.  Each alternative is fixed by its first character, so a prefix
# match stops at a rejected string's first fault.
_LETTERS = "".join(_LOWER)
_MARK_CODES = re.escape("".join(_MARKS))
_WELL_FORMED = re.compile(
    rf"(?:[{_LETTERS}][{_MARK_CODES}]*"
    rf"|\*(?:[{_MARK_CODES}]*\*)*[{_MARK_CODES}]*[{_LETTERS}][{_MARK_CODES}]*|[' ])*"
)
# a capital is written as the ASCII capital, its held marks after it; a
# later '*' drops the marks an earlier one held
_CAPITAL = re.compile(rf"\*(?:[{_MARK_CODES}]*\*)*([{_MARK_CODES}]*)([{_LETTERS}])")
# the '*'s and held marks of a capital that never reaches its letter
_CAPITAL_RUN = re.compile(rf"(?:\*[{_MARK_CODES}]*)+")
# 'j' is no Beta Code letter, so it can stand for final sigma until the
# translation; a sigma is word-final before the end or a space, never
# before the apostrophe
_FINAL_SIGMA_CODE = "j"
_WORD_FINAL_SIGMA = re.compile(rf"s(?=[{_MARK_CODES}]*(?: |\Z))")
_CODE_RANK = {code: _MARK_RANK[mark] for code, mark in _MARKS.items()}
_MARK_RUN = re.compile(rf"[{_MARK_CODES}]{{2,}}")
# a mark directly after one of higher rank (breathings 0, diaeresis 1,
# accents 2, iota subscript 3)
_UNSORTED_MARKS = re.compile(r"[+/\\=|][)(]|[/\\=|]\+|\|[/\\=]")
_TRANSLATION = str.maketrans(
    {
        **_LOWER,
        **{beta.upper(): greek for beta, greek in _UPPER.items()},
        **_MARKS,
        "'": APOSTROPHE,
        _FINAL_SIGMA_CODE: _FINAL_SIGMA,
    }
)


def _capital_last(match) -> str:
    return match[2].upper() + match[1]


def _sorted_marks(match) -> str:
    return "".join(sorted(match[0], key=_CODE_RANK.__getitem__))


class BetaCodeError(ValueError):
    """A character that is not part of the documented Beta Code alphabet."""

    def __init__(self, message, char, offset):
        super().__init__(message, char, offset)  # what pickle rebuilds it from
        self.char = char
        self.offset = offset

    def __str__(self):
        return f"{self.args[0]}: {self.char!r} at offset {self.offset}"


def beta_to_unicode(beta: str) -> str:
    """Transcode a Beta Code string to NFC-normalized polytonic Greek.

    Word-final sigma becomes final sigma; sigma before the elision
    apostrophe stays medial (the elided vowel follows underlyingly).
    Diacritic order within a cluster does not affect the output.

    One cluster grammar accepts and rejects.  An accepted string is
    rewritten by C-level string calls: capitals first, then final sigma,
    then a sort of the marks only where two are out of order, then one
    translation table and NFC.  A rejected one raises the
    ``BetaCodeError`` that names its first fault.
    """
    if not _WELL_FORMED.fullmatch(beta):
        raise _first_fault(beta)
    text = _CAPITAL.sub(_capital_last, beta)
    text = _WORD_FINAL_SIGMA.sub(_FINAL_SIGMA_CODE, text)
    if _UNSORTED_MARKS.search(text):
        text = _MARK_RUN.sub(_sorted_marks, text)
    return unicodedata.normalize("NFC", text.translate(_TRANSLATION))


def _first_fault(beta: str) -> BetaCodeError:
    """The error naming the character where ``beta`` leaves the grammar."""
    end = _WELL_FORMED.match(beta).end()
    char = beta[end]
    if char in _MARKS:
        return BetaCodeError("diacritic with no letter to attach to", char, end)
    if char == "*":
        offset = beta.rindex("*", end, _CAPITAL_RUN.match(beta, end).end())
        return BetaCodeError("capital marker not followed by a letter", char, offset)
    return BetaCodeError("character outside the Beta Code alphabet", char, end)
