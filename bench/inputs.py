"""Seeded, AGDT-shaped inputs for the benchmark workloads.

Every file written here is a pure function of the seed and the sizes, so
one seed always writes byte-identical inputs.  Each builder also returns
what the program must make of its inputs.  Those expectations are known
by construction: the generator records every argument slot, exclusion,
skipped word and planted verdict as it writes them, and never imports
grcvalency.
"""

import bisect
import json
import random
import unicodedata
from pathlib import Path

from checks import scan_signature, split_rows

# -- Beta Code --------------------------------------------------------------

_LETTERS = dict(zip("abgdezhqiklmncoprstufxyw", "αβγδεζηθικλμνξοπρστυφχψω"))
_MARKS = {
    ")": "̓",
    "(": "̔",
    "/": "́",
    "\\": "̀",
    "=": "͂",
    "+": "̈",
    "|": "ͅ",
}
# breathing, diaeresis, accent, iota subscript: the order NFC cannot restore
_MARK_RANK = {")": 0, "(": 0, "+": 1, "/": 2, "\\": 2, "=": 2, "|": 3}


def unicode_lemma(raw: str) -> str:
    """The NFC lemma a treebank lemma attribute must normalise to.

    Covers the Beta Code this module writes: an optional ``*`` capital
    whose marks precede the letter, lowercase letters with their marks
    after them, and trailing sense digits.  Greek input is only
    NFC-normalised.
    """
    raw = raw.rstrip("0123456789")
    if not any(ch.isascii() and ch.isalpha() for ch in raw):
        return unicodedata.normalize("NFC", raw)
    clusters = []
    capital = False
    held = []
    for ch in raw:
        if ch == "*":
            capital = True
        elif ch in _MARKS:
            (held if capital else clusters[-1][1]).append(ch)
        else:
            base = _LETTERS[ch]
            clusters.append([base.upper() if capital else base, held if capital else []])
            capital = False
            held = []
    if clusters and clusters[-1][0] == "σ":
        clusters[-1][0] = "ς"
    text = "".join(
        base + "".join(_MARKS[m] for m in sorted(marks, key=_MARK_RANK.__getitem__))
        for base, marks in clusters
    )
    return unicodedata.normalize("NFC", text)


_ONSETS = ("b", "g", "d", "k", "l", "m", "n", "p", "r", "s", "t", "f", "x", "q", "z",
           "st", "tr", "pr", "kr", "gr", "pl", "sk", "c", "y")
_NUCLEI = ("a", "e", "h", "i", "o", "u", "w", "ai", "ei", "oi", "ou", "au", "eu")
_LONG = ("h", "w", "ai", "ei", "oi", "ou", "au", "eu")
_ENDINGS = {
    "verb": ((("", "w", ""), 85), (("m", "ai", ""), 10), (("m", "i", ""), 5)),
    "noun": ((("", "o", "s"), 40), (("", "h", ""), 25), (("", "a", ""), 15),
             (("", "o", "n"), 12), (("", "h", "r"), 8)),
    "adj": ((("", "o", "s"), 100),),
}


class _Lemmas:
    """Fresh Beta Code lemmas; no lemma is handed out twice.

    Uniqueness is kept on the normalised Unicode form: Beta Code that only
    orders its marks differently (``a)/os``, ``a/)os``) is one lemma.
    """

    def __init__(self, rng):
        self.rng = rng
        self.used = set()

    def make(self, kind: str) -> str:
        rng = self.rng
        endings = _ENDINGS[kind]
        while True:
            syllables = []
            for index in range(rng.choice((1, 2, 2, 3))):
                onset = rng.choice(_ONSETS) if index or rng.random() < 0.75 else ""
                syllables.append([onset, rng.choice(_NUCLEI), ""])
            ending = rng.choices([e for e, _ in endings], [w for _, w in endings])[0]
            if kind == "verb" and ending[1] == "ai":  # -omai
                syllables.append(["", "o", ""])
            syllables.append(list(ending))
            accent_at = max(0, len(syllables) - rng.choice((1, 2, 2, 3)))
            parts = []
            # a few proper names: '*' capital, its marks before the letter
            capital = kind == "noun" and rng.random() < 0.04 and len(syllables[0][1]) == 1
            for index, (onset, nucleus, coda) in enumerate(syllables):
                marks = ""
                if index == 0 and not onset:
                    marks += "(" if rng.random() < 0.3 else ")"
                if index == accent_at:
                    marks += "=" if nucleus in _LONG and rng.random() < 0.3 else "/"
                if len(marks) == 2 and rng.random() < 0.05:
                    marks = marks[::-1]  # the program must not depend on mark order
                if index == 0 and capital:
                    parts.append("*" + (onset + nucleus + marks if onset else marks + nucleus) + coda)
                else:
                    parts.append(onset + nucleus + marks + coda)
            beta = "".join(parts)
            lemma = unicode_lemma(beta)
            if lemma not in self.used and len(beta) > 2:
                self.used.add(lemma)
                return beta


class _Zipf:
    """Draws from a fixed population with rank-frequency weight 1/rank**s."""

    def __init__(self, rng, population, s=1.05):
        self.rng = rng
        self.population = list(population)
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(self.population) + 1):
            total += rank ** -s
            self.cumulative.append(total)

    def draw(self):
        point = self.rng.random() * self.cumulative[-1]
        return self.population[bisect.bisect_right(self.cumulative, point)]


# -- morphology tags --------------------------------------------------------

_CASES = {"n": "nominative", "g": "genitive", "d": "dative", "a": "accusative",
          "v": "vocative"}
_MOODS = {"i": "indicative", "s": "subjunctive", "o": "optative", "n": "infinitive",
          "m": "imperative", "p": "participle"}
_VOICES = {"a": "active", "p": "passive", "m": "middle", "e": "medio-passive"}


def _weighted(rng, table):
    return rng.choices(list(table), list(table.values()))[0]


def realization(tag: str) -> str:
    """How an argument with this tag is realised in a frame."""
    tag = tag.ljust(9, "-")
    if tag[7] != "-":
        return _CASES[tag[7]]
    if tag[0] == "t":
        return _MOODS.get(tag[4], "participle")
    if tag[0] == "v" and tag[4] != "-":
        return _MOODS[tag[4]]
    return "adverb"


def voice_name(tag: str) -> str:
    return _VOICES.get(tag.ljust(9, "-")[5], "unspecified")


# -- sentence trees ---------------------------------------------------------

_PREPOSITIONS = (("e)n", "d"), ("ei)s", "a"), ("e)k", "g"), ("a)po/", "g"),
                 ("pro/s", "a"), ("e)pi/", "d"), ("u(po/", "g"), ("para/", "d"),
                 ("dia/", "a"), ("kata/", "a"), ("meta/", "g"), ("peri/", "g"))
_SUBORDINATORS = ("o(/ti", "w(s", "i(/na", "ei)", "o(/pws")
_PARTICLES = ("de/", "ga/r", "me/n", "te", "ou)", "a)/n", "dh/")
_ADVERBS = ("nu=n", "pa/lin", "ou(/tws", "e)kei=", "a)ei/", "h)/dh", "ta/xa")


class Node:
    __slots__ = ("raw", "lemma", "tag", "rel", "children", "slots", "token_id", "bad")

    def __init__(self, raw, tag, lemma=None):
        self.raw = raw
        self.lemma = lemma if lemma is not None else unicode_lemma(raw)
        self.tag = tag
        self.rel = ""
        self.children = []
        self.slots = []  # (label, mediator lemma or None, argument node) on predicates
        self.token_id = 0
        self.bad = ""


class _Sentences:
    """AGDT-style clause builder that records each predicate's argument slots."""

    def __init__(self, rng, verbs, nouns, adjectives):
        self.rng = rng
        self.verbs = verbs
        self.nouns = nouns
        self.adjectives = adjectives
        self.epithets = []  # (noun, adjective) pairs of the sentence being built

    # word factories

    def _word(self, raw, tag):
        if self.rng.random() < 0.15 and raw[0] != "*":
            # a Greek lemma in NFD, as some treebank releases ship them
            lemma = unicode_lemma(raw)
            return Node(unicodedata.normalize("NFD", lemma) + self._digit(), tag, lemma)
        return Node(raw + self._digit(), tag)

    def _digit(self):
        return self.rng.choice(("1", "2")) if self.rng.random() < 0.4 else ""

    def _number(self):
        return _weighted(self.rng, {"s": 70, "p": 28, "d": 2})

    def _gender(self):
        return _weighted(self.rng, {"m": 50, "f": 30, "n": 20})

    def noun(self, case):
        rng = self.rng
        if rng.random() < 0.1:
            return self._word(rng.choice(("au)to/s", "e)gw/", "su/", "ou(=tos")),
                              f"p-{self._number()}---{self._gender()}{case}-")
        return self._word(self.nouns.draw(), f"n-{self._number()}---{self._gender()}{case}-")

    def noun_phrase(self, case, depth):
        rng = self.rng
        head = self.noun(case)
        if head.tag[0] == "n":
            if rng.random() < 0.45:
                self.attach(head, Node("o(", f"l-{head.tag[2]}---{head.tag[6]}{case}-"), "ATR")
            if rng.random() < 0.3:
                adjective = self._word(self.adjectives.draw(),
                                       f"a-{head.tag[2]}---{head.tag[6]}{case}-")
                self.attach(head, adjective, "ATR")
                self.epithets.append((head, adjective))
            if depth < 2 and rng.random() < 0.12:
                self.attach(head, self.noun_phrase("g", depth + 1), "ATR")
            if depth < 2 and rng.random() < 0.06:
                participle = self.clause("participle", depth + 1, case=case)
                self.attach(head, participle, "ATR")
        return head

    def verb(self, form, case="-"):
        rng = self.rng
        voice = _weighted(rng, {"a": 62, "m": 14, "p": 9, "e": 15})
        tense = _weighted(rng, {"p": 30, "a": 35, "i": 15, "f": 8, "r": 8, "l": 4})
        if form == "finite":
            mood = _weighted(rng, {"i": 75, "s": 10, "o": 7, "m": 8})
            tag = f"v{_weighted(rng, {'3': 70, '1': 15, '2': 15})}{self._number()}{tense}{mood}{voice}---"
        elif form == "infinitive":
            tag = f"v--{tense}n{voice}---"
        else:
            pos = "t" if rng.random() < 0.1 else "v"
            tag = f"{pos}-{self._number()}{tense}p{voice}{self._gender()}{case}-"
        return self._word(self.verbs.draw(), tag)

    # structure

    @staticmethod
    def attach(parent, child, rel):
        child.rel = rel
        parent.children.append(child)
        return child

    def argument(self, predicate, holder, node, base, mediator=None, coord=False, apos=False):
        """Attach ``node`` under ``holder`` as an argument slot of ``predicate``."""
        rel = base + ("_CO" if coord else "") + ("_AP" if apos else "")
        self.attach(holder, node, rel)
        predicate.slots.append((rel, mediator, node))

    def clause(self, form, depth, case="-"):
        rng = self.rng
        verb = self.verb(form, case)
        if form == "finite" and rng.random() < 0.75:
            self.argument(verb, verb, self.noun_phrase("n", depth), "SBJ")
        elif form == "finite" and rng.random() < 0.2:
            coordinator = self.attach(verb, Node("kai/", "c--------"), "COORD")
            for _ in range(2):
                self.argument(verb, coordinator, self.noun_phrase("n", depth), "SBJ", coord=True)
        roll = rng.random()
        if roll < 0.34:
            self.argument(verb, verb, self.noun_phrase("a", depth), "OBJ")
        elif roll < 0.43:
            self.argument(verb, verb, self.noun_phrase("d", depth), "OBJ")
        elif roll < 0.49:
            self.argument(verb, verb, self.noun_phrase("g", depth), "OBJ")
        elif roll < 0.58:
            raw, case_letter = rng.choice(_PREPOSITIONS)
            preposition = self.attach(verb, Node(raw, "r--------"), "AuxP")
            if rng.random() < 0.25:
                coordinator = self.attach(preposition, Node("kai/", "c--------"), "COORD")
                for _ in range(2):
                    self.argument(verb, coordinator, self.noun_phrase(case_letter, depth),
                                   "OBJ", preposition.lemma, coord=True)
            else:
                self.argument(verb, preposition, self.noun_phrase(case_letter, depth),
                               "OBJ", preposition.lemma)
        elif roll < 0.64:
            coordinator = self.attach(verb, Node("kai/", "c--------"), "COORD")
            for _ in range(rng.choice((2, 2, 3))):
                self.argument(verb, coordinator, self.noun_phrase("a", depth), "OBJ", coord=True)
            if rng.random() < 0.5:
                self.attach(coordinator, Node("comma1", "u--------"), "AuxX")
        elif roll < 0.67:
            apposition = self.attach(verb, Node("comma1", "u--------"), "APOS")
            for _ in range(2):
                self.argument(verb, apposition, self.noun_phrase("a", depth), "OBJ", apos=True)
        elif roll < 0.73 and depth < 2:
            self.argument(verb, verb, self.clause("infinitive", depth + 1), "OBJ")
        elif roll < 0.77 and depth < 2:
            subordinator = self.attach(verb, Node(rng.choice(_SUBORDINATORS), "c--------"), "AuxC")
            self.argument(verb, subordinator, self.clause("finite", depth + 1), "OBJ",
                           subordinator.lemma)
        elif roll < 0.80:
            self.argument(verb, verb, self._word(self.adjectives.draw(),
                                                  f"a-s---{self._gender()}n-"), "PNOM")
        elif roll < 0.82:
            self.argument(verb, verb, self.noun_phrase("a", depth), "OCOMP")
        # adjuncts: never arguments, and they end the search on their branch
        if rng.random() < 0.3:
            self.attach(verb, Node(rng.choice(_ADVERBS), rng.choice(("d--------", "d-----"))), "ADV")
        if rng.random() < 0.25:
            raw, case_letter = rng.choice(_PREPOSITIONS)
            preposition = self.attach(verb, Node(raw, "r--------"), "AuxP")
            self.attach(preposition, self.noun_phrase(case_letter, depth), "ADV")
        if rng.random() < 0.3:
            self.attach(verb, Node(rng.choice(_PARTICLES), "g--------"), "AuxY")
        if depth < 2 and rng.random() < 0.05:
            subordinator = self.attach(verb, Node(rng.choice(_SUBORDINATORS), "c--------"), "AuxC")
            self.attach(subordinator, self.clause("finite", depth + 1), "ADV")
        return verb

    def sentence(self, root=None):
        """Surface-ordered nodes of one sentence, ids and heads assigned."""
        if root is None:
            self.epithets = []
            root = self.clause("finite", 0)
        root.rel = "PRED"
        order = []
        self._linearize(root, order)
        final = Node("punc1", "u--------")
        final.rel = "AuxK"
        order.append(final)
        heads = {}
        for position, node in enumerate(order, start=1):
            node.token_id = position
        self._heads(root, 0, heads)
        heads[final] = 0
        return order, heads

    def _linearize(self, node, out):
        split = self.rng.randint(0, len(node.children))
        for child in node.children[:split]:
            self._linearize(child, out)
        out.append(node)
        for child in node.children[split:]:
            self._linearize(child, out)

    def _heads(self, node, head, heads):
        heads[node] = head
        for child in node.children:
            self._heads(child, node.token_id, heads)


def expected_rows(author, title, subdoc, sentence_id, order):
    """Lexicon rows the extractor must emit for one valid sentence."""
    positions = {node: index for index, node in enumerate(order)}
    rows = []
    for node in order:
        if node.tag[0] not in "vt" or not node.slots:
            continue
        slots = sorted(node.slots, key=lambda slot: (slot[0], positions[slot[2]]))
        elements = []
        fillers = []
        for label, mediator, argument in slots:
            element = (f"({mediator})" if mediator else "") + f"{label}[{realization(argument.tag)}]"
            elements.append(element)
            fillers.append(element + "{" + argument.lemma + "}")
        voice = voice_name(node.tag)
        rows.append((author, title, subdoc, node.lemma, voice, sentence_id, node.token_id,
                     voice + "_" + ",".join(elements), voice + "_" + ",".join(fillers)))
    return rows


def _escape(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")


def _word_xml(node, head):
    attributes = {"id": str(node.token_id), "form": node.raw.rstrip("0123456789"),
                  "lemma": node.raw, "postag": node.tag, "head": str(head),
                  "relation": node.rel}
    if node.bad == "missing_lemma":
        del attributes["lemma"]
    elif node.bad == "bad_postag":
        attributes["postag"] = "x" + node.tag[1:]
    elif node.bad == "bad_betacode":
        attributes["lemma"] = node.raw[:2] + "#" + node.raw[2:]
    body = " ".join(f'{key}="{_escape(value)}"' for key, value in attributes.items())
    return f"    <word {body}/>"


def _treebank_xml(meta, sentences):
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<treebank version="1.5" xml:lang="grc" format="aldt" direction="ltr">']
    if meta:
        lines.append(f"  <author>{_escape(meta[0])}</author>")
        lines.append(f"  <title>{_escape(meta[1])}</title>")
    for sentence_id, subdoc, words in sentences:
        lines.append(f'  <sentence id="{sentence_id}" document_id="urn:cts:greekLit" '
                     f'subdoc="{subdoc}">')
        lines.extend(words)
        lines.append("  </sentence>")
    lines.append("</treebank>")
    return "\n".join(lines) + "\n"


def _tsv(rows):
    header = "author\ttitle\tsubdoc\tverb\tvoice\tsentence_id\troot_id\tframe\tframe_fillers"
    return "\n".join([header] + ["\t".join(str(v) for v in row) for row in rows]) + "\n"


def _sort_rows(rows):
    return sorted(rows, key=lambda r: (r[0], r[1], r[3], r[5], r[6]))


def _vocabulary(rng, verbs, nouns, adjectives):
    lemmas = _Lemmas(rng)
    return (lemmas,
            _Zipf(rng, [lemmas.make("verb") for _ in range(verbs)]),
            _Zipf(rng, [lemmas.make("noun") for _ in range(nouns)]),
            _Zipf(rng, [lemmas.make("adj") for _ in range(adjectives)]))


# -- extract-corpus ---------------------------------------------------------

WORKS = (("Homer", "Iliad"), ("Homer", "Odyssey"), ("Hesiod", "Theogony"),
         ("Aeschylus", "Persians"), ("Sophocles", "Ajax"), ("Herodotus", "Histories"),
         ("Thucydides", "History"), ("Plato", "Apology"), ("Polybius", "Histories"),
         ("Athenaeus", "Deipnosophistae"), ("Aesop", "Fables"), ("Plutarch", "Lives"))

EXTRACT_SIZE = {"files": 10, "sentences": 2400}
_CORRUPTIONS = ("dangling", "cycle", "duplicate")
_BAD_WORDS = ("missing_lemma", "bad_postag", "bad_betacode")


def _corrupt(rng, kind, order, heads):
    """Break one valid sentence; returns the report detail it must produce,
    or None when the sentence has no word to break.

    Skipped words are left alone: once the parser drops them, a fault
    planted on them would vanish with them.
    """
    usable = [n for n in order if not n.bad]
    leaves = [n for n in usable if not n.children and heads[n] != 0]
    if kind == "cycle":
        parent_of = {child: parent for parent in usable for child in parent.children}
        candidates = [n for n in leaves if heads.get(parent_of.get(n), 0) != 0]
        if candidates:
            leaf = rng.choice(candidates)
            heads[parent_of[leaf]] = leaf.token_id
            return "lies on a head cycle"
    if kind == "duplicate":
        candidates = [n for n in leaves if usable.index(n) > 0]
        if candidates:
            # an earlier twin keeps the id lookup pointing at the real node
            leaf = rng.choice(candidates)
            leaf.token_id = rng.choice(usable[: usable.index(leaf)]).token_id
            return "duplicate token_id"
    if not leaves:
        return None  # a bare predicate has nothing to break
    heads[rng.choice(leaves)] = len(order) + 5 + rng.randrange(20)
    return "dangling head"


def build_extract(seed, directory, files=None, sentences=None):
    """Treebank directory plus manifest sidecar; returns the expectations."""
    rng = random.Random(f"extract-corpus/{seed}")
    files = files or EXTRACT_SIZE["files"]
    sentences = sentences or EXTRACT_SIZE["sentences"]
    _, verbs, nouns, adjectives = _vocabulary(rng, 700, 2500, 600)
    builder = _Sentences(rng, verbs, nouns, adjectives)
    directory = Path(directory)
    treebank = directory / "treebank"
    treebank.mkdir(parents=True)
    # AGDT works differ a lot in size: give file i a 1/(i+2) share
    shares = [1 / (i + 2) for i in range(files)]
    counts = [max(3, int(sentences * s / sum(shares))) for s in shares]
    counts[0] += sentences - sum(counts)
    rows, excluded, skipped, manifest_lines = [], [], [], []
    words = 0
    for index in range(files):
        author, title = WORKS[index % len(WORKS)]
        if index >= len(WORKS):
            title += f" {index // len(WORKS) + 1}"
        name = f"tlg{index:04d}.xml"
        inline = index % 2 == 0
        if not inline:
            manifest_lines.append(f"{name}\t{author}\t{title}")
        xml_sentences = []
        for number in range(counts[index]):
            sentence_id = (index + 1) * 100000 + number + 1
            subdoc = f"{number // 40 + 1}.{number % 40 + 1}"
            root = None
            bad = rng.random() < 0.012
            if bad:
                root = builder.clause("finite", 0)
                leaf = Node(rng.choice(_ADVERBS), "d--------")
                leaf.bad = _BAD_WORDS[number % len(_BAD_WORDS)]
                builder.attach(root, leaf, "ADV")
            order, heads = builder.sentence(root)
            if bad:
                skipped.append((name, sentence_id))
            reason = None
            if rng.random() < 0.015:
                reason = _corrupt(rng, _CORRUPTIONS[len(excluded) % 3], order, heads)
            if reason:
                excluded.append((name, sentence_id, reason))
            else:
                rows += expected_rows(author, title, subdoc, sentence_id,
                                      [n for n in order if not n.bad])
            words += len(order)
            xml_sentences.append((sentence_id, subdoc,
                                  [_word_xml(n, heads[n]) for n in order]))
        text = _treebank_xml((author, title) if inline else None, xml_sentences)
        (treebank / name).write_text(text, encoding="utf-8")
    (directory / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return {
        "words": words,
        "lexicon": _tsv(_sort_rows(rows)),
        "entries": len(rows),
        "excluded": sorted(excluded),
        "skipped": sorted(skipped),
        "files": sorted(p.name for p in treebank.glob("*.xml")),
    }


# -- lexicon-queries --------------------------------------------------------

QUERY_SIZE = {"entries": 4000, "mix": 1000}

_ELEMENTS = (("SBJ[nominative]", 30), ("OBJ[accusative]", 28), ("OBJ[dative]", 9),
             ("OBJ[genitive]", 6), ("OBJ[infinitive]", 6), ("PNOM[nominative]", 4),
             ("OBJ_CO[accusative]", 3), ("SBJ_CO[nominative]", 2), ("OCOMP[accusative]", 2),
             ("OBJ_AP[accusative]", 1), ("(εἰς)OBJ[accusative]", 3), ("(ἐν)OBJ[dative]", 3),
             ("(ἐκ)OBJ[genitive]", 2), ("(πρός)OBJ[accusative]", 2), ("(ὅτι)OBJ[indicative]", 2),
             ("(ὡς)OBJ[indicative]", 1), ("(ἵνα)OBJ[subjunctive]", 1))
_MEDIATORS = ("εἰς", "ἐν", "ἐκ", "πρός", "ὅτι", "ὡς", "ἵνα", "παρά")
_REALIZATIONS = ("accusative", "dative", "genitive", "infinitive", "indicative", "subjunctive",
                 "nominative", "optative")
_FRAME_PARTS = ("OBJ[dative]", "(εἰς)", "PNOM", "OBJ_CO", "SBJ[nominative],", "[infinitive]",
                "OCOMP", "active_OBJ", "middle_", "(ὅτι)OBJ")


def _label(element):
    return element[element.index(")") + 1:] if element.startswith("(") else element


def _frame_inventory(rng, size):
    """Distinct element lists, canonically ordered by label as the extractor does."""
    names = [e for e, _ in _ELEMENTS]
    weights = [w for _, w in _ELEMENTS]
    frames = []
    seen = set()
    while len(frames) < size:
        count = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
        elements = tuple(sorted(rng.choices(names, weights, k=count), key=_label))
        if elements not in seen:
            seen.add(elements)
            frames.append(elements)
    return frames


def _lexicon_rows(rng, entries, verbs, nouns, works, frames):
    voices = {"active": 60, "middle": 14, "passive": 10, "medio-passive": 16}
    rows = []
    for number in range(entries):
        author, title = works.draw()
        voice = _weighted(rng, voices)
        elements = frames.draw()
        fillers = ",".join(e + "{" + nouns.draw() + "}" for e in elements)
        rows.append((author, title, f"{number % 24 + 1}.{number % 700 + 1}", verbs.draw(), voice,
                     rng.randrange(1, 10 ** 7), rng.randrange(1, 40),
                     voice + "_" + ",".join(elements), voice + "_" + fillers))
    return rows


def _unicode_vocabulary(rng, verbs, nouns, lemmas=None):
    lemmas = lemmas or _Lemmas(rng)
    return (_Zipf(rng, [unicode_lemma(lemmas.make("verb")) for _ in range(verbs)]),
            _Zipf(rng, [unicode_lemma(lemmas.make("noun")) for _ in range(nouns)]))


def _authors(rng, count):
    works = [(a, t) for a, t in WORKS]
    names = ("Lysias", "Demosthenes", "Xenophon", "Euripides", "Aristophanes", "Pindar",
             "Isocrates", "Aeschines", "Strabo", "Lucian", "Appian", "Diodorus", "Arrian",
             "Pausanias", "Galen", "Longus", "Theocritus", "Callimachus", "Apollonius")
    for index in range(count - len(works)):
        works.append((names[index % len(names)], f"Work {index // len(names) + 1}"))
    rng.shuffle(works)
    return _Zipf(rng, works, s=0.8)


def build_queries(seed, directory, entries=None, mix=None):
    """Lexicon TSV plus a seeded query mix; expected results by plain scan."""
    rng = random.Random(f"lexicon-queries/{seed}")
    entries = entries or QUERY_SIZE["entries"]
    mix = mix or QUERY_SIZE["mix"]
    verbs, nouns = _unicode_vocabulary(rng, 900, 3000)
    works = _authors(rng, 48)
    frames = _Zipf(rng, _frame_inventory(rng, 300), s=1.1)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    text = _tsv(_sort_rows(_lexicon_rows(rng, entries, verbs, nouns, works, frames)))
    lexicon = directory / "lexicon.tsv"
    lexicon.write_text(text, encoding="utf-8")

    rows = split_rows(text)
    attested = {}
    for row in rows:
        attested.setdefault(row[3], set()).add(row[7])
    voices = ("active", "middle", "passive", "medio-passive")
    # fixed share per kind, so every mix holds the same work: the indexed
    # lookups fill the lowest 40%, the verb scans (the cheapest full scans)
    # the next 25%, so the median sits inside them, and the frame-parsing
    # scans fill the top percent
    plan = {"constructions_for_verb": 30, "diff_constructions": 10, "verb": 25,
            "author_voice": 10, "frame_contains": 10, "realization": 6, "mediator": 6,
            "stats_basic": 1, "stats_by_author": 1, "frame_frequencies": 1}
    kinds = [kind for kind, share in plan.items() for _ in range(mix * share // 100)]
    kinds += ["constructions_for_verb"] * (mix - len(kinds))
    rng.shuffle(kinds)

    def balanced(kind, values):
        """Each value equally often: their scans differ in cost severalfold,
        so free draws would change a mix's cost and its p99 with the seed."""
        picks = [values[i % len(values)] for i in range(kinds.count(kind))]
        rng.shuffle(picks)
        return iter(picks)

    parts = balanced("frame_contains", _FRAME_PARTS)
    realizations = balanced("realization", _REALIZATIONS)
    mediators = balanced("mediator", _MEDIATORS)
    ops = []
    answers = {}  # the mix repeats queries; scan each distinct one once
    for kind in kinds:
        verb = verbs.draw() if rng.random() < 0.97 else "ἀγνώς"
        if kind == "constructions_for_verb":
            op = ("constructions_for_verb",
                  {"verb": verb, "min_count": rng.choice((1, 1, 2)),
                   "min_authors": rng.choice((1, 1, 2))})
        elif kind == "diff_constructions":
            known = sorted(attested.get(verb, ()))[:3]
            known.append(rng.choice(voices) + "_" + ",".join(frames.draw()))
            op = ("diff_constructions", {"verb": verb, "known_frames": known})
        elif kind == "verb":
            op = ("query_entries", {"verb": verb})
        elif kind == "author_voice":
            op = ("query_entries", {"author": works.draw()[0], "voice": rng.choice(voices)})
        elif kind == "frame_contains":
            op = ("query_entries", {"frame_contains": next(parts)})
        elif kind == "realization":
            op = ("query_entries", {"realization": next(realizations)})
        elif kind == "mediator":
            op = ("query_entries", {"mediator": next(mediators)})
        elif kind == "frame_frequencies":
            op = ("frame_frequencies", {"top_k": rng.choice((10, 25, 50))})
        else:
            op = (kind, {})
        key = json.dumps(op, sort_keys=True)
        if key not in answers:
            answers[key] = scan_signature(rows, op[0], op[1])
        ops.append([op[0], op[1], answers[key]])
    mix_path = directory / "mix.json"
    mix_path.write_text(json.dumps(ops, ensure_ascii=False, sort_keys=True) + "\n",
                        encoding="utf-8")
    return {"lexicon": str(lexicon), "mix": str(mix_path), "ops": len(ops), "entries": entries}


# -- casestudy-epic ---------------------------------------------------------

EPIC_WORKS = (("Homer", "Iliad"), ("Homer", "Odyssey"), ("Hesiod", "Theogony"))
CASE_SIZE = {"sentences": 700, "lexicon": 3000, "min_epic_tokens": 30, "min_object_types": 10,
             "dimension": 300, "vocabulary_factor": 3}


def planted_design(tokens, types):
    """Planted verbs as (name, formulaic tokens, epic types, epic OOV,
    baseline types, baseline OOV, expected outcome).

    With ``ks_exact_limit = 2 * types`` the first two verbs sit exactly at
    the exact-test limit and the third one above it.
    """
    return (
        ("exact_even", tokens, types, 0, types, 0, ("reported", "exact")),
        ("exact_oov", tokens + 10, types + 1, 1, types, 0, ("reported", "exact")),
        ("asym_edge", tokens + 5, types, 0, types + 1, 0, ("reported", "asymptotic")),
        ("asym_a", tokens + 20, types + 2, 0, 2 * types, 1, ("reported", "asymptotic")),
        ("asym_b", 2 * tokens, 2 * types, 1, 3 * types, 2, ("reported", "asymptotic")),
        ("asym_c", 3 * tokens, 3 * types, 2, 5 * types, 3, ("reported", "asymptotic")),
        ("few_tokens", tokens - 1, types, 0, types, 0, ("dropped", "below_min_epic_tokens")),
        ("few_epic_types", tokens + 15, types - 1, 0, types, 0,
         ("dropped", "insufficient_epic_types")),
        ("few_baseline_types", tokens + 15, types + 2, 0, types - 1, 0,
         ("dropped", "insufficient_baseline_types")),
        ("all_oov", tokens + 10, types, types, types, 0, ("dropped", "insufficient_vector_data")),
    )


def _vector_line(rng, lemma, components, dimension):
    return lemma + " " + " ".join(components[rng.getrandbits(12)] for _ in range(dimension))


def build_casestudy(seed, directory, sentences=None, lexicon_entries=None, tokens=None,
                    types=None, dimension=None):
    """Epic treebank, baseline lexicon, vectors, spans and config."""
    rng = random.Random(f"casestudy-epic/{seed}")
    sentences = sentences or CASE_SIZE["sentences"]
    lexicon_entries = lexicon_entries or CASE_SIZE["lexicon"]
    tokens = tokens or CASE_SIZE["min_epic_tokens"]
    types = types or CASE_SIZE["min_object_types"]
    dimension = dimension or CASE_SIZE["dimension"]
    lemmas, verbs, nouns, adjectives = _vocabulary(rng, 400, 1200, 300)
    builder = _Sentences(rng, verbs, nouns, adjectives)
    directory = Path(directory)
    treebank = directory / "epic"
    treebank.mkdir(parents=True)

    # planted verbs: formulaic verb + plain accusative object sentences
    planted = []  # (verb, object, formulaic), Beta Code
    expected = {}
    lexicon_rows = []
    in_vocabulary = set()
    all_oov = set()
    for name, count, epic_n, epic_oov, base_n, base_oov, outcome in planted_design(tokens, types):
        verb_raw = lemmas.make("verb")
        verb = unicode_lemma(verb_raw)
        epic = [lemmas.make("noun") for _ in range(epic_n)]
        baseline = [unicode_lemma(lemmas.make("noun")) for _ in range(base_n)]
        epic_unicode = [unicode_lemma(raw) for raw in epic]
        all_oov.update(epic_unicode[:epic_oov] + baseline[:base_oov])
        in_vocabulary.update(epic_unicode[epic_oov:] + baseline[base_oov:])
        for index in range(count):
            planted.append((verb_raw, epic[index % epic_n], True))
        for _ in range(3):  # non-formulaic occurrences must not count
            planted.append((verb_raw, epic[0], False))
        for filler in baseline:
            for _ in range(rng.choice((1, 1, 2, 3))):
                lexicon_rows.append(_baseline_row(rng, verb, "OBJ[accusative]", filler))
        # decoys: mediated, non-accusative, and excluded-work objects
        for element in ("(εἰς)OBJ[accusative]", "OBJ[dative]", "OBJ[genitive]"):
            lexicon_rows.append(_baseline_row(rng, verb, element, unicode_lemma(lemmas.make("noun"))))
        for _ in range(3):
            lexicon_rows.append(_baseline_row(rng, verb, "OBJ[accusative]",
                                              unicode_lemma(lemmas.make("noun")),
                                              work=("Homer", "Iliad")))
        status, detail = outcome
        expected[verb] = {"design": name, "status": status,
                          "method": detail if status == "reported" else "",
                          "reason": detail if status == "dropped" else "",
                          "epic_types": epic_n, "baseline_types": base_n}

    # background epic sentences; epithet spans mark noun and adjective only
    files = {work: [] for work in EPIC_WORKS}
    spans = []
    pairs = 0
    formulaic = 0
    words = 0
    corpus_lemmas = set()
    slots = [("bg", None)] * sentences + [("planted", p) for p in planted]
    rng.shuffle(slots)
    for number, (kind, plant) in enumerate(slots):
        work = EPIC_WORKS[number % len(EPIC_WORKS)]
        sentence_id = 500000 + number + 1
        if kind == "bg":
            order, heads = builder.sentence()
            marked = [i for noun, adj in builder.epithets for i in (noun.token_id, adj.token_id)]
        else:
            verb_raw, object_raw, is_formulaic = plant
            root = Node(verb_raw, "v3saia---")
            obj = Node(object_raw, "n-s---ma-")
            builder.argument(root, root, obj, "OBJ")
            builder.argument(root, root, builder.noun_phrase("n", 2), "SBJ")
            order, heads = builder.sentence(root)
            marked = [root.token_id, obj.token_id] if is_formulaic else []
            formulaic += is_formulaic
        for node in order:
            corpus_lemmas.add(node.lemma)
            for label, mediator, argument in node.slots:
                if (label.split("_")[0] == "OBJ" and mediator is None
                        and realization(argument.tag) == "accusative"):
                    pairs += 1
        if marked:
            spans.append(f"{sentence_id}\t{','.join(str(i) for i in sorted(set(marked)))}")
        words += len(order)
        files[work].append((sentence_id, f"{number // 30 + 1}.{number % 30 + 1}",
                            [_word_xml(n, heads[n]) for n in order]))
    for index, (work, work_sentences) in enumerate(files.items()):
        (treebank / f"epic{index}.xml").write_text(_treebank_xml(work, work_sentences),
                                                    encoding="utf-8")
    (directory / "spans.tsv").write_text("sentence_id\ttoken_ids\n" + "\n".join(spans) + "\n",
                                         encoding="utf-8")

    # baseline lexicon: planted rows plus background works, Homer excluded
    verbs_u, nouns_u = _unicode_vocabulary(rng, 500, 1500, lemmas)
    frames = _Zipf(rng, _frame_inventory(rng, 150), s=1.1)
    lexicon_rows += _lexicon_rows(rng, lexicon_entries, verbs_u, nouns_u, _authors(rng, 30), frames)
    (directory / "lexicon.tsv").write_text(_tsv(_sort_rows(lexicon_rows)), encoding="utf-8")

    # vectors: every in-vocabulary object plus the corpus lemmas, padded
    # with unrelated words to several times the lemma count
    vocabulary = sorted((in_vocabulary | corpus_lemmas) - all_oov)
    target = CASE_SIZE["vocabulary_factor"] * len(vocabulary)
    while len(vocabulary) < target:
        vocabulary.append(unicode_lemma(lemmas.make("noun")))
    rng.shuffle(vocabulary)
    components = [format(rng.gauss(0.0, 0.3), ".5f") for _ in range(4096)]
    lines = [f"{len(vocabulary)} {dimension}"]
    lines += [_vector_line(rng, lemma, components, dimension) for lemma in vocabulary]
    (directory / "vectors.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    output = directory / "out"
    config = directory / "case.conf"
    config.write_text("\n".join([
        f"treebank_dir = {treebank}",
        f"lexicon_path = {directory / 'lexicon.tsv'}",
        f"vector_space_path = {directory / 'vectors.txt'}",
        f"formula_span_path = {directory / 'spans.tsv'}",
        f"output_dir = {output}",
        "epic_works = " + "; ".join(f"{a}|{t}" for a, t in EPIC_WORKS),
        "baseline_exclusions = Homer|Iliad; Homer|Odyssey",
        f"min_epic_tokens = {tokens}",
        f"min_object_types = {types}",
        f"ks_exact_limit = {2 * types}",
    ]) + "\n", encoding="utf-8")
    return {"config": str(config), "output": str(output), "words": words, "verbs": expected,
            "pairs": pairs, "formulaic": formulaic,
            "inputs": sorted(str(p) for p in treebank.glob("*.xml"))
            + [str(directory / n) for n in ("lexicon.tsv", "vectors.txt", "spans.tsv")]}


def _baseline_row(rng, verb, element, filler, work=None):
    author, title = work or rng.choice(WORKS[3:])
    elements = sorted(((element, filler), ("SBJ[nominative]", "ἀνήρ")), key=lambda e: _label(e[0]))
    return (author, title, "1", verb, "active", rng.randrange(1, 10 ** 7), rng.randrange(1, 40),
            "active_" + ",".join(e for e, _ in elements),
            "active_" + ",".join(e + "{" + f + "}" for e, f in elements))
