"""Analytical-layer treebank XML parsing, lemma normalization, validation.

Parsing is total over a file: a word missing a required attribute (or
carrying an undecodable postag or lemma) is skipped and reported, never
repaired.  Lemmas and the document's author, title and subdocs are NFC
from the parse on.  Sentences that fail validation are likewise excluded
from extraction by the caller; the lexicon must mirror the annotation
verbatim.
"""

import io
import re
import sys
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .betacode import BetaCodeError, beta_to_unicode
from .output import InputError, content_rows
from .postag import PosTag, PostagError, decode_postag

_REQUIRED_ATTRIBUTES = ("id", "form", "lemma", "postag", "head", "relation")
_required_values = itemgetter(*_REQUIRED_ATTRIBUTES)

_TRAILING_DIGITS = re.compile(r"\d+$")
_ASCII_LETTERS = re.compile(r"[A-Za-z*]")
# the TSV's separators: a tab and every character str.splitlines breaks
# on, which splits a row where read_lexicon reads it back
_LAYOUT_BREAKS = "\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
LAYOUT_BREAK = re.compile(f"[{_LAYOUT_BREAKS}]")
# those and the frame codec's delimiters: a lemma holding one would render
# into a frame or a row that cannot be read back
_RESERVED = re.compile(rf"[,()\[\]{{}}{_LAYOUT_BREAKS}]")


class TreebankParseError(ValueError):
    """Malformed XML; carries the byte offset of the fault, exact for UTF-8 data."""

    def __init__(self, message, byte_offset):
        super().__init__(message, byte_offset)  # what pickle rebuilds it from
        self.byte_offset = byte_offset

    def __str__(self):
        return f"{self.args[0]} (byte offset {self.byte_offset})"


@dataclass(slots=True)
class WordNode:
    token_id: int
    lemma: str
    postag: PosTag
    head_id: int
    relation: str


@dataclass
class SentenceTree:
    """One sentence's words in document order, with the tree's two indexes:
    ``positions`` maps a token id to the place in ``nodes`` of its first
    word, and ``children_index`` maps a head id to its dependents' token
    ids in document order."""

    sentence_id: int
    subdoc: str
    author: str
    title: str
    nodes: list[WordNode]
    positions: dict[int, int] = field(init=False, repr=False)
    children_index: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        self.positions = {}
        self.children_index = {}
        for position, node in enumerate(self.nodes):
            self.positions.setdefault(node.token_id, position)
            self.children_index.setdefault(node.head_id, []).append(node.token_id)


@dataclass
class WordIssue:
    """One skipped word: where it was and why."""

    sentence_id: int | None
    word_index: int
    message: str


@dataclass
class ValidationReport:
    sentence_id: int
    duplicate_ids: list[int]
    dangling_heads: list[tuple[int, int]]  # (token_id, missing head_id)
    cycle_token_ids: list[int]
    # a subdoc holding a tab or line break, which the lexicon's TSV cannot hold
    broken_subdoc: str | None = None

    @property
    def ok(self) -> bool:
        return not (
            self.duplicate_ids
            or self.dangling_heads
            or self.cycle_token_ids
            or self.broken_subdoc is not None
        )

    def messages(self) -> list[str]:
        out = [f"duplicate token_id {t}" for t in self.duplicate_ids]
        out += [f"dangling head {h} (from token {t})" for t, h in self.dangling_heads]
        out += [f"token {t} lies on a head cycle" for t in self.cycle_token_ids]
        if self.broken_subdoc is not None:
            out.append(f"subdoc {self.broken_subdoc!r} would corrupt the TSV layout")
        return out


@lru_cache(maxsize=None)
def normalize_lemma(raw: str) -> str:
    """Strip sense-numbering digits; transcode ASCII-Greek to Unicode; NFC.

    Raises ``ValueError`` when the result holds a frame delimiter
    (``, ( ) [ ] { }``), a tab or a line break.  Cached per process: a corpus
    repeats a small vocabulary of lemmas.  Errors are not cached, so every
    bad word is still reported.
    """
    stripped = _TRAILING_DIGITS.sub("", raw)
    if _ASCII_LETTERS.search(stripped):
        lemma = beta_to_unicode(stripped)
    else:
        lemma = unicodedata.normalize("NFC", stripped)
    reserved = _RESERVED.search(lemma)
    if reserved:
        raise ValueError(f"lemma {lemma!r} holds the reserved character {reserved[0]!r}")
    return lemma


def _byte_offset(data: bytes, line: int, column: int) -> int:
    # expat counts \r\n, \r and \n as one line break each, the only ones
    # bytes.splitlines breaks at, and the column in characters; a byte that
    # is not UTF-8 counts as one character
    lines = data.splitlines(keepends=True)
    line_start = sum(map(len, lines[: line - 1]))
    text = b"".join(lines[line - 1 : line])  # empty past a final line break
    head = text.decode("utf-8", "surrogateescape")[:column]
    return line_start + len(head.encode("utf-8", "surrogateescape"))


def _document_meta(root, fallback_meta):
    """Author and title in NFC, each from an attribute, an element or the fallback."""
    fallback_author, fallback_title = fallback_meta or ("", "")
    author = root.get("author") or (root.findtext("author") or "").strip() or fallback_author
    title = root.get("title") or (root.findtext("title") or "").strip() or fallback_title
    return unicodedata.normalize("NFC", author), unicodedata.normalize("NFC", title)


def parse_treebank_file(
    data: bytes,
    fallback_meta: tuple[str, str] | None = None,
) -> tuple[list[SentenceTree], list[WordIssue]]:
    """Parse one analytical-layer XML file.

    Returns the sentence trees in document order plus the per-word issues
    for skipped words.  Unknown attributes (``cid`` and friends) are
    ignored.  Structural validation is deferred to
    :func:`validate_sentence`.

    The XML is read as a stream: ``ET.iterparse`` feeds the parser 16 KiB
    of ``data`` at a time, and each outermost ``sentence`` element is
    dropped once its words are read, so a file's element tree is never
    held whole.  The trees are built when the document has ended, so a
    malformed file gives none.  Malformed XML, and an encoding declaration
    the parser cannot read, raise ``TreebankParseError``; a document with
    sentences whose author or title holds a tab or line break, which the
    lexicon's TSV cannot hold, raises a plain ``ValueError``.
    """
    sentences = []  # (sentence_id, subdoc, nodes) until the document's metadata is known
    issues = []
    root = None
    open_sentences = 0
    try:
        for event, element in ET.iterparse(io.BytesIO(data), ("start", "end")):
            if root is None:
                root = element
            if element.tag != "sentence":
                continue
            if event == "start":
                open_sentences += 1
                continue
            open_sentences -= 1
            if open_sentences:
                continue  # a nested sentence is read with its outermost one, in document order
            for sentence in element.iter("sentence"):
                _read_sentence(sentence, sentences, issues)
            if element is not root:
                element.clear()
    except ET.ParseError as exc:
        line, column = exc.position
        raise TreebankParseError(f"malformed XML: {exc.msg}", _byte_offset(data, line, column))
    except (LookupError, ValueError) as exc:
        # only the parser raises these here: _read_sentence reports every
        # ValueError of a word or a sentence id as a WordIssue.  expat cannot
        # read the encoding that the declaration names
        raise TreebankParseError(f"unusable encoding: {exc}", 0) from None

    author, title = _document_meta(root, fallback_meta)
    broken = sentences and [
        f"{name} {value!r} would corrupt the TSV layout"
        for name, value in (("author", author), ("title", title))
        if LAYOUT_BREAK.search(value)
    ]
    if broken:
        raise ValueError("; ".join(broken))
    trees = [
        SentenceTree(sentence_id, subdoc, author, title, nodes)
        for sentence_id, subdoc, nodes in sentences
    ]
    return trees, issues


def _read_sentence(sentence, sentences, issues) -> None:
    raw_id = sentence.get("id")
    try:
        sentence_id = int(raw_id)
    except (TypeError, ValueError):
        issues.append(WordIssue(None, 0, f"sentence with unusable id {raw_id!r} skipped"))
        return
    nodes = []
    for word_index, word in enumerate(sentence.iter("word"), start=1):
        try:
            nodes.append(_parse_word(word))
        except (BetaCodeError, PostagError, ValueError) as exc:
            issues.append(WordIssue(sentence_id, word_index, str(exc)))
    subdoc = unicodedata.normalize("NFC", sentence.get("subdoc", ""))
    sentences.append((sentence_id, subdoc, nodes))


def _parse_word(word) -> WordNode:
    attrib = word.attrib
    try:
        raw_id, _form, lemma, postag, raw_head, relation = _required_values(attrib)
    except KeyError:
        missing = next(name for name in _REQUIRED_ATTRIBUTES if name not in attrib)
        raise ValueError(f"missing attribute {missing!r}") from None
    token_id = int(raw_id)
    head_id = int(raw_head)
    if token_id <= 0:
        raise ValueError(f"token id must be positive, got {token_id}")
    if head_id < 0:
        raise ValueError(f"head must be non-negative, got {head_id}")
    relation = sys.intern(relation)  # a few dozen labels, each shared by its tokens
    return WordNode(token_id, normalize_lemma(lemma), decode_postag(postag), head_id, relation)


def validate_sentence(tree: SentenceTree) -> ValidationReport:
    """Check token-id uniqueness, head resolution, acyclicity, and that the
    subdoc holds no tab or line break."""
    nodes, positions = tree.nodes, tree.positions
    duplicates = []
    if len(positions) < len(nodes):  # each token id once, so a shortfall means duplicates
        counts = Counter(node.token_id for node in nodes)
        duplicates = sorted(token_id for token_id, count in counts.items() if count > 1)

    dangling = sorted(
        {
            (node.token_id, node.head_id)
            for node in nodes
            if node.head_id != 0 and node.head_id not in positions
        }
    )

    # Walk head chains; dangling heads terminate a chain, repeats mean a cycle.
    resolved = set()  # tokens whose chain has been walked to its end or its cycle
    cyclic = set()
    for node in nodes:
        chain = []
        current = node.token_id
        while current != 0 and current in positions and current not in resolved:
            if current in chain:
                cyclic.update(chain[chain.index(current):])
                break
            chain.append(current)
            current = nodes[positions[current]].head_id
        resolved.update(chain)

    return ValidationReport(
        sentence_id=tree.sentence_id,
        duplicate_ids=duplicates,
        dangling_heads=dangling,
        cycle_token_ids=sorted(cyclic),
        broken_subdoc=tree.subdoc if LAYOUT_BREAK.search(tree.subdoc) else None,
    )


def load_manifest(source) -> dict[str, tuple[str, str]]:
    """Read a sidecar metadata manifest: ``filename<TAB>author<TAB>title``,
    each file named once."""
    mapping = {}
    first_lines = {}  # filename -> the line that names it
    for lineno, line in content_rows(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError([(lineno, "expected 3 tab-separated fields")], source)
        filename, author, title = parts
        if filename in first_lines:
            detail = f"duplicate file {filename!r} (first at line {first_lines[filename]})"
            raise InputError([(lineno, detail)], source)
        first_lines[filename] = lineno
        mapping[filename] = (author.strip(), title.strip())
    return mapping
