"""Analytical-layer treebank XML parsing, lemma normalization, validation.

A file is read in one pass by expat's callbacks, which build no element
tree: each word becomes a node, or a reported issue, as its start tag is
read.  Malformed XML is reported in ElementTree's words and at its
position, so a file's report does not depend on which parser read it.

Parsing is total over a file: a word missing a required attribute (or
carrying an undecodable postag or lemma) is skipped and reported, never
repaired.  Lemmas and the document's author, title and subdocs are NFC
from the parse on.  Sentences that fail validation are likewise excluded
from extraction by the caller; the lexicon must mirror the annotation
verbatim.
"""

import re
import sys
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from xml.parsers import expat

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


def _document_meta(root, texts, fallback_meta):
    """Author and title in NFC, each from a root attribute, the text of the
    root's first child element of that name, or the fallback."""
    fallback_author, fallback_title = fallback_meta or ("", "")
    author = root.get("author") or "".join(texts.get("author", ())).strip() or fallback_author
    title = root.get("title") or "".join(texts.get("title", ())).strip() or fallback_title
    return unicodedata.normalize("NFC", author), unicodedata.normalize("NFC", title)


class _Reader:
    """The expat handlers of one parse, and what they have read.

    The handlers count the element depth, which finds the root and its
    first ``author`` and ``title`` children; while one of those children's
    text is read, character data goes to a list until the next tag.  A
    word's attribute dict becomes a node, or a failure, at its start tag,
    and a sentence holds every word whose start tag lies between its own
    tags, nested sentences' words included.  When an outermost sentence
    closes, its sentences are read in the order their start tags came."""

    __slots__ = (
        "parser", "depth", "root", "texts", "external", "nodes", "failures",
        "group", "open", "sentences", "issues",
    )

    def __init__(self, parser):
        self.parser = parser
        self.depth = 0
        self.root = None  # the root element's attributes
        self.texts = {}  # "author" or "title": the text pieces of the root's first such child
        self.external = set()  # the external general entities the DTD declares
        self.nodes = []  # the nodes of the words read since an outermost sentence opened
        self.failures = []  # (number of the word among those, why it was skipped)
        self.group = []  # [id, subdoc, node and word count at open, at close] per sentence
        self.open = []  # those of the group still open, innermost last
        self.sentences = []  # (sentence_id, subdoc, nodes) until the document's metadata is known
        self.issues = []
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        parser.EntityDeclHandler = self.entity_declared
        parser.SkippedEntityHandler = self.entity_skipped
        parser.ExternalEntityRefHandler = self.external_entity

    def clear(self):
        """Drop the handlers, which hold the reader, so no cycle outlives the parse."""
        parser = self.parser
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.EntityDeclHandler = None
        parser.SkippedEntityHandler = parser.ExternalEntityRefHandler = None

    def start(self, name, attrs):
        depth = self.depth
        self.depth = depth + 1
        if not depth:
            self.root = attrs
        if name == "word":
            if self.open:
                try:
                    self.nodes.append(_parse_word(attrs))
                except (BetaCodeError, PostagError, ValueError) as exc:
                    self.failures.append((len(self.nodes) + len(self.failures) + 1, str(exc)))
        elif name == "sentence":
            read = len(self.nodes)
            record = [attrs.get("id"), attrs.get("subdoc", ""), read, read + len(self.failures)]
            self.group.append(record)
            self.open.append(record)
        elif depth == 1 and (name == "author" or name == "title") and name not in self.texts:
            self.texts[name] = pieces = []
            parser = self.parser
            parser.CharacterDataHandler = pieces.append
            parser.StartElementHandler = self._start_after_text
            parser.EndElementHandler = self._end_after_text

    def end(self, name):
        self.depth -= 1
        if name == "sentence":
            read = len(self.nodes)
            self.open.pop().extend((read, read + len(self.failures)))
            if not self.open:
                self._read_group()

    def _stop_text(self):
        parser = self.parser
        parser.CharacterDataHandler = None
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end

    def _start_after_text(self, name, attrs):
        # an element's text is what comes before its first child
        self._stop_text()
        self.start(name, attrs)

    def _end_after_text(self, name):
        self._stop_text()
        self.end(name)

    def _read_group(self):
        nodes, failures, issues = self.nodes, self.failures, self.issues
        for raw_id, subdoc, first_node, first_word, end_node, end_word in self.group:
            try:
                sentence_id = int(raw_id)
            except (TypeError, ValueError):
                issues.append(WordIssue(None, 0, f"sentence with unusable id {raw_id!r} skipped"))
                continue
            issues += [
                WordIssue(sentence_id, number - first_word, message)
                for number, message in failures
                if first_word < number <= end_word
            ]
            subdoc = unicodedata.normalize("NFC", subdoc)
            self.sentences.append((sentence_id, subdoc, nodes[first_node:end_node]))
        self.nodes, self.failures, self.group = [], [], []

    def entity_declared(self, name, is_parameter_entity, value, *_):
        if value is None and not is_parameter_entity:
            self.external.add(name)

    def entity_skipped(self, name, is_parameter_entity):
        if not is_parameter_entity:
            self._undefined_entity(name)

    def external_entity(self, context, *_):
        # context names the entities open at the reference, in no set order;
        # expat reads no external entity, so one of them is external
        (name,) = self.external.intersection(context.split("\f"))
        self._undefined_entity(name)

    def _undefined_entity(self, name):
        # ElementTree's words, as it reports a reference it cannot expand:
        # at most 100 bytes of the reference, at the position expat is at
        reference = f"&{name};".encode("utf-8")[:100].decode("utf-8", "replace")
        position = self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber
        raise _expat_error(f"undefined entity {reference}", *position)


def _expat_error(message, line, column):
    """An error worded and placed as expat's own; built here, so that no
    frame of the traceback it is raised with holds it."""
    error = expat.ExpatError(f"{message}: line {line}, column {column}")
    error.lineno, error.offset = line, column
    return error


def parse_treebank_file(
    data: bytes,
    fallback_meta: tuple[str, str] | None = None,
) -> tuple[list[SentenceTree], list[WordIssue]]:
    """Parse one analytical-layer XML file.

    Returns the sentence trees in document order plus the per-word issues
    for skipped words.  Unknown attributes (``cid`` and friends) are
    ignored.  Structural validation is deferred to
    :func:`validate_sentence`.

    The XML is read in one pass by expat's callbacks, which build no
    element tree: each word becomes a node as its start tag is read, and
    a sentence's words are kept until its outermost sentence closes.  A
    nested sentence's tree follows its outermost one's, whose words it
    shares.  The trees are built when the document has ended, so a
    malformed file gives none.  Malformed XML, and an encoding declaration
    the parser cannot read, raise ``TreebankParseError``, worded and placed
    as ElementTree words and places the fault; a document with sentences
    whose author or title holds a tab or line break, which the lexicon's
    TSV cannot hold, raises a plain ``ValueError``.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    reader = _Reader(parser)
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise TreebankParseError(
            f"malformed XML: {exc}", _byte_offset(data, exc.lineno, exc.offset)
        ) from None
    except (LookupError, ValueError) as exc:
        # only the parser raises these here: a word's or a sentence id's
        # ValueError becomes a WordIssue.  expat cannot read the encoding
        # that the declaration names
        raise TreebankParseError(f"unusable encoding: {exc}", 0) from None
    finally:
        reader.clear()

    author, title = _document_meta(reader.root, reader.texts, fallback_meta)
    broken = reader.sentences and [
        f"{name} {value!r} would corrupt the TSV layout"
        for name, value in (("author", author), ("title", title))
        if LAYOUT_BREAK.search(value)
    ]
    if broken:
        raise ValueError("; ".join(broken))
    trees = [
        SentenceTree(sentence_id, subdoc, author, title, nodes)
        for sentence_id, subdoc, nodes in reader.sentences
    ]
    return trees, reader.issues


def _parse_word(attrib) -> WordNode:
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
    subdoc holds no tab or line break.

    A valid tree is seen in one walk down from head 0: with unique ids,
    reaching every token, and none twice, means each one's head chain ends
    at 0.  Any other tree is judged by walking each token's head chain."""
    nodes, positions = tree.nodes, tree.positions
    broken_subdoc = tree.subdoc if LAYOUT_BREAK.search(tree.subdoc) else None
    if len(positions) == len(nodes) and _reaches_each_token_once(tree.children_index, len(nodes)):
        return ValidationReport(tree.sentence_id, [], [], [], broken_subdoc)

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
        broken_subdoc=broken_subdoc,
    )


def _reaches_each_token_once(children_index, count) -> bool:
    """Whether the walk down from head 0 reaches ``count`` tokens in all.
    It stops past ``count``, as it must where a token with id 0 leads back
    to head 0, and the tokens it reaches are distinct when their ids are."""
    reached = list(children_index.get(0, ()))
    for token_id in reached:  # reached grows as it is read
        dependents = children_index.get(token_id)
        if dependents:
            reached += dependents
            if len(reached) > count:
                return False
    return len(reached) == count


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
