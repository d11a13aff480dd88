"""Valency frame extraction from validated sentence trees.

A predicate's arguments are its SBJ/OBJ/PNOM/OCOMP dependents, reached
either directly or through chains of preposition (AuxP), conjunction
(AuxC), coordination (COORD) and apposition (APOS) nodes.  Every verb
token with at least one argument yields one lexicon entry; nothing is
ever reconstructed for unexpressed arguments.

A frame is a voice plus :class:`FrameElement`s, written by
:func:`render_frame` and read back by :func:`parse_frame`; both
directions of the format live here, and :data:`FRAME_GRAMMAR` alone
decides which strings are frames.

So does the lexicon TSV, both ways: a UTF-8 file of :class:`LexiconEntry`'s
fields, in order, or the published eight columns without root_id.
:func:`lexicon_lines` writes both layouts and ``query``'s rows in NFC and
rejects a field holding a tab or a line break; :func:`read_entries` reads
the full layout back and judges every row.
"""

import collections
import re
import sys
import unicodedata
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .output import InputError, content_rows, read_lines, write_atomic
from .postag import UNSPECIFIED
from .treebank import LAYOUT_BREAK, SentenceTree, WordNode

ARGUMENT_RELATIONS = frozenset({"SBJ", "OBJ", "PNOM", "OCOMP"})
BRIDGE_RELATIONS = frozenset({"AUXP", "AUXC", "COORD", "APOS"})

# one frame element, (mediator)LABEL[realization]{filler}; no field holds
# the "," that separates elements
_ELEMENT = (
    r"(?:\((?P<mediator>[^(),]*)\))?"
    r"(?P<label>[A-Z][A-Z_]*)"
    r"\[(?P<realization>[^\[\],]+)\]"
    r"(?:\{(?P<filler>[^{},]*)\})?"
)
_ELEMENT_RE = re.compile(_ELEMENT)
# the frame grammar: a whole frame or frame_fillers string, voice_ELEMENT(,ELEMENT)*,
# its element without the group names, which a pattern may define once only
FRAME_GRAMMAR = re.compile("[^_]+_{0}(?:,{0})*".format(re.sub(r"\?P<\w+>", "?:", _ELEMENT)))


class LexiconFormatError(InputError):
    """A frame string, a lexicon file or a frame list that is rejected."""


class FrameElement(NamedTuple):
    """One element of a frame, ``(mediator)LABEL[realization]{filler}``.

    The mediator is the lemma of the first preposition or conjunction on
    the path to the argument; the filler is None in a bare frame string.
    """

    mediator: str | None
    label: str
    realization: str
    filler: str | None

    @property
    def base_relation(self) -> str:
        return self.label.split("_")[0]

    def render(self) -> str:
        """The element text without its filler, e.g. ``(εἰς)OBJ[accusative]``."""
        prefix = "" if self.mediator is None else f"({self.mediator})"
        return f"{prefix}{self.label}[{self.realization}]"


class ArgumentSlot(NamedTuple):
    """A frame element found in a tree, with where its filler sits."""

    mediator: str | None
    label: str
    realization: str
    filler: str | None
    filler_token_id: int
    surface_position: int
    # shared, as a named tuple cannot extend FrameElement
    base_relation = FrameElement.base_relation
    render = FrameElement.render


def is_plain_object(element: FrameElement) -> bool:
    """The case study's plain object: an unmediated accusative OBJ."""
    return (
        element.mediator is None
        and element.realization == "accusative"
        and element.base_relation == "OBJ"
    )


def render_frame(voice: str, slots) -> tuple[str, str]:
    """The canonical frame and frame_fillers strings of a voice and slots.

    Slots are ordered by full relation label, then by surface position;
    that reproduces both the label-major published layout and the
    distinct orderings of repeated labels.
    """
    if not slots:
        raise ValueError("a frame needs at least one argument slot")
    elements = []
    filler_elements = []
    for slot in sorted(slots, key=attrgetter("label", "surface_position")):
        element = slot.render()
        elements.append(element)
        filler_elements.append(element + "{" + slot.filler + "}")
    return voice + "_" + ",".join(elements), voice + "_" + ",".join(filler_elements)


def _frame_fault(frame: str) -> str:
    """What is wrong with a string :data:`FRAME_GRAMMAR` rejects: no voice,
    ``_`` or element, or the first element that does not follow the layout."""
    voice, sep, rest = frame.partition("_")
    if not sep or not voice or not rest:
        return f"malformed frame string: {frame!r}"
    chunk = next(chunk for chunk in rest.split(",") if _ELEMENT_RE.fullmatch(chunk) is None)
    return f"malformed frame element: {chunk!r} in {frame!r}"


@lru_cache(maxsize=None)
def parse_frame(frame: str) -> tuple[str, tuple[FrameElement, ...]]:
    """Split a canonical frame (or frame_fillers) string into voice and
    elements.  :data:`FRAME_GRAMMAR` alone accepts or rejects it; a rejected
    string raises :class:`LexiconFormatError` with its fault."""
    if FRAME_GRAMMAR.fullmatch(frame) is None:
        raise LexiconFormatError(_frame_fault(frame))
    voice, _, rest = frame.partition("_")
    # the element pattern's groups are FrameElement's fields, in order
    matches = map(_ELEMENT_RE.fullmatch, rest.split(","))
    return voice, tuple([FrameElement(*match.groups()) for match in matches])


class LexiconEntry(NamedTuple):
    author: str
    title: str
    subdoc: str
    verb: str
    voice: str
    sentence_id: int
    root_id: int
    frame: str
    frame_fillers: str


FORMAT_VERSION = "1"

COLUMNS = tuple(LexiconEntry.__annotations__)
FIGURE1_COLUMNS = tuple(c for c in COLUMNS if c != "root_id")


def lexicon_lines(entries, columns=COLUMNS):
    """The header, then each entry's ``columns`` as one NFC row, unterminated;
    a field holding a tab or a line break raises ``ValueError``.  A tab
    composes and reorders with nothing, so a row's NFC is its fields' NFC."""
    yield "\t".join(columns)
    values = attrgetter(*columns)
    row = "\t".join(["%s"] * len(columns))
    tabs = len(columns) - 1
    for entry in entries:
        line = row % values(entry)
        # read_lexicon splits the file into rows with str.splitlines
        if line.count("\t") != tabs or line.splitlines() != [line]:
            value = next(v for v in map(str, values(entry)) if LAYOUT_BREAK.search(v))
            raise ValueError(f"field would corrupt the TSV layout: {value!r}")
        yield unicodedata.normalize("NFC", line)


def write_lexicon(lexicon, destination, figure1_layout: bool = False) -> int:
    """Stream the TSV through :func:`write_atomic` a row at a time; returns bytes written."""
    lines = lexicon_lines(lexicon, FIGURE1_COLUMNS if figure1_layout else COLUMNS)
    return write_atomic(destination, (line + "\n" for line in lines))


def read_entries(source) -> list[LexiconEntry]:
    """Read a lexicon TSV in the full layout, :data:`COLUMNS`.

    The rows stream from :func:`~grcvalency.output.read_lines`, each is put
    in NFC, and each author, title, verb, voice and frame value is
    ``sys.intern``ed, so equal values are one string.  Empty rows are
    skipped.  A malformed row rejects the whole file, and the error names
    each faulty line in line order: a wrong column count, non-integer ids, or
    a ``frame`` or ``frame_fillers`` string that :data:`FRAME_GRAMMAR`, the
    rule :func:`parse_frame` reads by, rejects.  Each distinct string is
    judged once, and a bad one is named at the first line that holds it.
    """
    rows = (unicodedata.normalize("NFC", line) for line in read_lines(source))
    header = next(rows, None)
    if header is None:
        raise LexiconFormatError("empty lexicon file (missing header)", source)
    header = tuple(header.split("\t"))
    if header != COLUMNS:
        collections.deque(rows, maxlen=0)  # an undecodable byte further on wins
        raise LexiconFormatError([(1, f"unexpected header {header!r}")], source)
    intern = sys.intern
    entries = []
    row_errors = []
    first_lines = {}  # frame or frame_fillers string -> the first line that holds it
    for lineno, line in enumerate(rows, start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            row_errors.append((lineno, f"expected {len(COLUMNS)} columns, got {len(fields)}"))
            continue
        author, title, subdoc, verb, voice, sentence_id, root_id, frame, fillers = fields
        try:
            sentence_id, root_id = int(sentence_id), int(root_id)
        except ValueError:
            row_errors.append((lineno, "sentence_id and root_id must be integers"))
            continue
        frame = intern(frame)
        entries.append(LexiconEntry(
            intern(author), intern(title), subdoc, intern(verb), intern(voice),
            sentence_id, root_id, frame, fillers,
        ))
        first_lines.setdefault(frame, lineno)
        first_lines.setdefault(fillers, lineno)
    for text, lineno in first_lines.items():
        if FRAME_GRAMMAR.fullmatch(text) is None:
            row_errors.append((lineno, _frame_fault(text)))
    if row_errors:
        raise LexiconFormatError(sorted(row_errors), source)
    return entries


def read_frames(source) -> list[str]:
    """The frames listed one per :func:`~grcvalency.output.content_rows` row,
    stripped and in NFC; the first that :data:`FRAME_GRAMMAR` rejects rejects
    the list, with the fault a lexicon row holding it gets."""
    frames = []
    for lineno, line in content_rows(source):
        frames.append(unicodedata.normalize("NFC", line.strip()))
        if FRAME_GRAMMAR.fullmatch(frames[-1]) is None:
            raise LexiconFormatError([(lineno, _frame_fault(frames[-1]))], source)
    return frames


@lru_cache(maxsize=None)
def split_relation(relation: str) -> tuple[str, bool, bool]:
    """Split a relation label into (base, coord, apos), case-insensitively.
    Cached per process: a treebank uses a few dozen labels."""
    parts = relation.upper().split("_")
    suffixes = parts[1:]
    return parts[0], "CO" in suffixes, "AP" in suffixes


def identify_predicates(tree: SentenceTree, include_participles: bool = True) -> list[WordNode]:
    """Verbal tokens of the sentence, regardless of their own relation label."""
    predicates = []
    for node in tree.nodes:
        if not node.postag.is_verbal:
            continue
        if not include_participles and node.postag.is_participle:
            continue
        predicates.append(node)
    return predicates


def realization_of(node: WordNode) -> str:
    """How an argument filled by ``node`` is realized.

    Case wins when the postag carries one (so declined participles count
    as their case); caseless verb forms realize as their mood; anything
    left is the documented "adverb" fallback.
    """
    postag = node.postag
    if postag.has_case:
        return postag.case
    if postag.pos == "participle":
        return postag.mood if postag.mood != UNSPECIFIED else "participle"
    if postag.pos == "verb" and postag.mood != UNSPECIFIED:
        return postag.mood
    return "adverb"


def collect_arguments(tree: SentenceTree, verb: WordNode) -> list[ArgumentSlot]:
    """Argument slots of one verb token, in surface order of discovery."""
    # the tree's own indexes, read directly: this walk visits every
    # dependent of every verb in the corpus
    nodes, positions, children = tree.nodes, tree.positions, tree.children_index
    slots = []
    stack = [
        (token_id, None, False, False) for token_id in reversed(children.get(verb.token_id, ()))
    ]
    visited = {verb.token_id}
    while stack:
        token_id, mediator, coord, apos = stack.pop()
        if token_id in visited:
            continue
        visited.add(token_id)
        position = positions[token_id]
        node = nodes[position]
        base, has_co, has_ap = split_relation(node.relation)
        coord = coord or has_co
        apos = apos or has_ap
        if base in ARGUMENT_RELATIONS:
            label = base + ("_CO" if coord else "") + ("_AP" if apos else "")
            slots.append(
                ArgumentSlot(mediator, label, realization_of(node), node.lemma, token_id, position)
            )
            continue
        if base in BRIDGE_RELATIONS:
            if mediator is None and base in ("AUXP", "AUXC"):
                mediator = node.lemma
            if base == "COORD":
                coord = True
            elif base == "APOS":
                apos = True
            for child_id in reversed(children.get(token_id, ())):
                stack.append((child_id, mediator, coord, apos))
        # all other relations (ATR, ADV, AuxY, ...) are neither arguments
        # nor bridges and end the search on their branch
    return slots


def extract_entries(corpus, include_participles: bool = True) -> list[LexiconEntry]:
    """One entry per verb token with at least one argument, sorted
    deterministically by (author, title, verb, sentence_id, root_id).
    ``corpus`` is any iterable of trees, read once."""
    entries = []
    for tree in corpus:
        for verb in identify_predicates(tree, include_participles):
            slots = collect_arguments(tree, verb)
            if not slots:
                continue
            frame, frame_fillers = render_frame(verb.postag.voice, slots)
            entries.append(LexiconEntry(
                tree.author, tree.title, tree.subdoc, verb.lemma, verb.postag.voice,
                tree.sentence_id, verb.token_id, frame, frame_fillers,
            ))
    # the lexicon's row order; the stable sort keeps extraction order on ties
    entries.sort(key=attrgetter("author", "title", "verb", "sentence_id", "root_id"))
    return entries
