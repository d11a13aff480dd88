"""Valency frame extraction from validated sentence trees.

A predicate's arguments are its SBJ/OBJ/PNOM/OCOMP dependents, reached
either directly or through chains of preposition (AuxP), conjunction
(AuxC), coordination (COORD) and apposition (APOS) nodes.  Every verb
token with at least one argument yields one lexicon entry; nothing is
ever reconstructed for unexpressed arguments.

A frame is a voice plus :class:`FrameElement`s, written by
:func:`render_frame` and read back by :func:`parse_frame`; both
directions of the format live here.
"""

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from .postag import UNSPECIFIED
from .treebank import SentenceTree, WordNode

ARGUMENT_RELATIONS = frozenset({"SBJ", "OBJ", "PNOM", "OCOMP"})
BRIDGE_RELATIONS = frozenset({"AUXP", "AUXC", "COORD", "APOS"})

_ELEMENT_RE = re.compile(
    r"^(?:\((?P<mediator>[^()]*)\))?"
    r"(?P<label>[A-Z][A-Z_]*)"
    r"\[(?P<realization>[^\[\]]+)\]"
    r"(?:\{(?P<filler>[^{}]*)\})?$"
)


class LexiconFormatError(ValueError):
    def __init__(self, message, row_errors=None):
        details = ""
        if row_errors:
            details = ": " + "; ".join(f"line {n}: {msg}" for n, msg in row_errors[:10])
            if len(row_errors) > 10:
                details += f"; ... ({len(row_errors)} rows total)"
        super().__init__(message + details)
        self.row_errors = row_errors or []


@dataclass(frozen=True)
class FrameElement:
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


@dataclass(frozen=True)
class ArgumentSlot(FrameElement):
    """A frame element found in a tree, with where its filler sits."""

    filler_token_id: int
    surface_position: int


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


@lru_cache(maxsize=None)
def parse_frame(frame: str) -> tuple[str, tuple[FrameElement, ...]]:
    """Split a canonical frame (or frame_fillers) string into voice and
    elements; raises on anything that does not follow the layout."""
    voice, sep, rest = frame.partition("_")
    if not sep or not voice or not rest:
        raise LexiconFormatError(f"malformed frame string: {frame!r}")
    elements = []
    for chunk in rest.split(","):
        match = _ELEMENT_RE.match(chunk)
        if match is None:
            raise LexiconFormatError(f"malformed frame element: {chunk!r} in {frame!r}")
        elements.append(FrameElement(**match.groupdict()))
    return voice, tuple(elements)


@dataclass(frozen=True)
class LexiconEntry:
    author: str
    title: str
    subdoc: str
    verb: str
    voice: str
    sentence_id: int
    root_id: int
    frame: str
    frame_fillers: str


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
            entries.append(
                LexiconEntry(
                    author=tree.author,
                    title=tree.title,
                    subdoc=tree.subdoc,
                    verb=verb.lemma,
                    voice=verb.postag.voice,
                    sentence_id=tree.sentence_id,
                    root_id=verb.token_id,
                    frame=frame,
                    frame_fillers=frame_fillers,
                )
            )
    # the lexicon's row order; the stable sort keeps extraction order on ties
    entries.sort(key=attrgetter("author", "title", "verb", "sentence_id", "root_id"))
    return entries
