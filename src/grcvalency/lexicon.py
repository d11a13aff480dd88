"""The lexicon's read side: the TSV reader, aggregation tables, and queries.

The TSV layout and its writer live in :mod:`grcvalency.frames`, which
imports no numpy, so ``extract`` never loads this module.
:func:`read_lexicon` streams the file, puts every row in NFC and shares
equal query-column strings.  Queries that need slot-level detail
(realization, mediator) parse the frame strings rather than re-deriving
anything from the source treebank, so a lexicon file is self-sufficient.

Entry filters, construction inventories and aggregates read columns that
every ``Lexicon`` builds with its entries: interned numpy codes, each verb's
rows and per-value masks over frame codes for the realization and mediator
filters, then on first use one ready (frame, count, authors) row per
(verb, frame), ranked per verb, for the inventories.
"""

import collections
import sys
import unicodedata
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from .frames import (
    COLUMNS, FRAME_GRAMMAR, LexiconEntry, LexiconFormatError, frame_fault, parse_frame,
)
from .output import read_lines


@dataclass
class ConstructionRecord:
    verb: str
    frame: str
    count: int
    authors: set[str]


def _intern(values) -> tuple[np.ndarray, dict[str, int]]:
    """Codes of ``values`` and the value→code dict; codes follow the sorted
    distinct values, so code order is string order."""
    index = {value: code for code, value in enumerate(sorted(set(values)))}
    return np.fromiter(map(index.__getitem__, values), np.intp, len(values)), index


class Lexicon:
    """Entries and the columns that queries, construction inventories and
    aggregates read, all built with the lexicon: interned numpy codes of
    author, title, voice, frame and verb, each verb's rows in entry order,
    and one mask over frame codes per realization value and per mediator
    value, for which every distinct frame is parsed; a frame that does not
    parse raises :class:`LexiconFormatError`.  ``frame_fillers`` is parsed
    only where it is read; a lexicon from :func:`read_lexicon` has had both
    columns judged.

    :attr:`groups`, one ready inventory row per (verb, frame), is built on the
    first construction query.  Nothing is rebuilt, so ``entries`` must not
    change after construction.
    """

    INTERNED = ("author", "title", "voice", "frame", "verb")

    def __init__(self, entries):
        self.entries = list(entries)
        # an object array, so a query takes its rows with one numpy index
        self.entry_array = np.empty(len(self.entries), dtype=object)
        self.entry_array[:] = self.entries
        self.codes, self.index = {}, {}
        for name in self.INTERNED:
            self.codes[name], self.index[name] = _intern(list(map(attrgetter(name), self.entries)))
        self.frames = list(self.index["frame"])
        # one stable sort groups each verb's rows, in entry order
        self.verb_order = np.argsort(self.codes["verb"], kind="stable")
        self.verb_starts = np.concatenate(
            ([0], np.cumsum(np.bincount(self.codes["verb"], minlength=len(self.index["verb"]))))
        )
        self.masks = {"realization": {}, "mediator": {}}  # slot -> value -> frame-code mask
        for code, frame in enumerate(self.frames):
            _, elements = parse_frame(frame)
            for element in elements:
                for slot, masks in self.masks.items():
                    value = getattr(element, slot)
                    if value not in masks:
                        masks[value] = np.zeros(len(self.frames), dtype=bool)
                    masks[value][code] = True

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def verb_rows(self, verb: str) -> np.ndarray:
        """Positions in ``entries`` of the verb's entries, in entry order;
        empty for a verb the lexicon does not hold."""
        code = self.index["verb"].get(verb)
        if code is None:
            return self.verb_order[:0]
        return self.verb_order[self.verb_starts[code] : self.verb_starts[code + 1]]

    @cached_property
    def unique_frame_fillers(self) -> int:
        return len(set(map(attrgetter("frame_fillers"), self.entries)))

    @cached_property
    def groups(self) -> tuple[list[int], list[tuple[str, int, list[str]]]]:
        """``(bounds, rows)``: one ``(frame, count, authors)`` row per distinct
        (verb, frame), each verb's rows ranked by (-count, frame); rows
        ``bounds[v]:bounds[v + 1]`` are verb code ``v``'s.  A row's authors
        are its distinct authors, in code order."""
        verb, frame, author = (self.codes[name] for name in ("verb", "frame", "author"))
        order = np.lexsort((author, frame, verb))
        verb, frame, author = verb[order], frame[order], author[order]
        size = len(order)
        new_group = np.ones(size, dtype=bool)
        new_group[1:] = (verb[1:] != verb[:-1]) | (frame[1:] != frame[:-1])
        new_author = new_group.copy()
        new_author[1:] |= author[1:] != author[:-1]
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], size)
        # each distinct (verb, frame, author) once, in sorted order
        author_rows = np.flatnonzero(new_author)
        author_lo = np.searchsorted(author_rows, starts)
        author_hi = np.searchsorted(author_rows, ends)
        counts = ends - starts
        group_verb, group_frame = verb[starts], frame[starts]
        # frame codes follow string order, so this ranks by (-count, frame)
        rank = np.lexsort((group_frame, -counts, group_verb))
        bounds = np.searchsorted(group_verb[rank], np.arange(len(self.index["verb"]) + 1))
        author_names = list(self.index["author"])
        authors = [author_names[code] for code in author[author_rows].tolist()]
        rows = [
            (self.frames[code], count, authors[lo:hi])
            for code, count, lo, hi in zip(
                group_frame[rank].tolist(),
                counts[rank].tolist(),
                author_lo[rank].tolist(),
                author_hi[rank].tolist(),
            )
        ]
        return bounds.tolist(), rows


def read_lexicon(source) -> Lexicon:
    """Read a lexicon TSV in the full layout, :data:`COLUMNS`.

    The rows stream from :func:`~grcvalency.output.read_lines`, each is put
    in NFC, and each value of the :attr:`Lexicon.INTERNED` columns is
    ``sys.intern``ed, so equal values are one string.  A malformed row rejects the whole file, and the error names
    each faulty line in line order: a wrong column count, non-integer ids, or
    a ``frame`` or ``frame_fillers`` string that :data:`FRAME_GRAMMAR`, the
    rule :func:`parse_frame` reads by, rejects.  Each distinct string is
    judged once, and a bad one is named at the first line that holds it.
    """
    return Lexicon(_read_entries(read_lines(source)))


def _read_entries(lines) -> list[LexiconEntry]:
    rows = (unicodedata.normalize("NFC", line) for line in lines)
    header = next(rows, None)
    if header is None:
        raise LexiconFormatError("empty lexicon file (missing header)")
    header = tuple(header.split("\t"))
    if header != COLUMNS:
        collections.deque(rows, maxlen=0)  # an undecodable byte further on wins
        raise LexiconFormatError(f"unexpected header {header!r}")
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
            row_errors.append((lineno, frame_fault(text)))
    if row_errors:
        raise LexiconFormatError("lexicon file rejected", sorted(row_errors))
    return entries


def stats_basic(lexicon) -> dict:
    return {
        "entries": len(lexicon.entries),
        "unique_verb_lemmas": len(lexicon.index["verb"]),
        "unique_frames": len(lexicon.frames),
        "unique_frame_fillers": lexicon.unique_frame_fillers,
    }


def _counts(lexicon, name) -> np.ndarray:
    """Entry count per code of an interned column."""
    return np.bincount(lexicon.codes[name], minlength=len(lexicon.index[name]))


def stats_by_author(lexicon) -> list[tuple[str, int]]:
    """Per-author entry counts sorted by author, with a TOTAL row appended."""
    rows = list(zip(lexicon.index["author"], _counts(lexicon, "author").tolist()))
    rows.append(("TOTAL", len(lexicon.entries)))
    return rows


def frame_frequencies(lexicon, top_k: int | None = None) -> list[tuple[str, int]]:
    """Most frequent frames, descending; ties broken lexicographically."""
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    counts = _counts(lexicon, "frame")
    # frame codes are in string order, so a stable sort breaks ties by frame
    ranked = np.argsort(-counts, kind="stable")[:top_k]
    return list(zip([lexicon.frames[code] for code in ranked.tolist()], counts[ranked].tolist()))


def query_entries(
    lexicon,
    verb: str | None = None,
    author: str | None = None,
    title: str | None = None,
    voice: str | None = None,
    frame_contains: str | None = None,
    realization: str | None = None,
    mediator: str | None = None,
) -> list[LexiconEntry]:
    """Conjunctive filtering into a new, order-preserving list.

    Rows start from all entries or the verb's and are narrowed by author,
    title and voice on their codes.  The frame filters then pick frame
    codes: the substring test runs on every distinct frame when no row
    filter was given, else on the distinct frames of the rows left, and
    the realization and mediator masks are ANDed in.
    """
    rows = None  # every row
    if verb is not None:
        rows = lexicon.verb_rows(verb)
        if not len(rows):
            return []
    for name, value in (("author", author), ("title", title), ("voice", voice)):
        if value is None:
            continue
        code = lexicon.index[name].get(value)
        if code is None:
            return []
        codes = lexicon.codes[name]
        rows = np.flatnonzero(codes == code) if rows is None else rows[codes[rows] == code]
    if frame_contains is not None or realization is not None or mediator is not None:
        frame_codes = lexicon.codes["frame"] if rows is None else lexicon.codes["frame"][rows]
        keep = None  # every frame
        if frame_contains is not None:
            frames = lexicon.frames
            # every distinct frame is some entry's; with rows left, only theirs,
            # which keeps a verb's search to its few frames
            candidates = (
                range(len(frames))
                if rows is None
                else np.flatnonzero(np.bincount(frame_codes, minlength=len(frames))).tolist()
            )
            keep = np.zeros(len(frames), dtype=bool)
            keep[[code for code in candidates if frame_contains in frames[code]]] = True
        for slot, value in (("realization", realization), ("mediator", mediator)):
            if value is not None:
                mask = lexicon.masks[slot].get(value)
                if mask is None:
                    return []
                keep = mask if keep is None else keep & mask
        hits = keep[frame_codes]
        rows = np.flatnonzero(hits) if rows is None else rows[hits]
    return list(lexicon.entries) if rows is None else lexicon.entry_array[rows].tolist()


def constructions_for_verb(
    lexicon,
    verb: str,
    min_count: int = 1,
    min_authors: int = 1,
) -> list[ConstructionRecord]:
    """Distinct frames of a verb with counts and author sets, thresholded,
    ranked by descending count and then frame."""
    code = lexicon.index["verb"].get(verb)
    if code is None:
        return []
    bounds, rows = lexicon.groups
    return [
        ConstructionRecord(verb, frame, count, set(authors))
        for frame, count, authors in rows[bounds[code] : bounds[code + 1]]
        if count >= min_count and len(authors) >= min_authors
    ]


def diff_constructions(
    lexicon,
    verb: str,
    known_frames,
) -> tuple[list[ConstructionRecord], list[str]]:
    """Frames attested for the verb but absent from a user-supplied list,
    and vice versa."""
    records = constructions_for_verb(lexicon, verb)
    known = list(dict.fromkeys(known_frames))
    known_set = set(known)
    attested = {record.frame for record in records}
    only_in_lexicon = [record for record in records if record.frame not in known_set]
    only_in_known = [frame for frame in known if frame not in attested]
    return only_in_lexicon, only_in_known
