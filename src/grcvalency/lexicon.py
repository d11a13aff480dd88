"""Lexicon persistence (flat TSV), aggregation tables, and queries.

The on-disk form is a nine-column UTF-8 TSV; a compatibility flag drops
the root_id column to match the eight-column published layout.  Queries
that need slot-level detail (realization, mediator) parse the frame
strings rather than re-deriving anything from the source treebank, so a
lexicon file is self-sufficient.
"""

import os
import re
import tempfile
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .frames import LexiconEntry

FORMAT_VERSION = "1"

COLUMNS = (
    "author",
    "title",
    "subdoc",
    "verb",
    "voice",
    "sentence_id",
    "root_id",
    "frame",
    "frame_fillers",
)

FIGURE1_COLUMNS = tuple(c for c in COLUMNS if c != "root_id")

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
    mediator: str | None
    label: str
    realization: str
    filler: str | None

    @property
    def base_relation(self) -> str:
        return self.label.split("_")[0]


@dataclass
class ConstructionRecord:
    verb: str
    frame: str
    count: int
    authors: set[str]


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
        elements.append(
            FrameElement(
                mediator=match["mediator"],
                label=match["label"],
                realization=match["realization"],
                filler=match["filler"],
            )
        )
    return voice, tuple(elements)


class Lexicon:
    """Entry list plus a by-verb index built on load."""

    def __init__(self, entries):
        self.entries = list(entries)
        self.by_verb = defaultdict(list)
        for entry in self.entries:
            self.by_verb[entry.verb].append(entry)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _nfc(value: str) -> str:
    if "\t" in value or "\n" in value:
        raise ValueError(f"field would corrupt the TSV layout: {value!r}")
    return unicodedata.normalize("NFC", value)


def write_lexicon(lexicon, destination, figure1_layout: bool = False) -> int:
    """Serialize to TSV via a temp file and atomic rename; returns bytes written."""
    destination = Path(destination)
    columns = FIGURE1_COLUMNS if figure1_layout else COLUMNS
    lines = ["\t".join(columns)]
    for entry in lexicon:
        row = [
            _nfc(entry.author),
            _nfc(entry.title),
            _nfc(entry.subdoc),
            _nfc(entry.verb),
            entry.voice,
            str(entry.sentence_id),
            str(entry.root_id),
            _nfc(entry.frame),
            _nfc(entry.frame_fillers),
        ]
        if figure1_layout:
            del row[6]
        lines.append("\t".join(row))
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    fd, temp_path = tempfile.mkstemp(dir=destination.parent, prefix=destination.name)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)
        os.replace(temp_path, destination)
    except BaseException:
        os.unlink(temp_path)
        raise
    return len(payload)


def read_lexicon(source, lenient: bool = False) -> Lexicon:
    """Read a nine-column lexicon TSV.

    Any malformed row rejects the whole file unless ``lenient`` is set,
    in which case bad rows are skipped and kept on ``Lexicon.row_errors``.
    """
    text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise LexiconFormatError("empty lexicon file (missing header)")
    header = tuple(lines[0].split("\t"))
    if header != COLUMNS:
        raise LexiconFormatError(f"unexpected header {header!r}")
    entries = []
    row_errors = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(COLUMNS):
            row_errors.append((lineno, f"expected {len(COLUMNS)} columns, got {len(fields)}"))
            continue
        try:
            sentence_id = int(fields[5])
            root_id = int(fields[6])
        except ValueError:
            row_errors.append((lineno, "sentence_id and root_id must be integers"))
            continue
        entries.append(
            LexiconEntry(
                author=fields[0],
                title=fields[1],
                subdoc=fields[2],
                verb=fields[3],
                voice=fields[4],
                sentence_id=sentence_id,
                root_id=root_id,
                frame=fields[7],
                frame_fillers=fields[8],
            )
        )
    if row_errors and not lenient:
        raise LexiconFormatError("lexicon file rejected", row_errors)
    lexicon = Lexicon(entries)
    lexicon.row_errors = row_errors
    return lexicon


def stats_basic(lexicon) -> dict:
    return {
        "entries": len(lexicon.entries),
        "unique_verb_lemmas": len({e.verb for e in lexicon.entries}),
        "unique_frames": len({e.frame for e in lexicon.entries}),
        "unique_frame_fillers": len({e.frame_fillers for e in lexicon.entries}),
    }


def stats_by_author(lexicon) -> list[tuple[str, int]]:
    """Per-author entry counts sorted by author, with a TOTAL row appended."""
    counts = Counter(e.author for e in lexicon.entries)
    rows = sorted(counts.items())
    rows.append(("TOTAL", len(lexicon.entries)))
    return rows


def frame_frequencies(lexicon, top_k: int | None = None) -> list[tuple[str, int]]:
    """Most frequent frames, descending; ties broken lexicographically."""
    if top_k is not None and top_k < 0:
        raise ValueError(f"top_k must be non-negative, got {top_k}")
    counts = Counter(e.frame for e in lexicon.entries)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if top_k is not None:
        ranked = ranked[:top_k]
    return ranked


def _matches(entry, verb, author, title, voice, frame_contains, realization, mediator):
    if verb is not None and entry.verb != verb:
        return False
    if author is not None and entry.author != author:
        return False
    if title is not None and entry.title != title:
        return False
    if voice is not None and entry.voice != voice:
        return False
    if frame_contains is not None and frame_contains not in entry.frame:
        return False
    if realization is not None or mediator is not None:
        _, elements = parse_frame(entry.frame)
        if realization is not None and all(el.realization != realization for el in elements):
            return False
        if mediator is not None and all(el.mediator != mediator for el in elements):
            return False
    return True


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
    """Conjunctive filtering; returns an order-preserving subset."""
    return [
        entry
        for entry in lexicon.entries
        if _matches(entry, verb, author, title, voice, frame_contains, realization, mediator)
    ]


def constructions_for_verb(
    lexicon,
    verb: str,
    min_count: int = 1,
    min_authors: int = 1,
) -> list[ConstructionRecord]:
    """Distinct frames of a verb with counts and author sets, thresholded."""
    counts = Counter()
    authors = defaultdict(set)
    for entry in lexicon.by_verb.get(verb, ()):
        counts[entry.frame] += 1
        authors[entry.frame].add(entry.author)
    records = [
        ConstructionRecord(verb=verb, frame=frame, count=count, authors=authors[frame])
        for frame, count in counts.items()
        if count >= min_count and len(authors[frame]) >= min_authors
    ]
    records.sort(key=lambda r: (-r.count, r.frame))
    return records


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
