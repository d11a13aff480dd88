"""Word-vector space loading and centroid cosine-similarity distributions.

The space is consumed, never built here.  Inputs are unit-normalized
before centroid averaging so the analysis stays purely angular and no
single vector's magnitude can dominate a centroid.
"""

import codecs
import itertools
import re
import unicodedata
from dataclasses import dataclass

import numpy as np

from .output import InputError

_DEGENERATE_NORM = 1e-12
# surrogateescape reads each undecodable byte as a lone surrogate
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# a header field: int() alone would also read "1_0" and non-ASCII digits
_INTEGER = re.compile("[-+]?[0-9]+")
# whitespace to str.split but not to bytes.split
_STR_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"
# a large buffer: the binary line iteration is then far cheaper than text mode's
_READ_BUFFER = 1 << 20


class VectorSpaceError(InputError):
    """Bad vector file: inconsistent dimension, non-numeric data, and kin."""


class UndefinedSimilarityError(ValueError):
    """Cosine similarity against a zero vector is undefined."""


class DegenerateCentroidError(ValueError):
    """The unit-normalized inputs cancel out to a (near-)zero centroid."""


class InsufficientDataError(ValueError):
    """Fewer than two in-vocabulary lemmas: no distribution to compare."""


@dataclass
class VectorSpace:
    dimension: int
    vectors: dict[str, np.ndarray]
    duplicate_count: int = 0

    def __len__(self):
        return len(self.vectors)


@dataclass
class SimilarityDistribution:
    similarities: list[float]
    included_lemmas: list[str]
    oov_lemmas: list[str]


def _header(line, source):
    """Line 1's ``(rows, dims)`` when its text is two integers, each ASCII
    digits with an optional sign, else None; raises unless they declare 0 or
    more rows of 1 or more components."""
    fields = line.decode("utf-8", "surrogateescape").split()
    if len(fields) != 2 or not all(map(_INTEGER.fullmatch, fields)):
        return None
    rows, dims = map(int, fields)
    if rows < 0 or dims < 1:
        detail = f"header needs 0+ rows of 1+ components, got {rows} {dims}"
        raise VectorSpaceError([(1, detail)], source)
    return rows, dims


def _parse_components(lines):
    """numpy's C parser: one float64 row per line, ASCII decimal fields
    split on whitespace, no comment character."""
    return np.loadtxt(lines, dtype=float, comments=None, ndmin=2)


def _lines(handle):
    """The lines of a binary file after a leading UTF-8 byte order mark, cut
    where text mode's universal newlines cut them: at ``\\n``, ``\\r\\n``
    and a lone ``\\r``."""
    if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
        handle.seek(0)
    for line in handle:
        if b"\r" in line:
            yield from line.splitlines()
        else:
            yield line


def _bytes_lemma(parts):
    """The lemma of a line split on its bytes into ``parts``, or None when
    the line must be decoded whole: its lemma is not printable UTF-8, or
    its components are not ASCII or start with whitespace that only
    ``str.split`` sees."""
    if len(parts) == 2 and not (parts[1].isascii() and parts[1][0] not in _STR_ONLY_SPACE):
        return None
    try:
        lemma = parts[0].decode("utf-8")
    except UnicodeDecodeError:
        return None
    return lemma if lemma.isprintable() else None


def load_vector_space(source, lemmas=None) -> VectorSpace:
    """Load whitespace-separated text vectors, optionally preceded by a
    ``<rows> <dims>`` header line; ``<rows>`` counts every row, the rows
    not in ``lemmas`` and duplicates included.  Lemmas are NFC-normalized;
    a duplicate lemma overwrites the previous one and is counted.

    Line 1 is a header when its text is two integers, judged before any
    row: 0 or more rows of 1 or more components.  One streaming read then
    judges every line in file order: it stops at the
    first undecodable line or lemma without components, and streams the
    components of the rows whose lemma is in ``lemmas`` (all rows when it
    is None) into one float64 matrix whose rows are the vectors.  Only
    those rows are checked for width, numeric and finite components; a
    fault there makes the loader read the file again to name its line.
    Any fault raises a ``VectorSpaceError`` naming the first faulty line.

    The file is read as bytes, without a leading UTF-8 byte order mark, and
    cut into lines where text mode would cut it.  A line whose lemma is
    printable UTF-8 and whose components are ASCII is split on its bytes;
    only its lemma, and the components of a row parsed, are decoded.  Every
    other line is decoded whole and split as text: a lemma that is
    not printable UTF-8, components that are not ASCII, and components that
    start with one of ``\\x1c``-``\\x1f``, which ``str.split`` takes for
    whitespace and ``bytes.split`` does not.  Either way a line gives the
    lemma and components that splitting its decoded text would give."""
    wanted = None if lemmas is None else {unicodedata.normalize("NFC", lemma) for lemma in lemmas}
    names = []  # the lemma of every row
    kept = []  # the lemma of every row parsed
    linenos = []  # the line number of every row parsed
    fault = None

    def bodies(lines):
        nonlocal fault
        for lineno, raw in enumerate(lines, start=1):
            parts = raw.split(None, 1)
            if not parts:
                continue
            lemma = _bytes_lemma(parts)
            if lemma is None:
                line = raw.decode("utf-8", "surrogateescape")
                parts = line.split(None, 1)
                if not parts:
                    continue
                if _ESCAPED_BYTE.search(line):
                    fault = (lineno, "invalid UTF-8")
                    return
                lemma = parts[0]
            if len(parts) == 1:
                fault = (lineno, "lemma without components")
                return
            lemma = unicodedata.normalize("NFC", lemma)
            names.append(lemma)
            if wanted is None or lemma in wanted:
                kept.append(lemma)
                linenos.append(lineno)
                components = parts[1]
                yield components.decode("ascii") if isinstance(components, bytes) else components

    with open(source, "rb", buffering=_READ_BUFFER) as handle:
        lines = _lines(handle)
        first = next(lines, b"")
        header = _header(first, source)
        # a header is read as a blank line, so the rows keep their line numbers
        rows = bodies(itertools.chain([b"" if header else first], lines))
        # an empty input would make numpy warn, not raise
        head = next(rows, None)
        declared = header and header[1]
        try:
            matrix = (
                _parse_components(itertools.chain([head], rows)) if head else np.empty((0, declared or 0))
            )
        except ValueError:  # numpy's parse errors
            matrix = None
    if (
        matrix is None
        or len(matrix) != len(kept)
        or (declared is not None and matrix.shape[1] != declared)
        or not np.isfinite(matrix).all()
    ):
        # the rows parsed all come before the line that stopped the read
        fault = _first_component_fault(source, linenos, declared) or fault
    if not fault and header and (excess := header[0] - len(names)):
        more = "more" if excess > 0 else "fewer"
        fault = (1, f"header declares {abs(excess)} row(s) {more} than the file holds")
    if fault or matrix is None or not names:
        raise VectorSpaceError([fault] if fault else "no vectors found", source)
    return VectorSpace(
        dimension=matrix.shape[1],
        vectors=dict(zip(kept, matrix)),
        duplicate_count=len(names) - len(set(names)),
    )


def _first_component_fault(source, linenos, dimension):
    """Parse the rows at ``linenos`` again, one by one: ``(line, detail)``
    of the first with a non-numeric or non-finite component or a width other
    than ``dimension`` (else the first row's), or None if all are sound."""
    rows = set(linenos)
    with open(source, "rb", buffering=_READ_BUFFER) as handle:
        for lineno, raw in enumerate(_lines(handle), start=1):
            if lineno not in rows:
                continue
            # on a row the bytes path parsed, the text split gives its components too
            line = raw.decode("utf-8", "surrogateescape")
            try:
                vector = _parse_components([line.split(None, 1)[1]])[0]
            except ValueError:
                return lineno, "non-numeric vector component"
            if not np.isfinite(vector).all():
                return lineno, "non-finite vector component"
            if dimension is None:
                dimension = vector.size
            if vector.size != dimension:
                return lineno, f"expected {dimension} components, got {vector.size}"
    return None


def cosine_similarity(u, v) -> float:
    """dot(u, v) / (|u| |v|), clamped into [-1, 1] against rounding."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        raise UndefinedSimilarityError("cosine similarity of a zero vector is undefined")
    value = float(np.dot(u, v)) / (norm_u * norm_v)
    return max(-1.0, min(1.0, value))


def centroid(vectors) -> np.ndarray:
    """Componentwise mean of the unit-normalized inputs."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        raise ValueError("centroid of an empty list")
    matrix = np.vstack(rows)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        raise UndefinedSimilarityError("cannot unit-normalize a zero vector")
    mean = (matrix / norms[:, None]).mean(axis=0)
    if float(np.linalg.norm(mean)) < _DEGENERATE_NORM:
        raise DegenerateCentroidError("inputs cancel out; centroid is degenerate")
    return mean


def centroid_similarities(lemmas, space: VectorSpace, verb: str, group: str) -> SimilarityDistribution:
    """Cosine of every in-vocabulary lemma's vector to their common centroid.

    Out-of-vocabulary lemmas are excluded but recorded, never silently
    dropped; fewer than two survivors is an error because a one-point
    distribution cannot be tested, and a zero vector, which has no
    direction, raises :class:`UndefinedSimilarityError` naming its lemma.
    """
    included = []
    oov = []
    for lemma in lemmas:
        lemma = unicodedata.normalize("NFC", lemma)
        (included if lemma in space.vectors else oov).append(lemma)
    if len(included) < 2:
        raise InsufficientDataError(
            f"{verb}/{group}: {len(included)} lemma(s) in vocabulary, need at least 2"
        )
    try:
        center = centroid([space.vectors[lemma] for lemma in included])
    except UndefinedSimilarityError:
        # centroid's own test: a length of 0, all zeros or squares that underflow
        zero = next(lemma for lemma in included if not np.linalg.norm(space.vectors[lemma]))
        raise UndefinedSimilarityError(f"{verb}/{group}: {zero} has a zero vector") from None
    similarities = [cosine_similarity(space.vectors[lemma], center) for lemma in included]
    return SimilarityDistribution(similarities=similarities, included_lemmas=included, oov_lemmas=oov)

