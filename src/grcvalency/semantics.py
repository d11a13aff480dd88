"""Word-vector space loading and centroid cosine-similarity distributions.

The space is consumed, never built here.  Inputs are unit-normalized
before centroid averaging so the analysis stays purely angular and no
single vector's magnitude can dominate a centroid.
"""

import itertools
import unicodedata
from dataclasses import dataclass

import numpy as np

_DEGENERATE_NORM = 1e-12


class VectorSpaceError(ValueError):
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

    def __contains__(self, lemma):
        return lemma in self.vectors

    def __len__(self):
        return len(self.vectors)


@dataclass
class SimilarityDistribution:
    verb: str
    group: str  # "formulaic" or "baseline"
    similarities: list[float]
    included_lemmas: list[str]
    oov_lemmas: list[str]


def _is_header(parts) -> bool:
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
    except ValueError:
        return False
    return True


def _parse_components(lines):
    """numpy's C parser: one float64 row per line, ASCII decimal fields
    split on whitespace, no comment character."""
    return np.loadtxt(lines, dtype=float, comments=None, ndmin=2)


def load_vector_space(source, lemmas=None) -> VectorSpace:
    """Load whitespace-separated text vectors, optionally preceded by a
    ``<rows> <dims>`` header line.  Lemmas are NFC-normalized; a duplicate
    lemma overwrites the previous one and is counted.

    Every line is decoded, and every row must hold a lemma and at least one
    component.  The components of the rows whose lemma is in ``lemmas``
    (all rows when it is None) are streamed into one float64 matrix whose
    rows are the vectors; only those rows are checked for width, numeric
    and finite components.  Any fault raises a ``VectorSpaceError`` naming
    the first faulty line."""
    wanted = None if lemmas is None else {unicodedata.normalize("NFC", lemma) for lemma in lemmas}
    names = []  # the lemma of every row
    kept = []  # the lemma of every row parsed
    bare = False

    def bodies(lines):
        nonlocal bare
        for line in lines:
            parts = line.split(None, 1)
            if not parts:
                continue
            lemma = unicodedata.normalize("NFC", parts[0])
            names.append(lemma)
            if len(parts) == 1:
                bare = True
            elif wanted is None or lemma in wanted:
                kept.append(lemma)
                yield parts[1]

    declared = None
    matrix = None
    try:
        with open(source, encoding="utf-8") as handle:
            first = next(handle, "")
            header = first.split()
            if _is_header(header):
                declared = int(header[1])
                lines = handle
            else:
                lines = itertools.chain([first], handle)
            rows = bodies(lines)
            # an empty input would make numpy warn, not raise
            head = next(rows, None)
            if head is None:
                matrix = np.empty((0, declared or 0))
            else:
                matrix = _parse_components(itertools.chain([head], rows))
    except ValueError:  # numpy's parse errors and UnicodeDecodeError
        matrix = None  # the line-by-line pass below names the fault
    if (
        matrix is None
        or bare
        or not names
        or len(matrix) != len(kept)
        or (declared is not None and matrix.shape[1] != declared)
        or not np.isfinite(matrix).all()
    ):
        _raise_first_fault(source, wanted)
    return VectorSpace(
        dimension=matrix.shape[1],
        vectors=dict(zip(kept, matrix)),
        duplicate_count=len(names) - len(set(names)),
    )


def _raise_first_fault(source, wanted):
    """Re-read a vector file that failed to load, line by line, and raise
    its first fault in file order; the components of a row whose lemma is
    not in ``wanted`` (when it is not None) are not read."""
    dimension = None
    with open(source, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # an undecodable byte, escaped
                raise VectorSpaceError(f"line {lineno}: invalid UTF-8") from None
            parts = line.split(None, 1)
            if not parts:
                continue
            if lineno == 1:
                header = line.split()
                if _is_header(header):
                    dimension = int(header[1])
                    continue
            if len(parts) == 1:
                raise VectorSpaceError(f"line {lineno}: lemma without components")
            if wanted is not None and unicodedata.normalize("NFC", parts[0]) not in wanted:
                continue
            try:
                vector = _parse_components([parts[1]])[0]
            except ValueError:
                raise VectorSpaceError(f"line {lineno}: non-numeric vector component") from None
            if not np.all(np.isfinite(vector)):
                raise VectorSpaceError(f"line {lineno}: non-finite vector component")
            if dimension is None:
                dimension = vector.size
            if vector.size != dimension:
                raise VectorSpaceError(
                    f"line {lineno}: expected {dimension} components, got {vector.size}"
                )
    # the bulk parse fails only on a fault that the checks above name
    raise VectorSpaceError("no vectors found")


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
        zero = next(lemma for lemma in included if not np.any(space.vectors[lemma]))
        raise UndefinedSimilarityError(f"{verb}/{group}: {zero} has a zero vector") from None
    similarities = [cosine_similarity(space.vectors[lemma], center) for lemma in included]
    return SimilarityDistribution(
        verb=verb,
        group=group,
        similarities=similarities,
        included_lemmas=included,
        oov_lemmas=oov,
    )

