"""Word-vector space loading and centroid cosine-similarity distributions.

The space is consumed, never built here.  Inputs are unit-normalized
before centroid averaging so the analysis stays purely angular and no
single vector's magnitude can dominate a centroid.
"""

import itertools
import unicodedata
from dataclasses import dataclass
from pathlib import Path

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


def load_vector_space(source) -> VectorSpace:
    """Load whitespace-separated text vectors, optionally preceded by a
    ``<rows> <dims>`` header line.  Lemmas are NFC-normalized; a duplicate
    lemma overwrites the previous one and is counted.

    The file is streamed into one float64 matrix whose rows are the
    vectors.  Any fault raises a ``VectorSpaceError`` naming the first
    faulty line."""
    lemmas = []

    def bodies(lines):
        for line in lines:
            parts = line.split(None, 1)
            if parts:
                lemmas.append(unicodedata.normalize("NFC", parts[0]))
                yield parts[1] if len(parts) == 2 else ""

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
            head = next(rows, "")
            if head:
                matrix = _parse_components(itertools.chain([head], rows))
    except ValueError:  # numpy's parse errors and UnicodeDecodeError
        matrix = None  # the line-by-line pass below names the fault
    if (
        matrix is None
        or len(matrix) != len(lemmas)
        or (declared is not None and matrix.shape[1] != declared)
        or not np.isfinite(matrix).all()
    ):
        _raise_first_fault(source)
    vectors = dict(zip(lemmas, matrix))
    return VectorSpace(
        dimension=matrix.shape[1], vectors=vectors, duplicate_count=len(lemmas) - len(vectors)
    )


def _raise_first_fault(source):
    """Re-read a vector file that failed to load, line by line, and raise
    its first fault in file order."""
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
    distribution cannot be tested.
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
    center = centroid([space.vectors[lemma] for lemma in included])
    similarities = [cosine_similarity(space.vectors[lemma], center) for lemma in included]
    return SimilarityDistribution(
        verb=verb,
        group=group,
        similarities=similarities,
        included_lemmas=included,
        oov_lemmas=oov,
    )


def export_distributions(distributions, destination) -> int:
    """Write distributions as a TSV of per-lemma rows.

    Carries both the similarity and its complement (the "distance",
    1 - similarity) so either reading of the comparison can be plotted.
    """
    lines = ["verb\tgroup\tlemma\tsimilarity\tdistance"]
    for dist in distributions:
        for lemma, similarity in zip(dist.included_lemmas, dist.similarities):
            lines.append(
                f"{dist.verb}\t{dist.group}\t{lemma}"
                f"\t{format(similarity, '.12g')}\t{format(1.0 - similarity, '.12g')}"
            )
    payload = "\n".join(lines) + "\n"
    Path(destination).write_text(payload, encoding="utf-8")
    return len(payload.encode("utf-8"))
