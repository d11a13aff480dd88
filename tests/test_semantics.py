import itertools
import math
import random
import unicodedata
import warnings

import numpy as np
import pytest

from grcvalency.semantics import (
    DegenerateCentroidError,
    InsufficientDataError,
    UndefinedSimilarityError,
    VectorSpace,
    VectorSpaceError,
    centroid,
    centroid_similarities,
    cosine_similarity,
    load_vector_space,
)


def test_load_small_file_without_header(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("ναῦς 1 0\nἵππος 0 1\nμῦθος 1 1\n", encoding="utf-8")
    space = load_vector_space(path)
    assert space.dimension == 2
    assert len(space) == 3
    assert np.allclose(space.vectors["μῦθος"], [1.0, 1.0])


def test_load_respects_declared_header(tmp_path):
    rng = random.Random(5)
    lines = ["1000 50"]
    for i in range(1000):
        lines.append(f"λ{i} " + " ".join(format(rng.random(), ".6f") for _ in range(50)))
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    space = load_vector_space(path)
    assert space.dimension == 50
    assert len(space) == 1000


def test_toy_space_loads_deterministically(toy_space, data_dir):
    assert toy_space.dimension == 3
    assert len(toy_space) == 9
    again = load_vector_space(data_dir / "toy_vectors.txt")
    assert set(again.vectors) == set(toy_space.vectors)
    for lemma, vector in again.vectors.items():
        assert np.array_equal(vector, toy_space.vectors[lemma])


def test_duplicate_lemma_last_wins(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("α 1 0\nα 0 1\nβ 1 1\n", encoding="utf-8")
    space = load_vector_space(path)
    assert space.duplicate_count == 1
    assert np.allclose(space.vectors["α"], [0.0, 1.0])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("α 1 0\nβ 1\n", "line 2"),
        ("α 1 x\n", "non-numeric"),
        ("α 1 nan\n", "non-finite"),
        ("α\n", "line 1"),
        ("", "no vectors"),
        ("2 3\nα 1 0\n", "line 2"),
        # components are ASCII decimal floats: float() took these
        ("α 1 0\nβ 1_0 2\n", "line 2: non-numeric"),
        ("α 1 0\nβ \u0661 2\n", "line 2: non-numeric"),
        ("α \uff11 0\n", "line 1: non-numeric"),
    ],
)
def test_load_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(VectorSpaceError, match=fragment):
        load_vector_space(path)


def _reference_load(path):
    """The loader as it was before the bulk parse: one Python float() per
    component, one array per line.  Returns (dimension, vectors, duplicates)."""
    vectors = {}
    dimension = None
    declared = None
    duplicates = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0])
                    declared = int(parts[1])
                except ValueError:
                    pass
                else:
                    continue
            lemma = unicodedata.normalize("NFC", parts[0])
            try:
                vector = np.array([float(x) for x in parts[1:]], dtype=float)
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric vector component")
            if vector.size == 0:
                raise ValueError(f"line {lineno}: lemma without components")
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"line {lineno}: non-finite vector component")
            if dimension is None:
                dimension = declared if declared is not None else vector.size
            if vector.size != dimension:
                raise ValueError(
                    f"line {lineno}: expected {dimension} components, got {vector.size}"
                )
            if lemma in vectors:
                duplicates += 1
            vectors[lemma] = vector
    if not vectors:
        raise ValueError("no vectors found")
    return dimension, vectors, duplicates


def _assert_same_as_reference(space, path):
    dimension, vectors, duplicates = _reference_load(path)
    assert space.dimension == dimension
    assert space.duplicate_count == duplicates
    assert list(space.vectors) == list(vectors)
    for lemma, vector in vectors.items():
        loaded = space.vectors[lemma]
        assert loaded.dtype == np.float64 and loaded.shape == vector.shape
        assert loaded.tobytes() == vector.tobytes(), (lemma, loaded, vector)


_LEMMAS = ["ἄγω", "φέρω", "ναῦς", "ἵππος", "μῦθος", "δῶρον", "λ1", "λ2", "x"]


def _component(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return repr(rng.uniform(-1, 1))
    if kind == 1:
        return format(rng.gauss(0, 1), ".17g")
    if kind == 2:  # exponents up to ±300
        return format(rng.uniform(1, 10), ".16e")[:-3] + f"{rng.randint(-300, 300):+04d}"
    if kind == 3:  # subnormals
        return repr(rng.uniform(0, 2.2e-308) * rng.choice((1, -1)))
    if kind == 4:
        return rng.choice(["4.9e-324", "-0.0", "0", "+.5", "1.", "1E5", "-7", "1.7976931348623157e308"])
    if kind == 5:
        return str(rng.randint(-1000, 1000))
    if kind == 6:
        return format(rng.uniform(-1, 1), ".5f")
    return repr(rng.uniform(-1e6, 1e6))


def _random_vector_file(rng):
    dimension = rng.randint(1, 7)
    rows = rng.randint(1, 25)
    lines = []
    if rng.random() < 0.5:
        lines.append(f"{rows} {dimension}")
    for _ in range(rows):
        lemma = rng.choice(_LEMMAS)
        if rng.random() < 0.4:
            lemma = unicodedata.normalize("NFD", lemma)
        line = lemma
        for _ in range(dimension):
            line += rng.choice([" ", "\t", "  ", " \t "]) + _component(rng)
        lines.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t"]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "  ", "\t"]))
    text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
    return text.encode("utf-8")


def test_load_matches_float_reference_bitwise(tmp_path):
    rng = random.Random(20221)
    path = tmp_path / "space.txt"
    for _ in range(300):
        path.write_bytes(_random_vector_file(rng))
        space = load_vector_space(path)
        _assert_same_as_reference(space, path)
        # the space is held as one float64 matrix, one row per vector
        matrix = next(iter(space.vectors.values())).base
        assert matrix is not None and matrix.dtype == np.float64
        assert all(vector.base is matrix for vector in space.vectors.values())


_FAULTS = {
    "non_numeric": (b"\xce\xb3 1 x 2", "non-numeric vector component"),
    "lemma_only": (b"\xce\xb3", "lemma without components"),
    "non_finite": (b"\xce\xb3 1 inf 2", "non-finite vector component"),
    "wrong_width": (b"\xce\xb3 1 2", "expected 3 components, got 2"),
    "header_width": (b"\xce\xb3 1 2 3 4", "expected 3 components, got 4"),
    "invalid_utf8": (b"\xce 1 2 3", "invalid UTF-8"),
}


@pytest.mark.parametrize("first,second", list(itertools.permutations(_FAULTS, 2)))
def test_first_fault_in_file_order_is_reported(tmp_path, first, second):
    good = b"\xce\xb1 0.5 1 2"
    # a header declares the width; without one, line 1 sets it
    line1 = b"6 3" if "header_width" in (first, second) else good
    lines = [line1, good, _FAULTS[first][0], good, _FAULTS[second][0], good]
    path = tmp_path / "faults.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(VectorSpaceError) as caught:
        load_vector_space(path)
    assert str(caught.value) == f"line 3: {_FAULTS[first][1]}"


@pytest.mark.parametrize("content", ["", "\n \n", "2 3\n", "2 3\n\n\t\n"])
def test_no_vectors_raises_without_numpy_warning(tmp_path, content):
    path = tmp_path / "empty.txt"
    path.write_text(content, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VectorSpaceError, match="^no vectors found$"):
            load_vector_space(path)


def test_lemma_only_file_raises_without_numpy_warning(tmp_path):
    path = tmp_path / "lemmas.txt"
    path.write_text("2 3\nα\nβ\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VectorSpaceError, match="^line 2: lemma without components$"):
            load_vector_space(path)


def _mutate(rng, data):
    kind = rng.randrange(4)
    if kind == 0:  # truncation, possibly inside a multi-byte character
        return data[: rng.randrange(len(data))]
    if kind == 1:  # byte flips
        data = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    if kind == 2:  # one component deleted
        lines = data.split(b"\n")
        index = rng.randrange(len(lines))
        fields = lines[index].split(b" ")
        if len(fields) > 1:
            del fields[rng.randrange(1, len(fields))]
        lines[index] = b" ".join(fields)
        return b"\n".join(lines)
    # invalid UTF-8 inserted
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]) + data[at:]


def test_fuzzed_files_load_or_raise_vector_space_error(tmp_path):
    rng = random.Random(5150)
    path = tmp_path / "fuzz.txt"
    loaded = failed = 0
    for _ in range(400):
        data = _random_vector_file(rng)
        for _ in range(rng.randint(1, 3)):
            if data:
                data = _mutate(rng, data)
        path.write_bytes(data)
        try:
            space = load_vector_space(path)
        except VectorSpaceError:
            failed += 1
            continue
        loaded += 1
        _assert_same_as_reference(space, path)
    assert loaded > 20 and failed > 20


def test_cosine_basics():
    assert cosine_similarity([1, 0], [0, 1]) == 0.0
    assert cosine_similarity([1, 2], [2, 4]) == pytest.approx(1.0, abs=1e-15)
    assert cosine_similarity([1, 0], [-1, 0]) == -1.0


def test_cosine_matches_direct_formula():
    rng = random.Random(99)
    for _ in range(100):
        d = rng.randint(2, 8)
        u = [rng.uniform(-5, 5) for _ in range(d)]
        v = [rng.uniform(-5, 5) for _ in range(d)]
        dot = math.fsum(a * b for a, b in zip(u, v))
        nu = math.sqrt(math.fsum(a * a for a in u))
        nv = math.sqrt(math.fsum(b * b for b in v))
        if nu == 0 or nv == 0:
            continue
        assert cosine_similarity(u, v) == pytest.approx(dot / (nu * nv), abs=1e-12)


def test_cosine_symmetry_and_scale_invariance():
    rng = random.Random(4)
    for _ in range(50):
        u = [rng.uniform(-2, 2) for _ in range(4)]
        v = [rng.uniform(-2, 2) for _ in range(4)]
        if not any(u) or not any(v):
            continue
        assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u), abs=1e-15)
        assert cosine_similarity([3.7 * x for x in u], v) == pytest.approx(
            cosine_similarity(u, v), abs=1e-12
        )
        assert -1.0 <= cosine_similarity(u, v) <= 1.0


def test_cosine_errors():
    with pytest.raises(UndefinedSimilarityError):
        cosine_similarity([0, 0], [1, 0])
    with pytest.raises(ValueError):
        cosine_similarity([1, 0], [1, 0, 0])


def test_centroid_of_single_vector_is_it_normalized():
    result = centroid([[3.0, 4.0]])
    assert np.allclose(result, [0.6, 0.8])


def test_centroid_antipodal_is_degenerate():
    with pytest.raises(DegenerateCentroidError):
        centroid([[1.0, 0.0], [-1.0, 0.0]])


def test_centroid_invariances():
    vectors = [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]]
    base = centroid(vectors)
    assert np.allclose(base, centroid(vectors[::-1]))
    rescaled = [list(np.array(vectors[0]) * 9.5)] + vectors[1:]
    assert np.allclose(base, centroid(rescaled))


def test_centroid_errors():
    with pytest.raises(ValueError):
        centroid([])
    with pytest.raises(UndefinedSimilarityError):
        centroid([[0.0, 0.0]])


def test_identical_vectors_give_unit_similarities():
    space = VectorSpace(2, {"α": np.array([2.0, 1.0]), "β": np.array([4.0, 2.0])})
    dist = centroid_similarities(["α", "β"], space, "φέρω", "formulaic")
    assert dist.similarities == [1.0, 1.0]


def test_tight_cluster_beats_spread_cluster():
    vectors = {}
    for i in range(6):
        angle = 0.02 * i
        vectors[f"τ{i}"] = np.array([math.cos(angle), math.sin(angle)])
    for i in range(6):
        angle = 0.45 * i
        vectors[f"σ{i}"] = np.array([math.cos(angle), math.sin(angle)])
    space = VectorSpace(2, vectors)
    tight = centroid_similarities([f"τ{i}" for i in range(6)], space, "x", "formulaic")
    spread = centroid_similarities([f"σ{i}" for i in range(6)], space, "x", "baseline")
    median = lambda xs: sorted(xs)[len(xs) // 2]
    assert median(tight.similarities) > median(spread.similarities)


def test_oov_lemmas_are_excluded_but_counted(toy_space):
    dist = centroid_similarities(
        ["ναῦς", "θάλασσα", "ἄγνωστος"], toy_space, "ἄγω", "baseline"
    )
    assert dist.oov_lemmas == ["ἄγνωστος"]
    assert dist.included_lemmas == ["ναῦς", "θάλασσα"]
    assert len(dist.similarities) == 2
    assert len(dist.similarities) + len(dist.oov_lemmas) == 3
    assert all(-1.0 <= s <= 1.0 for s in dist.similarities)


def test_insufficient_vocabulary_is_an_error(toy_space):
    with pytest.raises(InsufficientDataError):
        centroid_similarities(["ναῦς", "ἄγνωστος"], toy_space, "ἄγω", "baseline")


def test_export_distributions(toy_space, tmp_path):
    from grcvalency.semantics import export_distributions

    dist = centroid_similarities(["ναῦς", "θάλασσα"], toy_space, "ἄγω", "baseline")
    path = tmp_path / "dist.tsv"
    byte_count = export_distributions([dist], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert byte_count == path.stat().st_size
    assert lines[0] == "verb\tgroup\tlemma\tsimilarity\tdistance"
    assert len(lines) == 3
    verb, group, lemma, similarity, distance = lines[1].split("\t")
    assert (verb, group, lemma) == ("ἄγω", "baseline", "ναῦς")
    assert float(similarity) + float(distance) == pytest.approx(1.0, abs=1e-12)
