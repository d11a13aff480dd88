import builtins
import itertools
import math
import random
import re
import unicodedata
import warnings
from collections import Counter

import numpy as np
import pytest

from grcvalency import semantics
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


def _rejection(path, detail):
    """The whole text of the rejection of ``path`` with ``detail``, as a pattern."""
    return f"^{re.escape(f'{path}: {detail}')}$"


def test_only_line_one_can_be_the_header(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("α 1\n2 3\n", encoding="utf-8")
    assert {lemma: list(vector) for lemma, vector in load_vector_space(path).vectors.items()} == {
        "α": [1.0],
        "2": [3.0],
    }
    path.write_text("\n2 3\nα 1 2 3\n", encoding="utf-8")
    message = _rejection(path, "line 3: expected 1 components, got 3")
    with pytest.raises(VectorSpaceError, match=message):
        load_vector_space(path)


def _reference_header(text):
    """The two integers of a line that is two integers of ASCII digits,
    each with an optional sign, else None."""
    parts = text.split()
    digits = [part[1:] if part[0] in "+-" else part for part in parts]
    if len(parts) != 2 or not all(d.isascii() and d.isdigit() for d in digits):
        return None
    return int(parts[0]), int(parts[1])


def _bad_header(header):
    return header[0] < 0 or header[1] < 1


@pytest.mark.parametrize("line1", ["1_0 2", "\u0662 2"])
def test_line_one_is_a_header_only_when_both_fields_are_ascii_digits(tmp_path, line1):
    # int() reads both as integers, but neither is a component's number
    path = tmp_path / "space.txt"
    path.write_text(f"{line1}\n\u03b1 1\n", encoding="utf-8")
    assert {lemma: list(vector) for lemma, vector in load_vector_space(path).vectors.items()} == {
        line1.split()[0]: [2.0],
        "\u03b1": [1.0],
    }
    assert _reference_header(line1) is None


def test_a_signed_header_is_a_header(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("+2 2\n\u03b1 1 0\n\u03b2 0 1\n", encoding="utf-8")
    space = load_vector_space(path)
    assert (space.dimension, len(space)) == (2, 2)
    assert _reference_header("+2 2") == (2, 2)


def _reference_load(path):
    """The loader as it was before the bulk parse: one Python float() per
    component, one array per line, with a leading byte order mark dropped,
    and line 1 a header of 0 or more rows of 1 or more components when it
    is two integers.  Returns (dimension, vectors, duplicates)."""
    vectors = {}
    dimension = None
    declared = None
    duplicates = 0
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and (header := _reference_header(line)):
                if _bad_header(header):
                    raise ValueError(
                        f"line 1: header needs 0+ rows of 1+ components, got {header[0]} {header[1]}"
                    )
                declared = header[1]
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
    assert str(caught.value) == f"{path}: line 3: {_FAULTS[first][1]}"


@pytest.mark.parametrize(
    "fault,opens", [(None, 1), ("lemma_only", 1), ("invalid_utf8", 1), ("non_numeric", 2)]
)
def test_only_a_component_fault_reads_the_file_again(tmp_path, monkeypatch, fault, opens):
    path = tmp_path / "space.txt"
    row = b"\xce\xb3 1 2 3" if fault is None else _FAULTS[fault][0]
    path.write_bytes(b"\xce\xb1 0.5 1 2\n" + row + b"\n\xce\xb4 1 2 3\n")
    opened = []

    def spy(file, *args, **kwargs):
        opened.append(file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(semantics, "open", spy, raising=False)  # shadows the builtin
    if fault is None:
        assert len(load_vector_space(path)) == 3
    else:
        message = _rejection(path, f"line 2: {_FAULTS[fault][1]}")
        with pytest.raises(VectorSpaceError, match=message):
            load_vector_space(path)
    assert opened == [path] * opens


@pytest.mark.parametrize("content", ["", "\n \n", "0 3\n", "0 3\n\n\t\n"])
def test_no_vectors_raises_without_numpy_warning(tmp_path, content):
    path = tmp_path / "empty.txt"
    path.write_text(content, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VectorSpaceError, match=_rejection(path, "no vectors found")):
            load_vector_space(path)


def _header_fault(path, lemmas=None):
    with pytest.raises(VectorSpaceError) as caught:
        load_vector_space(path, lemmas)
    return str(caught.value)


@pytest.mark.parametrize("lemmas", [None, {"\u03b1"}, set()])
@pytest.mark.parametrize("header,count", [("3 2", "1 row(s) more"), ("100 2", "98 row(s) more"),
                                          ("1 2", "1 row(s) fewer")])
def test_a_header_must_count_every_row(tmp_path, lemmas, header, count):
    path = tmp_path / "space.txt"
    path.write_text(f"{header}\n\u03b1 1 0\n\u03b2 0 1\n", encoding="utf-8")
    assert _header_fault(path, lemmas) == (
        f"{path}: line 1: header declares {count} than the file holds"
    )


@pytest.mark.parametrize("lemmas", [None, set(), {"\u03b1"}])
@pytest.mark.parametrize("header", ["2 -3", "2 0", "-2 3"])
@pytest.mark.parametrize("later", [b"", b"\xff 1 2 3\n"])
def test_a_header_must_declare_a_count_and_a_width(tmp_path, lemmas, header, later):
    # judged at line 1, before any row: a bad byte further on does not win
    path = tmp_path / "space.txt"
    path.write_bytes(f"{header}\n\u03b1 1 2 3\n\u03b2 4 5 6\n".encode() + later)
    assert _header_fault(path, lemmas) == (
        f"{path}: line 1: header needs 0+ rows of 1+ components, got {header}"
    )


def test_a_header_counts_duplicates_and_not_blank_lines(tmp_path):
    path = tmp_path / "space.txt"
    path.write_text("3 2\n\u03b1 1 0\n\n \n\u03b1 0 1\r\n\u03b2 1 1\n\n", encoding="utf-8")
    space = load_vector_space(path)
    assert (len(space), space.duplicate_count) == (2, 1)
    path.write_text("2 2\n\u03b1 1 0\n\n\u03b1 0 1\n\u03b2 1 1\n", encoding="utf-8")
    assert _header_fault(path) == (
        f"{path}: line 1: header declares 1 row(s) fewer than the file holds"
    )


@pytest.mark.parametrize("content", ["2 3\n", "2 3\n\n\t\n"])
def test_a_header_without_rows_raises_without_numpy_warning(tmp_path, content):
    path = tmp_path / "empty.txt"
    path.write_text(content, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _header_fault(path) == (
            f"{path}: line 1: header declares 2 row(s) more than the file holds"
        )


def test_lemma_only_file_raises_without_numpy_warning(tmp_path):
    path = tmp_path / "lemmas.txt"
    path.write_text("2 3\nα\nβ\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = _rejection(path, "line 2: lemma without components")
        with pytest.raises(VectorSpaceError, match=message):
            load_vector_space(path)


# characters a split on bytes could read otherwise than a split on text:
# whitespace to str.split alone, a BOM, and a lone \r, which text mode's
# universal newlines ends a line at and bytes iteration does not
_TEXT_ONLY_BREAKS = ["\u00a0", "\u2028", "\u0085", "\ufeff", "\x1c", "\x1d", "\x1e", "\x1f", "\r"]


def _mutate(rng, data):
    kind = rng.randrange(5)
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
    at = rng.randrange(len(data) + 1)
    if kind == 3:  # invalid UTF-8 inserted
        return data[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]) + data[at:]
    return data[:at] + rng.choice(_TEXT_ONLY_BREAKS).encode("utf-8") + data[at:]


def _reference_outcome(path):
    try:
        dimension, vectors, duplicates = _reference_load(path)
    except ValueError as exc:
        return str(exc)
    return dimension, {lemma: vector.tobytes() for lemma, vector in vectors.items()}, duplicates


@pytest.mark.parametrize("char", _TEXT_ONLY_BREAKS)
@pytest.mark.parametrize(
    "layout",
    [
        "{c}\u03b1 1 2\n\u03b2 3 4\n",  # before line 1's lemma
        "{c}2 2\n\u03b1 1 2\n\u03b2 3 4\n",  # before a header
        "\u03b1 1 2\n{c}\u03b2 3 4\n",  # before a lemma
        "\u03b1 1 2\n\u03b2{c}3 4\n",  # right after a lemma
        "\u03b1 1 2\n\u03b2 {c}3 4\n",  # at the start of the components
        "\u03b1 1 2\n\u03b2 3{c}4\n",  # between components
        "\u03b1 1 2\n\u03b2 {c}\n\u03b3 5 6\n",  # the only text after a lemma
        "\u03b1 1 2\n\u03b2{c}\n\u03b3 5 6\n",  # ending a lemma-only line
    ],
)
def test_a_character_str_and_bytes_split_differently_reads_as_text(tmp_path, char, layout):
    path = tmp_path / "space.txt"
    path.write_bytes(layout.format(c=char).encode("utf-8"))
    space = _outcome(path)
    expected = _reference_outcome(path)
    if isinstance(expected, str):
        assert space == f"{path}: {expected}"
    else:
        vectors = {lemma: vector.tobytes() for lemma, vector in space.vectors.items()}
        assert (space.dimension, vectors, space.duplicate_count) == expected


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


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_a_selective_load_judges_components_only_in_the_rows_it_reads(tmp_path, fault):
    good = b"\xce\xb1 0.5 1 2"
    line1 = b"3 3" if fault == "header_width" else good
    path = tmp_path / "faults.txt"
    path.write_bytes(b"\n".join([line1, good, _FAULTS[fault][0], b"\xce\xb4 1 2 3"]) + b"\n")
    if fault in ("lemma_only", "invalid_utf8"):  # judged on every line
        message = _rejection(path, f"line 3: {_FAULTS[fault][1]}")
        with pytest.raises(VectorSpaceError, match=message):
            load_vector_space(path, {"α"})
    else:
        space = load_vector_space(path, {"α", "δ"})
        assert list(space.vectors) == ["α", "δ"] and space.dimension == 3
    with pytest.raises(VectorSpaceError, match=_rejection(path, f"line 3: {_FAULTS[fault][1]}")):
        load_vector_space(path, {"α", "γ"})


def _blank_unselected(data, wanted):
    """``data`` with each row whose lemma is not in ``wanted`` made blank,
    except the rows judged on every line: undecodable ones and lemmas
    without components; a sound header's row count is lowered by the rows
    blanked, and a bad one is kept, being the file's fault.  A selective
    load must read it as a full load."""
    lines = data.splitlines(keepends=True)
    header, blanked = None, 0
    for index, line in enumerate(lines):
        try:
            text = line.decode("utf-8-sig" if index == 0 else "utf-8")
        except UnicodeDecodeError:
            continue
        parts = text.split(None, 1)
        if index == 0 and _reference_header(text):
            header = _reference_header(text)
        elif len(parts) == 2 and unicodedata.normalize("NFC", parts[0]) not in wanted:
            lines[index] = b"\n"
            blanked += 1
    if header and not _bad_header(header):
        lines[0] = f"{header[0] - blanked} {header[1]}\n".encode("utf-8")
    return b"".join(lines)


def _outcome(path, lemmas=None):
    try:
        return load_vector_space(path, lemmas)
    except VectorSpaceError as exc:
        return str(exc)


def test_selective_load_is_the_full_load_of_its_rows(tmp_path):
    rng = random.Random(9002)
    path, blanked = tmp_path / "space.txt", tmp_path / "blanked.txt"
    seen = Counter()
    for _ in range(600):
        data = _random_vector_file(rng)
        for _ in range(rng.choice((0, 0, 1, 2))):
            if data:
                data = _mutate(rng, data)
        path.write_bytes(data)
        chosen = rng.sample(_LEMMAS, rng.randint(0, len(_LEMMAS)))
        lemmas = {unicodedata.normalize(rng.choice(("NFC", "NFD")), lemma) for lemma in chosen}
        wanted = {unicodedata.normalize("NFC", lemma) for lemma in lemmas}
        blanked.write_bytes(_blank_unselected(data, wanted))
        full, selective, reference = _outcome(path), _outcome(path, lemmas), _outcome(blanked)
        if isinstance(selective, str):
            seen["raised"] += 1
            # the same fault at the same line
            assert selective == reference.replace(f"{blanked}: ", f"{path}: ", 1)
            continue
        if isinstance(reference, str):  # no row selected
            assert reference == f"{blanked}: no vectors found" and len(selective) == 0
            seen["empty"] += 1
        else:
            assert selective.dimension == reference.dimension
            assert list(selective.vectors) == list(reference.vectors)
            for lemma, vector in reference.vectors.items():
                assert selective.vectors[lemma].tobytes() == vector.tobytes()
        if isinstance(full, str):
            seen["fault only in rows not read"] += 1
            continue
        seen["loaded"] += 1
        assert list(selective.vectors) == [lemma for lemma in full.vectors if lemma in wanted]
        for lemma, vector in selective.vectors.items():
            assert vector.tobytes() == full.vectors[lemma].tobytes()  # the last duplicate wins
        assert selective.duplicate_count == full.duplicate_count  # counted over every row
    kinds = ("raised", "empty", "fault only in rows not read", "loaded")
    assert all(seen[kind] > 20 for kind in kinds), seen


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


def test_a_vector_whose_length_underflows_to_zero_is_named():
    # not all zeros, but its squares underflow: centroid cannot unit-normalize it
    space = VectorSpace(2, {"\u03b1": np.array([1.0, 0.0]), "\u03b2": np.array([1e-200, 1e-200])})
    with pytest.raises(UndefinedSimilarityError, match="^φέρω/formulaic: β has a zero vector$"):
        centroid_similarities(["\u03b1", "\u03b2"], space, "φέρω", "formulaic")


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

