"""``output.read_lines``, the one reader of every text input: streamed, it
gives the rows ``str.splitlines`` cuts from the whole text after a byte
order mark, and an undecodable byte is placed from the file's first byte
and named at its line by ``output.InputError``."""

import codecs
import random

import pytest

from grcvalency.output import InputError, content_rows, read_lines

CHUNK = 8192  # the bytes a text file's decoder takes at a time

# valid UTF-8 pieces, every kind of line break str.splitlines cuts at among
# them, and bytes that do not decode: a stray continuation byte, 0xff and
# the lead byte of a two-byte sequence on its own
PIECES = [
    b"a", b"tab\t", b" ", "é".encode(), "ω".encode(), "\U0001f600".encode(),
    b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
    "\x85".encode(), "\u2028".encode(), "\u2029".encode(), codecs.BOM_UTF8,
]
BAD = [b"\x80", b"\xff", b"\xce"]


def _expected(data):
    """What decoding ``data`` whole gives: its rows, or the decode error."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")  # counted from the first byte, a mark included
        return info.value.start, info.value.end, info.value.reason
    return text.splitlines()


def _read(path):
    try:
        return list(read_lines(path))
    except InputError as exc:  # caused by the whole file's decode error
        return exc.__cause__.start, exc.__cause__.end, exc.__cause__.reason


def _fuzzed(rng):
    pieces = [rng.choice(PIECES) for _ in range(rng.randrange(0, 6000))]
    if rng.random() < 0.3:
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(BAD))
    return b"".join(pieces)


def _at_chunk_end(mark, tail):
    """``mark``, padding, then ``tail`` starting at the first chunk's last byte."""
    return mark + b"x" * (CHUNK - 1 - len(mark)) + tail


@pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
def test_read_lines_gives_the_rows_of_splitlines_or_the_whole_files_decode_error(
    tmp_path, mark
):
    path = tmp_path / "input.txt"
    rng = random.Random(20261020)
    cases = [mark + _fuzzed(rng) for _ in range(120)]
    cases += [
        _at_chunk_end(mark, b"\r\nnext\r\n"),  # \r\n cut by the chunk end
        _at_chunk_end(mark, b"\rnext"),  # a lone \r at the chunk end
        _at_chunk_end(mark, b"\r\rnext\n"),
        _at_chunk_end(mark, " ω\x1c".encode()),  # a separator cut by the chunk end
        _at_chunk_end(mark, b"\n\r"),
        mark + b"x" * CHUNK * 3 + b"\xff",  # undecodable far past the first chunk
        mark + b"a\rb\x1cc\xe2\x80\xa8d\r\n",
        mark,
        mark + b"\r\n",
    ]
    assert any(isinstance(_expected(data), tuple) for data in cases)
    for data in cases:
        path.write_bytes(data)
        assert _read(path) == _expected(data), data[:40]


def test_read_lines_streams_the_rows_before_a_later_undecodable_byte(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"first\n" + b"x" * CHUNK * 2 + b"\xff\n")
    lines = read_lines(path)
    assert next(lines) == "first"
    with pytest.raises(InputError) as info:
        list(lines)
    assert info.value.__cause__.start == len(codecs.BOM_UTF8) + 6 + CHUNK * 2
    assert str(info.value) == f"{path}: line 2: {info.value.__cause__}"


def _complete_rows(text):
    """The rows of ``text`` that a line break ends."""
    return [row.splitlines()[0] for row in text.splitlines(keepends=True) if row.splitlines()[0] != row]


@pytest.mark.parametrize("mark", [b"", codecs.BOM_UTF8], ids=["plain", "marked"])
def test_the_rows_ending_before_an_undecodable_byte_come_before_its_error(tmp_path, mark):
    path = tmp_path / "input.txt"
    rng = random.Random(20261021)
    cases = [
        _at_chunk_end(mark, b"\n\xff"),  # the byte ends the first chunk
        _at_chunk_end(mark, b"\xff\n"),  # the byte ends the first chunk, its row's break beyond
        _at_chunk_end(mark, b"\r\xff"),
        _at_chunk_end(mark, b"\x1c\xff"),
        _at_chunk_end(mark, b"\r\n\xff"),  # \r\n cut by the chunk end
        mark + b"lo/gos\nlo/gos?\n\xff\n",
        mark + b"a\rb\x1cc\xe2\x80\xa8d\r\n\xce",
        mark + b"\xff",
        mark + b"first\n" + b"x" * CHUNK * 3 + b"\nlast\n\xff",
    ]
    while len(cases) < 150:
        pieces = [rng.choice(PIECES) for _ in range(rng.randrange(0, 3000))]
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice(BAD))
        cases.append(mark + b"".join(pieces))
    for data in cases:
        path.write_bytes(data)
        expected = _expected(data)
        if not isinstance(expected, tuple):  # the bad byte joined a valid sequence
            continue
        rows = []
        with pytest.raises(InputError) as info:
            rows.extend(read_lines(path))
        cause = info.value.__cause__
        assert (cause.start, cause.end, cause.reason) == expected
        assert rows == _complete_rows(data[: cause.start].decode("utf-8-sig")), data[:40]
        # the byte's line is the one after the last row it ends
        assert info.value.row_errors == [(len(rows) + 1, str(cause))]


def test_content_rows_skip_blank_rows_and_comments_and_keep_line_numbers(tmp_path):
    path = tmp_path / "side.txt"
    text = "# head\na\n\n \t\n  # indented\n\t#tab\nb # not a comment\n#\n"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert list(content_rows(path)) == [(2, "a"), (7, "b # not a comment")]
