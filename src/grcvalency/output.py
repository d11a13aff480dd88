"""One reader of every text input, one wording of its rejection, one writer of every output."""

import os
import tempfile
from pathlib import Path


class InputError(ValueError):
    """A rejected text input.  ``faults`` is the detail of a fault of the
    whole file, or the ``(line, detail)`` pairs of its faulty lines in line
    order, kept as ``row_errors``.  Its text is ``<source>: <detail>``, or
    ``<source>: line N: <detail>`` for each of the first ten lines, joined
    by ``; `` and followed by ``; ... (N rows total)`` past ten; with no
    ``source`` (a frame string given in code) it is the faults' text alone.
    This is the one place a rejection is worded."""

    def __init__(self, faults, source=None):
        super().__init__(faults, source)
        self.row_errors = [] if isinstance(faults, str) else faults

    def __str__(self):
        faults, source = self.args
        if isinstance(faults, str):
            text = faults
        else:
            text = "; ".join(f"line {lineno}: {detail}" for lineno, detail in faults[:10])
            if len(faults) > 10:
                text += f"; ... ({len(faults)} rows total)"
        return text if source is None else f"{source}: {text}"


def read_lines(source):
    """Stream the rows of the UTF-8 text file ``source``, cut as
    ``str.splitlines`` cuts its whole text, after a leading byte order
    mark.  This is the one place a text input is decoded.  An undecodable
    byte raises an :class:`InputError` naming its line, caused by and worded
    as the error of decoding the whole file as ``utf-8``, so its position
    counts from the file's first byte, the mark included; every row that
    ends before the byte is given first."""
    given = 0
    try:
        with open(source, encoding="utf-8-sig", newline="") as handle:
            for line in handle:
                rows = line.splitlines()
                given += len(rows)
                yield from rows
    except UnicodeDecodeError:
        # a streaming decoder counts the byte's position from its chunk and
        # fails the whole chunk, so the rows before the byte in it are not given
        data = Path(source).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # "?" ends no row: the row the byte falls in is the last
            rows = (data[: exc.start].decode("utf-8-sig") + "?").splitlines()
            yield from rows[given:-1]
            raise InputError([(len(rows), str(exc))], source) from exc
        raise


def content_rows(source):
    """``(line number, row)`` for each row of :func:`read_lines` that holds
    content: the one rule of the side files (metadata manifest, span file,
    case-study config, known-frames list) skips a blank row and a row whose
    first non-whitespace character is ``#``."""
    for lineno, line in enumerate(read_lines(source), start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def write_atomic(destination, chunks) -> int:
    """Stream the ``str`` ``chunks``, UTF-8 encoded and with no newline
    translation, into a temp file beside ``destination`` and rename it over
    ``destination``; returns the bytes written.  This is the one place an
    output is encoded.  The file is fsynced before the rename and its
    directory after it, so the new file survives a crash once this returns.
    On any failure up to the rename, a chunk's own error included, the old
    file, if there was one, stays as it was and the temp file is removed."""
    destination = Path(destination)
    try:
        fd, temp_path = tempfile.mkstemp(dir=destination.parent, prefix=destination.name)
    except OSError as exc:  # name the directory, not a temp name the user never chose
        raise OSError(exc.errno, exc.strerror, str(destination.parent)) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunk.encode("utf-8") for chunk in chunks)
            handle.flush()
            os.fsync(handle.fileno())
            written = handle.tell()
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(temp_path, 0o666 & ~umask)
        try:
            os.replace(temp_path, destination)
        except OSError as exc:  # name the destination, not the temp file
            raise OSError(exc.errno, exc.strerror, str(destination)) from None
    except BaseException:
        os.unlink(temp_path)
        raise
    directory = os.open(destination.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
    return written
