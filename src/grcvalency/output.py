"""The one reader of every text input and the one writer of every output."""

import os
import tempfile
from pathlib import Path


def read_lines(source):
    """Stream the rows of the UTF-8 text file ``source``, cut as
    ``str.splitlines`` cuts its whole text, after a leading byte order
    mark.  This is the one place a text input is decoded.  An undecodable
    byte raises the error of decoding the whole file as ``utf-8``, so its
    position counts from the file's first byte, the mark included; every
    row that ends before the byte is given first."""
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
            # "?" ends no row: the row the byte falls in is dropped
            yield from (data[: exc.start].decode("utf-8-sig") + "?").splitlines()[given:-1]
            raise
        raise


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
