"""Artifact file access in one place: reads are bounded by the file's size,
and a failure to open, read or write raises ``FileFormatError`` (exit 2)."""

import os
from pathlib import Path

from .errors import FileFormatError, TruncatedFileError


def open_artifact(path, what: str):
    """Open ``what`` at ``path`` for binary reading."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc


def read_sized(path, what: str, head: int, body_len, body: bool = True):
    """Read ``what`` at ``path`` with one open, one fstat and at most two
    reads: the first ``head`` bytes, then the body that must fill the rest.

    ``body_len(header)`` checks the header, which is short if the file is,
    and returns the body's length. That length is checked against the
    file's size before the body is read, so a corrupt size field never
    makes the reader allocate what it claims. Returns ``(header, body)``;
    with ``body=False`` the body is checked but not read, and is None.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc
    try:
        size = os.fstat(fd).st_size
        header = os.read(fd, head)
        n = body_len(header)
        if head + n > size:
            raise TruncatedFileError(f"{path}: {what} needs {head + n} bytes, has {size}")
        if head + n < size:
            raise FileFormatError(f"{path} has trailing bytes after the {what} payload")
        if not body:
            return header, None
        data = os.read(fd, n)
        if len(data) != n:
            raise TruncatedFileError(f"{path} ended inside the {what} payload")
        return header, data
    except OSError as exc:  # a directory opens, but its read fails
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc
    finally:
        os.close(fd)


def read_exact(fh, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of ``what``. A length past the end of the file
    raises before anything is read, so a corrupt size field never makes the
    reader allocate what it claims."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise TruncatedFileError(f"{fh.name}: {what} needs {n} bytes, {left} remain")
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"{fh.name} ended inside {what}")
    return data


def write_artifact(path, data: bytes, what: str) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it onto
    ``path``, so a crash mid-write leaves the previous file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise FileFormatError(f"cannot write {what} {path}: {exc}") from exc
