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
