"""Every file crossadapt reads or writes goes through this module.

A read is one open that cannot block on a FIFO, a check that the path is a
regular file, one fstat and a read bounded by the file's size.  A write goes
to a temporary file beside its target, then is renamed onto it, so a crash
mid-write leaves the previous file whole.  A failure to open, read, decode or
write raises ``FileFormatError`` (exit 2)."""

import os
import stat
from pathlib import Path

from .errors import FileFormatError, TruncatedFileError

# without a writer a FIFO opens at once, so it is refused rather than waited on
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)


def read_sized(path, what: str, head: int = 0, body_len=None, body: bool = True):
    """Read ``what`` at ``path``: the first ``head`` bytes, then the body
    that must fill the rest.

    ``body_len(header)`` checks the header, which is short if the file is,
    and returns the body's length; without it the body is the rest of the
    file.  That length is checked against the file's size before the body
    is read, so a corrupt size field never makes the reader allocate what
    it claims.  Returns ``(header, body)``, the body a read-only view of
    one buffer; with ``body=False`` the body is checked but not read, and
    is None.
    """
    try:
        fd = os.open(path, _READ_FLAGS)
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode):
            raise FileFormatError(f"{what} {path} is not a regular file")
        header = os.read(fd, head)
        n = st.st_size - head if body_len is None else body_len(header)
        if head + n > st.st_size:
            raise TruncatedFileError(f"{path}: {what} needs {head + n} bytes, has {st.st_size}")
        if head + n < st.st_size:
            raise FileFormatError(f"{path} has trailing bytes after the {what} payload")
        if not body:
            return header, None
        data, got = memoryview(bytearray(n)), 0
        while got < n:  # Linux returns at most 2 GiB - 4 KiB per read
            k = os.readv(fd, [data[got:]])
            if not k:
                raise TruncatedFileError(f"{path} ended inside the {what} payload")
            got += k
        return header, data.toreadonly()
    except OSError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc
    finally:
        os.close(fd)


def read_text(path, what: str) -> str:
    """The UTF-8 text of ``what`` at ``path``."""
    try:
        return str(read_sized(path, what)[1], "utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"cannot read {what} {path}: {exc}") from exc


def write_artifact(path, parts, what: str) -> None:
    """Write the buffers ``parts`` in order to a temporary file beside
    ``path``, then rename it onto ``path``, so a crash mid-write leaves the
    previous file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                for part in parts:
                    fh.write(part)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise FileFormatError(f"cannot write {what} {path}: {exc}") from exc
