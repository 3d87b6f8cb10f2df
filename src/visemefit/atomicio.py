"""Atomic file writes: data lands under a temp name, then renames into place.

Every file is written through atomic_path, by write_text, atomic_text or
write_bytes. A failed write never leaves a partial file at the destination,
and an OSError is reported through errors.file_access as one DataError
naming the destination; make_dirs reports a directory it cannot make the
same way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress

from .errors import file_access


@contextmanager
def atomic_path(path):
    """Yield a sibling temp path; on success rename it onto ``path``."""
    path = str(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with file_access("write", path):
            yield tmp
            os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True); an OSError is the DataError that a
    failed file write gives, naming path."""
    with file_access("write", path):
        os.makedirs(path, exist_ok=True)


@contextmanager
def atomic_text(path):
    """Yield a UTF-8 text file open on a sibling temp path; on success it is
    closed and renamed onto ``path``, as atomic_path does."""
    with atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh


def write_text(path, text: str) -> None:
    with atomic_text(path) as fh:
        fh.write(text)


def write_bytes(path, *chunks) -> None:
    """Write bytes or C-contiguous arrays (uncopied) in order, as atomic_path does."""
    with atomic_path(path) as tmp:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
