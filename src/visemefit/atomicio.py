"""Atomic file writes: data lands under a temp name, then renames into place.

Every file is written through atomic_path, by write_text, atomic_text or
write_bytes. A failed write never leaves a partial file at the destination,
and an OSError is reported as one DataError naming the destination;
make_dirs reports a directory it cannot make the same way.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def atomic_path(path):
    """Yield a sibling temp path; on success rename it onto ``path``."""
    path = str(path)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise _cannot_write(path, exc) from None
        raise


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True); an OSError is the DataError that a
    failed file write gives, naming path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(path, exc) from None


def _cannot_write(path, exc: OSError) -> DataError:
    # an OSError's own text repeats the path; its strerror does not
    return DataError(f"cannot write {path}: {exc.strerror or exc}")


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
