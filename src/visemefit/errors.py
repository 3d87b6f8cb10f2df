"""Exception taxonomy. The CLI maps these onto exit codes."""

from contextlib import contextmanager


class VisemefitError(Exception):
    """Base class for package errors."""


class DataError(VisemefitError):
    """Malformed or inconsistent input data: parse failures, non-finite
    values, topology mismatches, unmapped phonemes, bad configuration."""


class NumericError(VisemefitError):
    """Numerical failure: behind-camera projection, non-finite loss or
    gradient, degenerate optimization state."""


class UsageError(VisemefitError):
    """Command-line misuse."""


def prefixed(where, message) -> str:
    """``"<where>: <message>"``, the one way an error message names where it
    happened: located, file_access and the records errors build theirs with it."""
    return f"{where}: {message}"


@contextmanager
def located(where):
    """The one rule for naming where an error happened: a DataError or NumericError
    raised inside comes out as its own class, prefixed ``"<where>: "`` unless where is None."""
    try:
        yield
    except (DataError, NumericError) as exc:
        if where is None:
            raise
        raise type(exc)(prefixed(where, exc)) from None


@contextmanager
def file_access(action: str, path):
    """The one rule for a failed OS call on a file: an OSError, or a
    UnicodeDecodeError from a text file, raised inside comes out as
    ``DataError("cannot <action> <path>: <reason>")``."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path; its strerror does not
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(prefixed(f"cannot {action} {path}", reason)) from None
