"""The line-oriented text format shared by every text file visemefit reads.

Blank lines are skipped. Lines starting with ``#`` are comments; a
``# key=value`` comment is a header value (the last one of a key wins).
Every other line is a body record whose layout its own parser owns. Numeric
cells must be finite, and every parse error names the source and the line.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DataError, prefixed


def read_text(path, what: str, encoding: str = "utf-8") -> str:
    """The text of ``path``; an unreadable or undecodable file is a one-line DataError."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path; its strerror does not
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read {what} {path}: {reason}") from None


class Line(NamedTuple):
    """One stripped line (or header value) and where it came from."""

    source: str
    lineno: int
    text: str

    @property
    def where(self) -> str:
        return f"{self.source}:{self.lineno}"

    def error(self, message: str) -> DataError:
        return DataError(prefixed(self.where, message))

    def key_value(self) -> tuple[str, str]:
        key, sep, value = self.text.partition("=")
        if not sep:
            raise self.error("expected key=value")
        return key.strip(), value.strip()

    def number(self, cell: str, name: str) -> float:
        """``cell`` as a finite float; errors name the key or column."""
        try:
            value = float(cell)
        except ValueError:
            raise self.error(f"{name} is not a number: {cell.strip()!r}") from None
        if not math.isfinite(value):
            raise self.error(f"{name} must be finite, got {cell.strip()!r}")
        return value

    def numbers(self, cells, names) -> list[float]:
        """Each cell as a finite float; ``names`` parallels ``cells``."""
        return [self.number(c, name) for c, name in zip(cells, names, strict=True)]

    def integer(self, cell: str, name: str) -> int:
        try:
            return int(cell)
        except ValueError:
            raise self.error(f"{name} is not an integer: {cell.strip()!r}") from None


class Records(NamedTuple):
    """A text file split into header values and numbered body lines."""

    header: dict[str, Line]
    body: list[Line]

    def header_number(self, key: str) -> float | None:
        """The finite float in ``# key=value``, or None when there is none."""
        line = self.header.get(key)
        return None if line is None else line.number(line.text, key)

    def rows(self, first_cell: str) -> list[Line]:
        """The body lines of a CSV, less its optional column header: the first
        body line, when its first cell is first_cell. A later line never is."""
        if self.body and self.body[0].text.split(",")[0] == first_cell:
            return self.body[1:]
        return self.body

    def key_values(self, what: str):
        """(line, key, value) for each ``key=value`` body line.

        A key that an earlier line already set is a ``duplicate <what> key``
        error. The check runs after the caller has handled the line, so a
        caller's own check on the parsed key (such as a landmark id) reports
        first.
        """
        seen: set[str] = set()
        for line in self.body:
            key, value = line.key_value()
            yield line, key, value
            if key in seen:
                raise line.error(f"duplicate {what} key {key!r}")
            seen.add(key)


def split_records(text: str, source: str) -> Records:
    header: dict[str, Line] = {}
    body: list[Line] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                header[key.strip()] = Line(source, lineno, value.strip())
            continue
        body.append(Line(source, lineno, line))
    return Records(header, body)
