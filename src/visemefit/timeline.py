"""Phoneme alignments and the phoneme-to-viseme map.

Alignments are tab-separated ``phoneme<TAB>start<TAB>end`` rows in seconds.
Comment lines start with ``#``; a ``# duration=<seconds>`` comment extends the
timeline past the last segment (trailing silence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataError
from .records import read_text, split_records


@dataclass(frozen=True)
class PhonemeSegment:
    phoneme: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Timeline:
    segments: tuple[PhonemeSegment, ...]
    duration: float

    def __post_init__(self):
        segs = tuple(self.segments)
        for s in segs:
            if not s.end > s.start:
                raise DataError(
                    f"segment {s.phoneme!r} has end {s.end} <= start {s.start}"
                )
            if s.start < 0:
                raise DataError(f"segment {s.phoneme!r} starts before 0")
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                raise DataError(
                    f"segments {a.phoneme!r} and {b.phoneme!r} overlap at {b.start}"
                )
        dur = float(self.duration)
        if segs and dur < segs[-1].end:
            raise DataError("timeline duration is shorter than its last segment")
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "duration", dur)


def parse_alignment(text: str, source: str = "<alignment>") -> Timeline:
    records = split_records(text, source)
    segments = []
    for line in records.body:
        parts = line.text.split("\t")
        if len(parts) != 3:
            raise line.error(f"expected phoneme<TAB>start<TAB>end, got {len(parts)} fields")
        tok = parts[0].strip()
        if not tok:
            raise line.error("empty phoneme token")
        start, end = line.numbers(parts[1:], ("start", "end"))
        if end <= start:
            raise line.error(f"end {end} <= start {start}")
        segments.append(PhonemeSegment(tok, start, end))
    segments.sort(key=lambda s: s.start)
    duration = records.header_number("duration")
    if duration is None:
        duration = segments[-1].end if segments else 0.0
    try:
        return Timeline(tuple(segments), duration)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from None


def serialize_timeline(t: Timeline) -> str:
    lines = [f"# duration={t.duration!r}"]
    for s in t.segments:
        lines.append(f"{s.phoneme}\t{float(s.start)!r}\t{float(s.end)!r}")
    return "\n".join(lines) + "\n"


def read_alignment(path) -> Timeline:
    return parse_alignment(read_text(path, "alignment"), source=str(path))


@dataclass(frozen=True)
class PhonemeVisemeMap:
    """Total map from phoneme tokens to viseme indices, plus silence tokens."""

    labels: tuple[str, ...]
    entries: dict[str, int] = field(default_factory=dict)
    silence: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "silence", frozenset(self.silence))
        for tok, idx in self.entries.items():
            if not 0 <= idx < len(self.labels):
                raise DataError(f"map entry {tok!r} points at viseme index {idx} out of range")
            if tok in self.silence:
                raise DataError(f"token {tok!r} is both mapped and silence")


def parse_viseme_map(text: str, labels=None, source: str = "<map>") -> PhonemeVisemeMap:
    """Parse ``phoneme=LABEL`` lines plus one ``silence=tok,tok,...`` line.

    When ``labels`` is None the label order is first appearance in the file;
    otherwise every label must belong to the given set (e.g. the rig's).
    """
    raw_entries: list[tuple[str, str]] = []
    silence: set[str] = set()
    for line in split_records(text, source).body:
        key, value = line.key_value()
        if key == "silence":
            silence.update(tok.strip() for tok in value.split(",") if tok.strip())
        elif key:
            raw_entries.append((key, value))
        else:
            raise line.error("empty phoneme token")
    if labels is None:
        ordered: list[str] = []
        for _, label in raw_entries:
            if label not in ordered:
                ordered.append(label)
        labels = tuple(ordered)
    else:
        labels = tuple(labels)
    index = {label: i for i, label in enumerate(labels)}
    entries: dict[str, int] = {}
    for tok, label in raw_entries:
        if label not in index:
            raise DataError(f"{source}: viseme label {label!r} not in the configured label set")
        entries[tok] = index[label]
    return PhonemeVisemeMap(labels=labels, entries=entries, silence=frozenset(silence))


def read_viseme_map(path, labels=None) -> PhonemeVisemeMap:
    return parse_viseme_map(read_text(path, "viseme map"), labels=labels, source=str(path))


def viseme_of(phoneme: str, vmap: PhonemeVisemeMap) -> int | None:
    """Viseme index for a phoneme token, None for silence, DataError for unknown."""
    if phoneme in vmap.silence:
        return None
    if phoneme in vmap.entries:
        return vmap.entries[phoneme]
    raise DataError(f"phoneme {phoneme!r} is not in the viseme map")


# The most frames any curve may hold: a bound on memory (a 16-viseme curve
# of this length is 128 MB) and well past any speech clip (over 9 hours at
# 30 fps).
MAX_FRAMES = 1_000_000


def checked_frame_count(frames: float, what: str) -> int:
    """ceil(frames) as a frame count, at least 0. DataError names ``what``
    when frames is not finite or exceeds MAX_FRAMES."""
    if not math.isfinite(frames):
        raise DataError(f"{what} is not a finite frame count")
    if frames > MAX_FRAMES:
        raise DataError(f"{what} is {frames:.6g} frames, over the limit of {MAX_FRAMES}")
    return max(0, math.ceil(frames))


def frame_count(duration: float, fps: float) -> int:
    if not 0 < fps < math.inf:
        raise DataError(f"fps must be positive and finite, got {fps}")
    return checked_frame_count(duration * fps, f"{duration} s at {fps} fps")
