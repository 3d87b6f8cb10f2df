"""Viseme weight curves and their CSV form.

Serialized layout: a ``# fps=<float>`` comment, a ``frame,<label>,...`` header,
then one row per frame with weights at exactly six decimal places.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atomicio import write_text
from .errors import DataError, located
from .frozen import frozen_array
from .records import read_text, split_records
from .timeline import check_fps, frame_count, frame_times


# Frames that bake and bones handle at once: enough to amortize the numpy
# calls made per block, few enough that a block's meshes, arrays and text
# stay small, so those commands' memory does not grow with the take
# (blending 900 bone frames in one block raised the process's peak RSS by
# about 2.6 MB).
FRAME_BLOCK = 64


def check_unique_labels(labels) -> None:
    """The one rule for a curve's or a rig's viseme labels: none appears twice.
    Otherwise raises DataError naming the first label repeated."""
    dup = next((lab for k, lab in enumerate(labels) if lab in labels[:k]), None)
    if dup is not None:
        raise DataError(f"repeated viseme label {dup!r}")


@dataclass(frozen=True)
class Curve:
    """Viseme weights (frames, V) at fps, one column per unique label; weights
    is owned as frozen_array says. source names the file a curve was read
    from, for errors found later, such as a missing column."""

    fps: float
    labels: tuple[str, ...]
    weights: np.ndarray
    source: str | None = field(default=None, compare=False)

    def __post_init__(self):
        check_fps(self.fps)
        w = frozen_array(self.weights, np.float64)
        if w.ndim != 2:
            raise DataError(f"curve weights must be 2-D, got shape {w.shape}")
        if w.shape[1] != len(self.labels):
            raise DataError(
                f"curve has {w.shape[1]} weight columns but {len(self.labels)} labels"
            )
        if not np.isfinite(w).all():
            raise DataError("curve weights must be finite")
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        check_unique_labels(self.labels)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "fps", float(self.fps))

    @property
    def frame_count(self) -> int:
        return self.weights.shape[0]

    def blocks(self, labels):
        """How every consumer binds the curve's columns to its visemes: the
        columns named by labels, in that order, as (first frame, weights)
        pairs, where weights holds the (k, len(labels)) rows of FRAME_BLOCK
        frames (the last block may be shorter). Columns not named are
        ignored; a missing one raises DataError here, before the first block
        is made."""
        missing = [lab for lab in labels if lab not in self.labels]
        if missing:
            with located(self.source):
                raise DataError(f"curve is missing viseme columns {missing}")
        columns = [self.labels.index(lab) for lab in labels]
        return (
            (start, self.weights[start : start + FRAME_BLOCK, columns])
            for start in range(0, self.frame_count, FRAME_BLOCK)
        )


def serialize_curve(curve: Curve) -> str:
    lines = [f"# fps={curve.fps!r}", "frame," + ",".join(curve.labels)]
    for j in range(curve.frame_count):
        row = ",".join(f"{v:.6f}" for v in curve.weights[j])
        lines.append(f"{j},{row}")
    return "\n".join(lines) + "\n"


def parse_curve(text: str, source: str = "<curve>") -> Curve:
    records = split_records(text, source)
    fps = records.header_number("fps")
    if fps is None:
        raise records.error("missing '# fps=' comment")
    with located(records.header["fps"].where):
        check_fps(fps)
    if not records.body:
        raise records.error("missing header row")
    header, *lines = records.body
    cols = [c.strip() for c in header.text.split(",")]
    if cols[0] != "frame":
        raise header.error("header must start with 'frame'")
    labels = tuple(cols[1:])
    if not labels:
        raise header.error("header lists no visemes")
    if "" in labels:
        raise header.error("empty viseme label")
    # filled in place, so the parse holds no Python list per row; read-only,
    # so Curve keeps it rather than copying it
    weights = np.empty((len(lines), len(labels)))
    for j, line in enumerate(lines):
        cols = line.cells(len(labels) + 1)
        line.frame(cols[0], j)
        weights[j] = line.numbers(cols[1:], labels)
    weights.setflags(write=False)
    with located(header.where):
        return Curve(fps=fps, labels=labels, weights=weights, source=source)


def read_curve(path) -> Curve:
    return parse_curve(read_text(path, "curve"), source=str(path))


def write_curve(curve: Curve, path) -> None:
    write_text(path, serialize_curve(curve))


def resample_curve(curve: Curve, fps_out: float) -> Curve:
    """Linear resample from frame centre to frame centre (timeline.frame_times),
    holding the end values past the first and last centres. The output spans
    the input's n / fps_in seconds: timeline.frame_count of them at fps_out.
    """
    check_fps(fps_out)
    n = curve.frame_count
    if n == 0:
        return Curve(fps=fps_out, labels=curve.labels, weights=np.zeros((0, len(curve.labels))))
    t_in = frame_times(n, curve.fps)
    t_out = frame_times(frame_count(n / curve.fps, fps_out), fps_out)
    out = np.empty((len(t_out), len(curve.labels)))
    for c in range(len(curve.labels)):
        out[:, c] = np.interp(t_out, t_in, curve.weights[:, c])
    return Curve(fps=fps_out, labels=curve.labels, weights=out)
