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
from .timeline import check_fps, checked_frame_count


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

    def _columns(self, labels) -> list[int]:
        missing = [lab for lab in labels if lab not in self.labels]
        if missing:
            with located(self.source):
                raise DataError(f"curve is missing viseme columns {missing}")
        return [self.labels.index(lab) for lab in labels]

    def weights_for(self, labels) -> np.ndarray:
        """The columns named by labels, in that order, as a new (frames,
        len(labels)) float64 array: how every consumer binds columns to its
        visemes. Columns not named are ignored; a missing one is a DataError."""
        return self.weights[:, self._columns(labels)]

    def blocks(self, labels):
        """The curve as (first frame, Curve) pairs of FRAME_BLOCK frames each
        (the last may be shorter), each holding the columns named by labels in
        that order, bound as weights_for binds them. A missing column raises
        here, before the first block is made."""
        columns = self._columns(labels)
        return (
            (start, Curve(self.fps, labels, self.weights[start : start + FRAME_BLOCK, columns],
                          self.source))
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
        raise DataError(f"{source}: missing '# fps=' comment")
    with located(records.header["fps"].where):
        check_fps(fps)
    if not records.body:
        raise DataError(f"{source}: missing header row")
    header, *lines = records.body
    cols = header.text.split(",")
    if cols[0] != "frame":
        raise header.error("header must start with 'frame'")
    labels = tuple(cols[1:])
    if not labels:
        raise header.error("header lists no visemes")
    # filled in place, so the parse holds no Python list per row; read-only,
    # so Curve keeps it rather than copying it
    weights = np.empty((len(lines), len(labels)))
    for j, line in enumerate(lines):
        cols = line.text.split(",")
        if len(cols) != len(labels) + 1:
            raise line.error(f"expected {len(labels) + 1} columns, got {len(cols)}")
        if line.integer(cols[0], "frame") != j:
            raise line.error(f"frame {cols[0]} out of order, expected {j}")
        weights[j] = line.numbers(cols[1:], labels)
    weights.setflags(write=False)
    with located(header.where):
        return Curve(fps=fps, labels=labels, weights=weights, source=source)


def read_curve(path) -> Curve:
    return parse_curve(read_text(path, "curve"), source=str(path))


def write_curve(curve: Curve, path) -> None:
    write_text(path, serialize_curve(curve))


def resample_curve(curve: Curve, fps_out: float) -> Curve:
    """Linear resample onto frame instants j / fps_out, endpoints clamped.

    Output length preserves the clip span: ceil(n * fps_out / fps_in), with a
    tiny slack so integer rate ratios stay exact.
    """
    check_fps(fps_out)
    n = curve.frame_count
    if n == 0:
        return Curve(fps=fps_out, labels=curve.labels, weights=np.zeros((0, len(curve.labels))))
    if fps_out == curve.fps:
        return Curve(fps=fps_out, labels=curve.labels, weights=curve.weights)
    n_out = max(
        1,
        checked_frame_count(
            n * fps_out / curve.fps - 1e-9, f"{n} frames at {curve.fps} fps resampled to {fps_out} fps"
        ),
    )
    t_in = np.arange(n) / curve.fps
    t_out = np.arange(n_out) / fps_out
    out = np.empty((n_out, len(curve.labels)))
    for c in range(len(curve.labels)):
        out[:, c] = np.interp(t_out, t_in, curve.weights[:, c])
    return Curve(fps=fps_out, labels=curve.labels, weights=out)
