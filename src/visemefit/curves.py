"""Viseme weight curves and their CSV form.

Serialized layout: a ``# fps=<float>`` comment, a ``frame,<label>,...`` header,
then one row per frame with weights at exactly six decimal places.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .records import read_text, split_records


@dataclass(frozen=True)
class Curve:
    fps: float
    labels: tuple[str, ...]
    weights: np.ndarray  # (frames, V)

    def __post_init__(self):
        if not 0 < self.fps < math.inf:
            raise DataError(f"curve fps must be positive and finite, got {self.fps}")
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if w.ndim != 2:
            raise DataError(f"curve weights must be 2-D, got shape {w.shape}")
        if w.shape[1] != len(self.labels):
            raise DataError(
                f"curve has {w.shape[1]} weight columns but {len(self.labels)} labels"
            )
        if not np.isfinite(w).all():
            raise DataError("curve weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        object.__setattr__(self, "fps", float(self.fps))

    @property
    def frame_count(self) -> int:
        return self.weights.shape[0]


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
    if not records.body:
        raise DataError(f"{source}: missing header row")
    header, *lines = records.body
    cols = header.text.split(",")
    if cols[0] != "frame":
        raise header.error("header must start with 'frame'")
    labels = tuple(cols[1:])
    if not labels:
        raise header.error("header lists no visemes")
    rows = []
    for line in lines:
        cols = line.text.split(",")
        if len(cols) != len(labels) + 1:
            raise line.error(f"expected {len(labels) + 1} columns, got {len(cols)}")
        if line.integer(cols[0], "frame") != len(rows):
            raise line.error(f"frame {cols[0]} out of order")
        rows.append(line.numbers(cols[1:], labels))
    weights = np.array(rows, dtype=np.float64).reshape(len(rows), len(labels))
    return Curve(fps=fps, labels=labels, weights=weights)


def read_curve(path) -> Curve:
    return parse_curve(read_text(path, "curve"), source=str(path))


def write_curve(curve: Curve, path) -> None:
    from .atomicio import write_text

    write_text(path, serialize_curve(curve))


def resample_curve(curve: Curve, fps_out: float) -> Curve:
    """Linear resample onto frame instants j / fps_out, endpoints clamped.

    Output length preserves the clip span: ceil(n * fps_out / fps_in), with a
    tiny slack so integer rate ratios stay exact.
    """
    if not 0 < fps_out < math.inf:
        raise DataError(f"target fps must be positive and finite, got {fps_out}")
    n = curve.frame_count
    if n == 0:
        return Curve(fps=fps_out, labels=curve.labels, weights=np.zeros((0, len(curve.labels))))
    if fps_out == curve.fps:
        return Curve(fps=fps_out, labels=curve.labels, weights=curve.weights.copy())
    n_out = max(1, math.ceil(n * fps_out / curve.fps - 1e-9))
    t_in = np.arange(n) / curve.fps
    t_out = np.arange(n_out) / fps_out
    out = np.empty((n_out, len(curve.labels)))
    for c in range(len(curve.labels)):
        out[:, c] = np.interp(t_out, t_in, curve.weights[:, c])
    return Curve(fps=fps_out, labels=curve.labels, weights=out)
