"""Metrics for fitted and procedural curves.

keypoint_error reports per-frame mean pixel distance between projected bound
vertices and observed landmarks. lip_distance_curves tracks the horizontal
and vertical lip openings on the baked mesh in model units. Both bind the
curve's columns to the rig's visemes by label through Curve.blocks and walk
the bound rows one frame at a time. total_variation sums absolute
frame-to-frame weight changes per viseme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import Pose, project
from .curves import Curve
from .errors import DataError, located
from .frozen import frozen_array
from .rig import Rig, blend_vertices


@dataclass(frozen=True)
class MetricSeries:
    """One metric value per frame; values is owned as frozen_array says."""

    name: str
    fps: float
    values: np.ndarray

    def __post_init__(self):
        v = frozen_array(self.values, np.float64, -1)
        if v.size and not np.all(np.isfinite(v)):
            raise DataError(f"metric {self.name!r} contains non-finite values")
        object.__setattr__(self, "values", v)


def keypoint_error(rig: Rig, curve: Curve, poses, observations, subset=None,
                   poses_source=None) -> MetricSeries:
    """Mean Euclidean pixel error of bound landmarks, one value per frame.

    observations maps frame index to an object with parallel landmark_ids and
    landmark_points arrays. subset restricts to those landmark ids; landmarks
    missing from a frame are skipped, and a frame where every requested id is
    missing (or unbound) is an error. poses_source names the file the poses
    were read from, which a short pose list's error names after the curve's.
    """
    n = curve.frame_count
    if len(poses) < n:
        with located(curve.source), located(poses_source):
            raise DataError(f"curve has {n} frames but only {len(poses)} poses")
    bound = (w for _, block in curve.blocks(rig.viseme_labels) for w in block)
    values = np.zeros(n)
    for j, w in enumerate(bound):
        with located(f"frame {j}"):
            obs = observations.get(j)
            rows, verts = rig.landmark_rows(() if obs is None else obs.landmark_ids, subset)
            if not rows.size:
                raise DataError("no observed landmarks for any bound id")
            pose: Pose = poses[j]
            shaped = blend_vertices(rig, w)
            proj = project(shaped[verts], pose)
            # a finite but huge landmark or projection overflows to inf;
            # report the frame instead of a numpy warning
            with np.errstate(over="ignore"):
                values[j] = float(np.linalg.norm(proj - obs.landmark_points[rows], axis=1).mean())
            if not math.isfinite(values[j]):
                raise DataError("keypoint error overflows (landmark or pose out of range)")
    return MetricSeries(name="keypoint_error", fps=curve.fps, values=values)


def lip_distance_curves(rig: Rig, curve: Curve) -> tuple[MetricSeries, MetricSeries]:
    """Per-frame |dx| of the horizontal lip pair and |dy| of the vertical pair
    measured on the blended mesh."""
    if rig.lip_pairs is None:
        with located(rig.source):
            raise DataError("rig manifest declares no lip pairs")
    (ha, hb), (va, vb) = rig.lip_pairs
    bound = (w for _, block in curve.blocks(rig.viseme_labels) for w in block)
    n = curve.frame_count
    horiz = np.zeros(n)
    vert = np.zeros(n)
    for j, w in enumerate(bound):
        shaped = blend_vertices(rig, w)
        horiz[j] = abs(shaped[ha, 0] - shaped[hb, 0])
        vert[j] = abs(shaped[va, 1] - shaped[vb, 1])
    return (
        MetricSeries(name="lip_horizontal", fps=curve.fps, values=horiz),
        MetricSeries(name="lip_vertical", fps=curve.fps, values=vert),
    )


def total_variation(curve: Curve) -> dict[str, float]:
    """Sum of |x[j] - x[j-1]| per viseme label."""
    if curve.frame_count < 1:
        raise DataError("total variation needs at least one frame")
    # finite but huge weights overflow the differences or their sum to inf;
    # report the viseme instead of a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        diffs = np.abs(np.diff(curve.weights, axis=0)).sum(axis=0)
    for lab, d in zip(curve.labels, diffs):
        if not math.isfinite(d):
            raise DataError(f"viseme {lab}: total variation overflows (weights out of range)")
    return {lab: float(d) for lab, d in zip(curve.labels, diffs)}


def serialize_metric(series: MetricSeries) -> str:
    lines = [f"# name={series.name}", f"# fps={series.fps!r}", "frame,value"]
    for j, v in enumerate(series.values):
        lines.append(f"{j},{v:.6f}")
    return "\n".join(lines) + "\n"


def serialize_total_variation(tv: dict[str, float]) -> str:
    lines = ["label,value"]
    for lab, v in tv.items():
        lines.append(f"{lab},{v:.6f}")
    return "\n".join(lines) + "\n"
