"""Rigid pose and pinhole projection.

Quaternions are scalar-last (x, y, z, w). Pixel coordinates put the center of
pixel (row r, column c) at (x=c, y=r); the principal point is given in those
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .frozen import frozen_array


def check_quat_norm(norm, error=NumericError) -> None:
    """The one rule for whether a quaternion can be normalized: its squared
    norm (or its norm, which decides alike) is positive and finite, so zero,
    NaN and overflow all fail; an array of row norms passes if every row does.
    Otherwise raises error("quaternion norm ..."), and never a numpy warning."""
    if isinstance(norm, np.ndarray):
        with np.errstate(invalid="ignore"):
            ok = bool(((norm > 0.0) & (norm < math.inf)).all())
    else:
        ok = 0.0 < norm < math.inf
    if not ok:
        raise error("quaternion norm is zero or not finite")


def check_focal(f) -> None:
    """The one rule for a focal length in pixels: positive and finite, so
    zero, a negative value, NaN and inf all fail with one message."""
    if not 0 < f < math.inf:
        raise DataError(f"focal length must be positive and finite, got {f}")


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).reshape(4)
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(q))
    check_quat_norm(n)
    return q / n


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrix for a unit quaternion (x, y, z, w)."""
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_rotation_jacobians(q) -> np.ndarray:
    """d(rotation matrix)/dq for a unit quaternion, shape (4, 3, 3).

    Entries of the rotation matrix are quadratic in q, so each slice is the
    corresponding linear form. Valid at unit norm; callers account for the
    normalization chain separately.
    """
    x, y, z, w = q
    return np.array(
        [
            [[0, 2 * y, 2 * z], [2 * y, -4 * x, -2 * w], [2 * z, 2 * w, -4 * x]],
            [[-4 * y, 2 * x, 2 * w], [2 * x, 0, 2 * z], [-2 * w, 2 * z, -4 * y]],
            [[-4 * z, -2 * w, 2 * x], [2 * w, -4 * z, 2 * y], [2 * x, 2 * y, 0]],
            [[0, -2 * z, 2 * y], [2 * z, 0, -2 * x], [-2 * y, 2 * x, 0]],
        ],
        dtype=np.float64,
    )


@dataclass(frozen=True)
class Pose:
    """Rigid transform plus pinhole intrinsics (f, cx, cy) in pixels.

    rotation and translation are owned as frozen_array says.
    """

    rotation: np.ndarray
    translation: np.ndarray
    intrinsics: tuple[float, float, float]

    def __post_init__(self):
        q = frozen_array(self.rotation, np.float64, 4)
        t = frozen_array(self.translation, np.float64, 3)
        if not (np.isfinite(q).all() and np.isfinite(t).all()):
            raise DataError("pose components must be finite")
        f, cx, cy = self.intrinsics
        check_focal(f)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "intrinsics", (float(f), float(cx), float(cy)))


def transform_points(points, pose: Pose) -> np.ndarray:
    """Apply the rigid transform (camera frame), shape-preserving over (..., 3)."""
    p = np.asarray(points, dtype=np.float64)
    R = quat_to_matrix(quat_normalize(pose.rotation))
    return p @ R.T + pose.translation


def pinhole(points, intrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Pixels (N, 2) and inverse depths (N,) of camera-frame points (N, 3).

    A pixel is f * X / z + c. intrinsics is (f, cx, cy), a tuple or a float64
    array; an array saves converting the principal point on every call. If
    any point has non-positive depth, raises NumericError naming the one of
    least depth.
    """
    z = points[:, 2]
    if z.size and z.min() <= 0.0:
        bad = int(np.argmin(z))
        raise NumericError(f"behind-camera vertex {bad} (depth {z[bad]:.6g})")
    pixels = intrinsics[0] * points[:, :2] / z[:, None]
    pixels += intrinsics[1:]
    return pixels, 1.0 / z


def project(points, pose: Pose) -> np.ndarray:
    """Pinhole projection of one point (3,) or many (N, 3) to pixels.

    Raises NumericError if any transformed point has non-positive depth.
    """
    p = np.asarray(points, dtype=np.float64)
    pixels, _ = pinhole(transform_points(p.reshape(-1, 3), pose), pose.intrinsics)
    return pixels[0] if p.ndim == 1 else pixels
