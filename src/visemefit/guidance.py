"""Per-frame activate/suppress viseme sets derived from a procedural curve.

The procedural curve knows which visemes the transcript schedules near each
frame. Strongly scheduled visemes are pushed up during fitting (activate);
visemes scheduled nowhere in the frame's neighborhood are pushed to zero
(suppress). This is what disambiguates shapes that look alike on screen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class GuidanceSets:
    suppress: frozenset[int]
    activate: frozenset[int]


def top_k(values, k: int, eps: float) -> list[int]:
    """Indices of the k largest entries not below eps, ties to the lower index."""
    v = np.asarray(values, dtype=np.float64)
    if k <= 0:
        return []
    # lexsort's last key dominates: sort by value descending, index ascending
    order = np.lexsort((np.arange(len(v)), -v))
    out = []
    for i in order:
        if v[i] >= eps:
            out.append(int(i))
            if len(out) == k:
                break
    return out


def guidance_sets(
    proc_weights: np.ndarray, frame: int, m: int, n: int, radius: int, eps_act: float
) -> GuidanceSets:
    """Sets for one frame of an (frames, V) procedural curve.

    activate: the top-n visemes of this frame at or above eps_act.
    suppress: visemes absent from the top-m of every frame in the
    self-inclusive window [frame - radius, frame + radius], clipped to the clip.
    n <= m and radius >= 0, as FitConfig makes them.
    """
    a = np.asarray(proc_weights, dtype=np.float64)
    if a.ndim != 2:
        raise DataError(f"procedural weights must be 2-D, got shape {a.shape}")
    frames, v = a.shape
    if not 0 <= frame < frames:
        raise DataError(f"frame {frame} outside curve of {frames} frames")
    activate = frozenset(top_k(a[frame], n, eps_act))
    scheduled: set[int] = set()
    lo = max(0, frame - radius)
    hi = min(frames - 1, frame + radius)
    for j in range(lo, hi + 1):
        scheduled.update(top_k(a[j], m, eps_act))
    suppress = frozenset(range(v)) - scheduled
    return GuidanceSets(suppress=suppress, activate=activate)
