"""The seven loss terms written out one by one, as an independent oracle.

FrameProblem.evaluate fuses these terms into one pass over the rig; the
tests compare it against the plain formulas here. Each term takes the
current weights (and pose, for the data terms) and returns a float.
"""

import numpy as np

from visemefit.camera import Pose, project
from visemefit.errors import DataError, NumericError
from visemefit.guidance import GuidanceSets
from visemefit.images import bilinear_sample, in_bounds
from visemefit.rig import Rig, blend_vertices


def loss_lmk(pose: Pose, weights, rig: Rig, landmarks) -> float:
    """Beta-weighted mean squared pixel distance between projected bound
    vertices and observed landmark positions.

    landmarks: iterable of (id, (x, y), beta); every id must be bound.
    """
    items = list(landmarks)
    if not items:
        raise DataError("landmark loss needs at least one landmark")
    pts = np.array([it[1] for it in items], dtype=np.float64).reshape(-1, 2)
    betas = np.array([it[2] for it in items], dtype=np.float64)
    if np.any(betas <= 0):
        raise DataError("landmark betas must be positive")
    vidx = []
    for lid, _, _ in items:
        if int(lid) not in rig.landmark_bindings:
            raise DataError(f"landmark id {int(lid)} is not bound in the rig")
        vidx.append(rig.landmark_bindings[int(lid)])
    proj = project(blend_vertices(rig, weights), pose)
    r = proj[vidx] - pts
    return float((betas * (r * r).sum(axis=1)).sum() / len(items))


def loss_rgb(pose: Pose, weights, rig: Rig, image: np.ndarray) -> float:
    """Mean squared color difference between the image sampled at projected
    vertices and the rig's per-vertex colors, over vertices landing in-image."""
    if rig.neutral.colors is None:
        raise DataError("photometric loss needs per-vertex colors on the rig")
    img = np.asarray(image)  # a uint8 frame stays uint8; see bilinear_sample
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"image must be (H, W, 3), got {img.shape}")
    proj = project(blend_vertices(rig, weights), pose)
    inb = in_bounds(proj, img.shape[1], img.shape[0])
    if not inb.any():
        raise NumericError("all vertices project outside the image")
    vals = bilinear_sample(img, proj[inb])
    r = vals - rig.neutral.colors[inb]
    return float((r * r).sum() / int(inb.sum()))


def loss_sup(weights, sets: GuidanceSets) -> float:
    """Mean squared weight over the suppress set (0 when empty)."""
    w = np.asarray(weights, dtype=np.float64)
    idx = sorted(sets.suppress)
    if not idx:
        return 0.0
    ws = w[idx]
    return float((ws * ws).mean())


def loss_act(weights, sets: GuidanceSets) -> float:
    """Negated mean squared weight over the activate set (0 when empty);
    minimizing it pushes scheduled visemes up."""
    w = np.asarray(weights, dtype=np.float64)
    idx = sorted(sets.activate)
    if not idx:
        return 0.0
    wa = w[idx]
    return float(-(wa * wa).mean())


def loss_flow(
    pose: Pose, weights, prev_pose: Pose | None, prev_weights, rig: Rig, correspondences
) -> float:
    """Mean squared distance between current projections and flow-advected
    previous projections. Zero without a previous frame or correspondences.

    correspondences: (vertex indices (K,), pixel displacements (K, 2)).
    """
    if prev_pose is None or correspondences is None:
        return 0.0
    vidx = np.asarray(correspondences[0], dtype=np.int64).reshape(-1)
    disp = np.asarray(correspondences[1], dtype=np.float64).reshape(-1, 2)
    if len(vidx) != len(disp):
        raise DataError("correspondence indices and displacements differ in length")
    if vidx.size == 0:
        return 0.0
    if vidx.min() < 0 or vidx.max() >= rig.neutral.vertex_count:
        raise DataError("flow correspondence vertex index out of range")
    prev_proj = project(blend_vertices(rig, prev_weights), prev_pose)
    targets = prev_proj[vidx] + disp
    proj = project(blend_vertices(rig, weights), pose)
    r = proj[vidx] - targets
    return float((r * r).sum() / len(vidx))


def loss_diff(weights, neighbor_weights) -> float:
    """Mean squared per-viseme difference to the neighbor frame (0 if none)."""
    if neighbor_weights is None:
        return 0.0
    w = np.asarray(weights, dtype=np.float64)
    nb = np.asarray(neighbor_weights, dtype=np.float64)
    if w.shape != nb.shape:
        raise DataError("neighbor weight vector has a different length")
    d = w - nb
    return float((d * d).mean())


def loss_range(weights) -> float:
    """Quadratic penalty outside [0, 1]: mean of (w-1)^2 over entries above 1
    plus mean of w^2 over entries below 0, each 0 for an empty set."""
    w = np.asarray(weights, dtype=np.float64)
    total = 0.0
    upper = w > 1.0
    if upper.any():
        e = w[upper] - 1.0
        total += float((e * e).mean())
    lower = w < 0.0
    if lower.any():
        e = w[lower]
        total += float((e * e).mean())
    return total
