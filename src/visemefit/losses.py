"""Per-frame fitting objective: seven weighted terms and their gradients.

Data terms (landmark, photometric, flow) chain through blend -> rigid
transform -> pinhole projection; regularizers (suppress, activate, neighbor
difference, range) act on the weight vector directly. Gradients are analytic:
the projection jacobian is exact, the photometric term uses the exact in-cell
derivative of bilinear sampling, and the quaternion gradient is the exact
chain through normalization (tangent to the unit sphere at unit norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import images
from .camera import Pose, quat_rotation_jacobians, quat_to_matrix
from .errors import DataError, NumericError
from .guidance import GuidanceSets
from .observations import FrameObservation
from .rig import Rig, blend_vertices, check_weights


@dataclass
class FrameState:
    """Free parameters for one frame: viseme weights and rigid pose."""

    weights: np.ndarray
    pose: Pose

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)


@dataclass
class ParamGrad:
    """Gradient of the objective over (weights, rotation, translation)."""

    weights: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray


def _resolve_landmarks(rig: Rig, ids, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """Map landmark ids to vertex indices; keep mask marks resolvable ids."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    vidx = np.empty(len(ids), dtype=np.int64)
    keep = np.zeros(len(ids), dtype=bool)
    for i, lid in enumerate(ids):
        v = rig.landmark_bindings.get(int(lid))
        if v is None:
            if strict:
                raise DataError(f"landmark id {int(lid)} is not bound in the rig")
            continue
        vidx[i] = v
        keep[i] = True
    return vidx[keep], keep


def loss_lmk(pose: Pose, weights, rig: Rig, landmarks) -> float:
    """Beta-weighted mean squared pixel distance between projected bound
    vertices and observed landmark positions.

    landmarks: iterable of (id, (x, y), beta).
    """
    items = list(landmarks)
    if not items:
        raise DataError("landmark loss needs at least one landmark")
    ids = [it[0] for it in items]
    pts = np.array([it[1] for it in items], dtype=np.float64).reshape(-1, 2)
    betas = np.array([it[2] for it in items], dtype=np.float64)
    if np.any(betas <= 0):
        raise DataError("landmark betas must be positive")
    vidx, _ = _resolve_landmarks(rig, ids, strict=True)
    from .camera import project

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
    from .camera import project
    from .images import bilinear_sample, in_bounds

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
    previous projections. Zero without a previous frame or correspondences."""
    if prev_pose is None or correspondences is None:
        return 0.0
    vidx, disp = _as_correspondences(correspondences)
    if vidx.size == 0:
        return 0.0
    if vidx.min() < 0 or vidx.max() >= rig.neutral.vertex_count:
        raise DataError("flow correspondence vertex index out of range")
    from .camera import project

    prev_proj = project(blend_vertices(rig, prev_weights), prev_pose)
    targets = prev_proj[vidx] + disp
    proj = project(blend_vertices(rig, weights), pose)
    r = proj[vidx] - targets
    return float((r * r).sum() / len(vidx))


def _as_correspondences(correspondences) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(correspondences, tuple) and len(correspondences) == 2:
        vidx = np.asarray(correspondences[0], dtype=np.int64).reshape(-1)
        disp = np.asarray(correspondences[1], dtype=np.float64).reshape(-1, 2)
    else:
        items = list(correspondences)
        vidx = np.array([it[0] for it in items], dtype=np.int64)
        disp = np.array([it[1] for it in items], dtype=np.float64).reshape(-1, 2)
    if len(vidx) != len(disp):
        raise DataError("correspondence indices and displacements differ in length")
    return vidx, disp


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


class FrameProblem:
    """One frame's objective with analytic value-and-gradient evaluation.

    Everything that stays constant across optimizer iterations (landmark
    targets, flow targets, guidance index arrays, the image) is resolved once
    here; evaluate() is the per-iteration hot path.
    """

    def __init__(
        self,
        rig: Rig,
        loss_weights,
        guidance: GuidanceSets | None,
        intrinsics: tuple[float, float, float],
        *,
        landmarks=None,
        image: np.ndarray | None = None,
        flow_targets=None,
        neighbor_weights=None,
    ):
        self.rig = rig
        self.intrinsics = (float(intrinsics[0]), float(intrinsics[1]), float(intrinsics[2]))
        self.b0 = rig.neutral.vertices
        self.d2 = rig.deltas.reshape(rig.viseme_count, -1)
        self.colors = rig.neutral.colors
        self.w1, self.w2, self.w3, self.w4, self.w5, self.w6, self.w7 = (
            float(x) for x in loss_weights
        )
        self.n_verts = rig.neutral.vertex_count
        self.n_visemes = rig.viseme_count

        # Targets are stored as contiguous columns and the per-term gradient
        # coefficients are fixed here, so evaluate() only gathers and scales.
        # An empty landmark or flow set contributes nothing.
        self.lm_vidx = None
        if landmarks is not None and len(landmarks[0]):
            vidx, targets, betas = landmarks
            targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
            self.lm_vidx = np.asarray(vidx, dtype=np.int64)
            self.lm_tx = targets[:, 0].copy()
            self.lm_ty = targets[:, 1].copy()
            self.lm_betas = np.asarray(betas, dtype=np.float64)
            self.lm_coef = (self.w1 * 2.0 / len(self.lm_vidx)) * self.lm_betas
            self.lm_unique = len(np.unique(self.lm_vidx)) == len(self.lm_vidx)

        # kept as given (a uint8 frame stays uint8): bilinear_sample converts
        # only the cells it reads
        self.image = None
        if image is not None and self.colors is not None:
            self.image = np.asarray(image)

        self.fl_vidx = None
        if flow_targets is not None and len(flow_targets[0]):
            vidx, targets = flow_targets
            targets = np.asarray(targets, dtype=np.float64).reshape(-1, 2)
            self.fl_vidx = np.asarray(vidx, dtype=np.int64)
            self.fl_tx = targets[:, 0].copy()
            self.fl_ty = targets[:, 1].copy()
            self.fl_coef = self.w5 * 2.0 / len(self.fl_vidx)

        if guidance is not None:
            self.sup_idx = np.array(sorted(guidance.suppress), dtype=np.int64)
            self.act_idx = np.array(sorted(guidance.activate), dtype=np.int64)
        else:
            self.sup_idx = np.zeros(0, dtype=np.int64)
            self.act_idx = np.zeros(0, dtype=np.int64)
        if self.sup_idx.size:
            self.sup_coef = self.w3 * 2.0 / len(self.sup_idx)
        if self.act_idx.size:
            self.act_coef = -self.w4 * 2.0 / len(self.act_idx)

        self.neighbor = (
            np.asarray(neighbor_weights, dtype=np.float64)
            if neighbor_weights is not None
            else None
        )
        self.nb_coef = self.w6 * 2.0 / self.n_visemes

    @classmethod
    def from_observation(
        cls,
        rig: Rig,
        loss_weights,
        guidance: GuidanceSets | None,
        intrinsics: tuple[float, float, float],
        obs: FrameObservation,
        prev_state: FrameState | None = None,
        neighbor_weights=None,
    ) -> "FrameProblem":
        landmarks = None
        if obs.landmark_ids is not None and len(obs.landmark_ids):
            vidx, keep = _resolve_landmarks(rig, obs.landmark_ids, strict=False)
            if keep.any():
                landmarks = (vidx, obs.landmark_points[keep], obs.landmark_betas[keep])
        flow_targets = None
        if (
            obs.flow_vertices is not None
            and len(obs.flow_vertices)
            and prev_state is not None
        ):
            from .camera import project

            prev_proj = project(blend_vertices(rig, prev_state.weights), prev_state.pose)
            vidx = np.asarray(obs.flow_vertices, dtype=np.int64)
            disp = np.asarray(obs.flow_displacements, dtype=np.float64).reshape(-1, 2)
            flow_targets = (vidx, prev_proj[vidx] + disp)
        return cls(
            rig,
            loss_weights,
            guidance,
            intrinsics,
            landmarks=landmarks,
            image=obs.image,
            flow_targets=flow_targets,
            neighbor_weights=neighbor_weights,
        )

    def evaluate(self, w, q, t, want_grad: bool = True):
        """Objective value and, when asked, its gradient at (w, q, t).

        q need not be unit; it is normalized on entry and the reported
        gradient is the exact derivative through that normalization.

        Every reduction keeps the rounding of the plain formulas: a mean is
        written sum / count (as numpy computes it), never a multiply by a
        precomputed reciprocal.
        """
        n = self.n_verts
        w = np.asarray(w, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        q_norm = math.sqrt(q @ q)
        if q_norm == 0.0 or not math.isfinite(q_norm):
            raise NumericError("degenerate quaternion during evaluation")
        qn = q / q_norm
        q_unit = qn.tolist()
        s = self.b0 + (w @ self.d2).reshape(n, 3)
        rot = quat_to_matrix(q_unit)
        x = s @ rot.T + np.asarray(t, dtype=np.float64)
        z = x[:, 2]
        if z.min() <= 0.0:
            bad = int(np.argmin(z))
            raise NumericError(f"behind-camera vertex {bad} (depth {z[bad]:.6g})")
        f, cx, cy = self.intrinsics
        inv_z = 1.0 / z
        px = f * x[:, 0] * inv_z + cx
        py = f * x[:, 1] * inv_z + cy

        val = 0.0
        if want_grad:
            dpx = np.zeros(n)
            dpy = np.zeros(n)
            gw = np.zeros(self.n_visemes)

        if self.lm_vidx is not None:
            vi = self.lm_vidx
            rx = px[vi] - self.lm_tx
            ry = py[vi] - self.lm_ty
            val += self.w1 * float((self.lm_betas * (rx * rx + ry * ry)).sum() / len(vi))
            if want_grad:
                c = self.lm_coef
                if self.lm_unique:
                    dpx[vi] += c * rx
                    dpy[vi] += c * ry
                else:
                    np.add.at(dpx, vi, c * rx)
                    np.add.at(dpy, vi, c * ry)

        if self.image is not None:
            h, wd = self.image.shape[:2]
            inb = (px >= 0.0) & (px <= wd - 1.0) & (py >= 0.0) & (py <= h - 1.0)
            fidx = np.flatnonzero(inb)
            if fidx.size == 0:
                raise NumericError("all vertices project outside the image")
            pts = np.stack([px[fidx], py[fidx]], axis=1)
            if want_grad:
                vals, gx, gy = images.bilinear_sample(self.image, pts, with_grad=True)
            else:
                vals = images.bilinear_sample(self.image, pts)
            rr = vals - self.colors[fidx]
            nf = fidx.size
            val += self.w2 * float((rr * rr).sum() / nf)
            if want_grad:
                c = self.w2 * 2.0 / nf
                dpx[fidx] += c * (rr * gx).sum(axis=1)
                dpy[fidx] += c * (rr * gy).sum(axis=1)

        if self.fl_vidx is not None:
            vi = self.fl_vidx
            rx = px[vi] - self.fl_tx
            ry = py[vi] - self.fl_ty
            val += self.w5 * float((rx * rx + ry * ry).sum() / len(vi))
            if want_grad:
                dpx[vi] += self.fl_coef * rx
                dpy[vi] += self.fl_coef * ry

        if self.sup_idx.size:
            ws = w[self.sup_idx]
            val += self.w3 * float((ws * ws).sum() / len(ws))
            if want_grad:
                gw[self.sup_idx] += self.sup_coef * ws
        if self.act_idx.size:
            wa = w[self.act_idx]
            val += -self.w4 * float((wa * wa).sum() / len(wa))
            if want_grad:
                gw[self.act_idx] += self.act_coef * wa
        if self.neighbor is not None:
            d = w - self.neighbor
            val += self.w6 * float((d * d).sum() / len(d))
            if want_grad:
                gw += self.nb_coef * d
        upper = w > 1.0
        if upper.any():
            e = w[upper] - 1.0
            val += self.w7 * float((e * e).sum() / len(e))
            if want_grad:
                gw[upper] += (self.w7 * 2.0 / len(e)) * e
        lower = w < 0.0
        if lower.any():
            e = w[lower]
            val += self.w7 * float((e * e).sum() / len(e))
            if want_grad:
                gw[lower] += (self.w7 * 2.0 / len(e)) * e

        if not math.isfinite(val):
            raise NumericError("non-finite objective value")
        if not want_grad:
            return val, None, None, None

        # chain pixel-space gradients to (w, q, t) through the projection
        a = dpx * f * inv_z
        b = dpy * f * inv_z
        dldx = np.empty((n, 3))
        dldx[:, 0] = a
        dldx[:, 1] = b
        dldx[:, 2] = -(a * x[:, 0] + b * x[:, 1]) * inv_z
        gt = dldx.sum(axis=0)
        gw += self.d2 @ (dldx @ rot).ravel()
        drdq = quat_rotation_jacobians(q_unit)
        # sum over vertices of dldx * (s @ drdq[i].T), for all four i at once
        gq_unit = (dldx * (s @ drdq.transpose(0, 2, 1))).reshape(4, -1).sum(axis=1)
        gq = (gq_unit - qn * float(qn @ gq_unit)) / q_norm
        return val, gw, gq, gt


def _problem_for(
    rig: Rig,
    state: FrameState,
    observation: FrameObservation,
    guidance: GuidanceSets | None,
    cfg,
    prev_state: FrameState | None,
    neighbor_weights,
) -> FrameProblem:
    return FrameProblem.from_observation(
        rig,
        cfg.loss_weights,
        guidance,
        state.pose.intrinsics,
        observation,
        prev_state=prev_state,
        neighbor_weights=neighbor_weights,
    )


def total_loss(
    rig: Rig,
    state: FrameState,
    observation: FrameObservation,
    guidance: GuidanceSets | None,
    cfg,
    *,
    prev_state: FrameState | None = None,
    neighbor_weights=None,
) -> float:
    """Weighted sum of all seven terms for one frame."""
    w = check_weights(rig, state.weights)
    prob = _problem_for(rig, state, observation, guidance, cfg, prev_state, neighbor_weights)
    val, _, _, _ = prob.evaluate(w, state.pose.rotation, state.pose.translation, want_grad=False)
    return val


def grad_total(
    rig: Rig,
    state: FrameState,
    observation: FrameObservation,
    guidance: GuidanceSets | None,
    cfg,
    *,
    prev_state: FrameState | None = None,
    neighbor_weights=None,
) -> ParamGrad:
    """Analytic gradient of total_loss over weights, rotation, translation."""
    w = check_weights(rig, state.weights)
    prob = _problem_for(rig, state, observation, guidance, cfg, prev_state, neighbor_weights)
    _, gw, gq, gt = prob.evaluate(w, state.pose.rotation, state.pose.translation)
    return ParamGrad(weights=gw, rotation=gq, translation=gt)
