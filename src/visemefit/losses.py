"""Per-frame fitting objective: seven weighted terms and their gradients.

The terms take two code paths. Landmark and flow are pixel-target blocks,
both computed by _pixel_term: a weighted mean of scaled squared distances
between projected vertices and targets. The photometric term, which samples
the image, is added between them. The regularizers (suppress, activate,
temporal difference, range) are (weight, index, residual) rows on the weight
vector: each adds weight * mean(r * r) to the value and
(weight * 2.0 / len(r)) * r to the weight gradient.

evaluate() always returns the gradient, and it is analytic: pixel-space
gradients chain through blend -> rigid transform -> pinhole projection, the
photometric term uses the exact in-cell derivative of bilinear sampling, and
the quaternion gradient is the exact chain through normalization (tangent to
the unit sphere at unit norm).
"""

from __future__ import annotations

import math

import numpy as np

from . import images
from .camera import quat_rotation_jacobians, quat_to_matrix
from .errors import NumericError
from .guidance import GuidanceSets
from .observations import RawObservation
from .rig import Rig


class FrameProblem:
    """One frame's objective; evaluate() returns its value and gradient.

    Everything that stays constant across optimizer iterations (landmark
    targets, flow targets, guidance index arrays, the image) is resolved once
    here; evaluate() is the per-iteration hot path.

    obs supplies the landmarks and the image; landmark ids the rig does not
    bind are skipped. Its raw flow grids are not read: flow_targets is the
    screened (vertex indices, target pixels) pair, the previous frame's
    projections advected by the flow.
    """

    def __init__(
        self,
        rig: Rig,
        loss_weights,
        guidance: GuidanceSets | None,
        intrinsics: tuple[float, float, float],
        obs: RawObservation,
        *,
        flow_targets=None,
        neighbor_weights=None,
    ):
        self.intrinsics = (float(intrinsics[0]), float(intrinsics[1]), float(intrinsics[2]))
        self.b0 = rig.neutral.vertices
        self.d2 = rig.deltas.reshape(rig.viseme_count, -1)
        self.colors = rig.neutral.colors
        self.w1, self.w2, self.w3, self.w4, self.w5, self.w6, self.w7 = (
            float(x) for x in loss_weights
        )
        self.n_verts = rig.neutral.vertex_count
        self.n_visemes = rig.viseme_count

        # Pixel-target blocks are (weight, vertex indices, target x, target y,
        # per-point scale), or None when the set is empty. Flow's scale is all
        # ones, so it shares the landmark arithmetic exactly.
        rows, vidx = rig.landmark_rows(obs.landmark_ids)
        self.landmarks = None
        if rows.size:
            tx, ty = obs.landmark_points[rows].T.copy()
            self.landmarks = (self.w1, vidx, tx, ty, obs.landmark_betas[rows])

        # kept as given (a uint8 frame stays uint8): bilinear_sample converts
        # only the cells it reads
        self.image = None
        if obs.image is not None and self.colors is not None:
            self.image = np.asarray(obs.image)

        self.flow = None
        if flow_targets is not None and len(flow_targets[0]):
            vidx, targets = flow_targets
            tx, ty = np.asarray(targets, dtype=np.float64).reshape(-1, 2).T.copy()
            self.flow = (self.w5, np.asarray(vidx, dtype=np.int64), tx, ty, np.ones(len(tx)))

        sup, act = (guidance.suppress, guidance.activate) if guidance is not None else ((), ())
        self.sup_idx = np.array(sorted(sup), dtype=np.int64)
        self.act_idx = np.array(sorted(act), dtype=np.int64)

        self.neighbor = None
        if neighbor_weights is not None:
            self.neighbor = np.asarray(neighbor_weights, dtype=np.float64)

    def evaluate(self, w, q, t):
        """Objective value and its gradient (gw, gq, gt) at (w, q, t).

        q need not be unit; it is normalized on entry and the reported
        gradient is the exact derivative through that normalization.

        Every reduction keeps the rounding of the plain formulas: a mean is
        written sum / count (as numpy computes it), never a multiply by a
        precomputed reciprocal, and every gradient coefficient is
        weight * 2.0 / count. Terms add in a fixed order: landmark,
        photometric, flow, then the weight rows.
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
        dpx = np.zeros(n)
        dpy = np.zeros(n)
        gw = np.zeros(self.n_visemes)

        if self.landmarks is not None:
            val += _pixel_term(self.landmarks, px, py, dpx, dpy)

        if self.image is not None:
            h, wd = self.image.shape[:2]
            inb = (px >= 0.0) & (px <= wd - 1.0) & (py >= 0.0) & (py <= h - 1.0)
            fidx = np.flatnonzero(inb)
            if fidx.size == 0:
                raise NumericError("all vertices project outside the image")
            pts = np.stack([px[fidx], py[fidx]], axis=1)
            vals, gx, gy = images.bilinear_sample(self.image, pts, with_grad=True)
            rr = vals - self.colors[fidx]
            nf = fidx.size
            val += self.w2 * float((rr * rr).sum() / nf)
            c = self.w2 * 2.0 / nf
            dpx[fidx] += c * (rr * gx).sum(axis=1)
            dpy[fidx] += c * (rr * gy).sum(axis=1)

        if self.flow is not None:
            val += _pixel_term(self.flow, px, py, dpx, dpy)

        # weight rows (weight, index into w, residual): suppress, activate,
        # temporal, then the range term's upper and lower parts
        sup, act = self.sup_idx, self.act_idx
        rows = [(self.w3, sup, w[sup]), (-self.w4, act, w[act])]
        if self.neighbor is not None:
            rows.append((self.w6, slice(None), w - self.neighbor))
        upper = w > 1.0
        lower = w < 0.0
        rows += [(self.w7, upper, w[upper] - 1.0), (self.w7, lower, w[lower])]
        for weight, idx, r in rows:
            if len(r):
                val += weight * float((r * r).sum() / len(r))
                gw[idx] += (weight * 2.0 / len(r)) * r

        if not math.isfinite(val):
            raise NumericError("non-finite objective value")

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


def _pixel_term(block, px, py, dpx, dpy) -> float:
    """Add one pixel-target block's gradient to (dpx, dpy); return its value.

    The value is weight * mean of scale * squared pixel distance. np.add.at
    accumulates every point, so two targets on one vertex both count.
    """
    weight, vidx, tx, ty, scale = block
    rx = px[vidx] - tx
    ry = py[vidx] - ty
    c = (weight * 2.0 / len(vidx)) * scale
    np.add.at(dpx, vidx, c * rx)
    np.add.at(dpy, vidx, c * ry)
    return weight * float((scale * (rx * rx + ry * ry)).sum() / len(vidx))
