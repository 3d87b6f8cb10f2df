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

import numpy as np

from . import images
from .camera import quat_rotation_jacobians, quat_to_matrix
from .errors import NumericError
from .guidance import GuidanceSets
from .observations import RawObservation
from .rig import Rig


class FrameProblem:
    """One frame's objective with analytic value-and-gradient evaluation.

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
        bound = rig.landmark_bindings
        ids = obs.landmark_ids.tolist()
        rows = [i for i, lid in enumerate(ids) if lid in bound]
        self.lm_vidx = None
        if rows:
            self.lm_vidx = np.array([bound[ids[i]] for i in rows], dtype=np.int64)
            self.lm_tx = obs.landmark_points[rows, 0]
            self.lm_ty = obs.landmark_points[rows, 1]
            self.lm_betas = obs.landmark_betas[rows]
            self.lm_coef = (self.w1 * 2.0 / len(self.lm_vidx)) * self.lm_betas
            self.lm_unique = len(np.unique(self.lm_vidx)) == len(self.lm_vidx)

        # kept as given (a uint8 frame stays uint8): bilinear_sample converts
        # only the cells it reads
        self.image = None
        if obs.image is not None and self.colors is not None:
            self.image = np.asarray(obs.image)

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

