"""Per-frame fitting objective: seven weighted terms and their gradients.

FrameProblem builds every per-frame constant once; evaluate() then works on
one vector u = [projected vertex pixels (N, 2) flattened, the V viseme
weights] and three pieces:

- The residual rows stack every term whose rows are fixed for the frame.
  Each row reads one entry of u and has a target and a coefficient:
  - landmark: a pixel coordinate of the bound vertex, the observed
    position, w1 * beta / count;
  - flow: a pixel coordinate, the flow-advected previous projection,
    w5 / count;
  - suppress and activate: a weight, 0, w3 / |suppress| and
    -w4 / |activate|;
  - temporal: a weight, the neighbor frame's weight, w6 / V.

  They add sum(coef * (u[index] - target)^2) to the value, and np.bincount
  returns their gradient to u, so two rows on one entry both count.
- The photometric term samples the image at the projected vertices that land
  inside it. Which vertices those are changes with the pose, so it is built
  on each call.
- The range term's rows are the weights outside [0, 1], so they too depend
  on the call: the nonzero entries of min(w, 0) and max(w, 1) - 1, each side
  averaged over its own count.

evaluate() always returns the gradient, and it is analytic: pixel-space
gradients chain through blend -> rigid transform -> pinhole projection, the
photometric term uses the exact in-cell derivative of bilinear sampling, and
the quaternion gradient is the exact chain through normalization (tangent to
the unit sphere at unit norm). d(rotation)/dq is linear in q, so one constant
(16, 9) matrix, _DR_DQ, contracts it with the vertices.
"""

from __future__ import annotations

import math

import numpy as np

from . import images
from .camera import check_quat_norm, pinhole, quat_rotation_jacobians, quat_to_matrix
from .errors import NumericError
from .guidance import GuidanceSets
from .observations import RawObservation
from .rig import Rig, blend_vertices

# row 4 * i + j holds the coefficient of q[j] in d(rotation)/dq[i], over the
# nine matrix entries
_DR_DQ = np.stack([quat_rotation_jacobians(e) for e in np.eye(4)], axis=1).reshape(16, 9)
_ONES3 = np.ones(3)


def rotation_gradient(dldx, s, q_unit) -> np.ndarray:
    """d/dq of sum(dldx * (s @ R(q).T)) at a unit quaternion, dldx held fixed:
    for each i, the sum over vertices of dldx . (dR/dq[i] @ s)."""
    return (_DR_DQ @ (dldx.T @ s).ravel()).reshape(4, 4) @ q_unit


class FrameProblem:
    """One frame's objective; evaluate() returns its value and gradient.

    Everything that stays constant across optimizer iterations (the residual
    rows and the image) is built once here; evaluate() is the per-iteration
    hot path.

    obs supplies the landmarks and the image; landmark ids the rig does not
    bind are skipped. flow_targets is screen_flow's (int64 vertex indices,
    float64 (k, 2) target pixels) pair, and neighbor_weights the neighbor
    frame's float64 (V,) weights; both are taken as given. observed says
    whether any observation enters the objective: a bound landmark, the image
    or a flow target. Without one, only the guidance, temporal and range terms
    shape the frame.
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
        # an array, so pinhole adds the principal point without converting it
        self.intrinsics = np.array([float(intrinsics[0]), float(intrinsics[1]), float(intrinsics[2])])
        self.rig = rig
        self.d2 = rig.deltas.reshape(rig.viseme_count, -1)
        self.colors = rig.neutral.colors
        w1, self.w2, w3, w4, w5, w6, self.w7 = (float(x) for x in loss_weights)
        self.n_pixels = 2 * rig.neutral.vertex_count
        nv = rig.viseme_count

        # (entries of u, targets, coefficients) of each term's rows, after an
        # empty part that fixes the dtypes when no term has rows; a
        # coefficient that overflows is inf, and evaluate then reports the
        # non-finite objective
        parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
        rows, vidx = rig.landmark_rows(obs.landmark_ids)
        if rows.size:
            with np.errstate(over="ignore"):
                coef = w1 / rows.size * obs.landmark_betas[rows]
            parts.append(_pixel_rows(vidx, obs.landmark_points[rows], coef))
        if flow_targets is not None and len(flow_targets[0]):
            vidx, targets = flow_targets
            parts.append(_pixel_rows(vidx, targets, np.full(vidx.size, w5 / vidx.size)))
        observed_rows = len(parts) > 1  # landmark or flow rows, after the empty part
        sup, act = (guidance.suppress, guidance.activate) if guidance is not None else ((), ())
        for scale, members in ((w3, sup), (-w4, act)):
            if members:
                k = len(members)
                idx = self.n_pixels + np.array(sorted(members))
                parts.append((idx, np.zeros(k), np.full(k, scale / k)))
        if neighbor_weights is not None:
            parts.append((self.n_pixels + np.arange(nv), neighbor_weights, np.full(nv, w6 / nv)))
        self.rows = tuple(np.concatenate(a) for a in zip(*parts))

        # kept as given (a uint8 frame stays uint8): bilinear_sample converts
        # only the cells it reads
        self.image = None
        if obs.image is not None and self.colors is not None:
            self.image = obs.image
            self._image_size = (self.image.shape[1], self.image.shape[0])
        self.observed = observed_rows or self.image is not None

    def evaluate(self, w, q, t):
        """Objective value and its gradient (gw, gq, gt) at float64 (w, q, t).

        q need not be unit; it is normalized on entry and the reported
        gradient is the exact derivative through that normalization.

        Every term is a weighted sum of squares, so the gradients are
        accumulated halved and their common factor 2 is applied once, where
        they are chained to (w, q, t). Terms add in a fixed order: residual
        rows, photometric, then range.
        """
        q_norm = math.sqrt(q @ q)
        check_quat_norm(q_norm)
        qn = q / q_norm
        rot = quat_to_matrix(qn.tolist())
        s = blend_vertices(self.rig, w)
        x = s @ rot.T + t
        p, inv_z = pinhole(x, self.intrinsics)

        u = np.concatenate((p.ravel(), w))
        idx, targets, coef = self.rows
        r = u.take(idx) - targets
        g = coef * r
        val = float(np.vdot(g, r))
        # with no rows at all, bincount counts in integers
        du = np.bincount(idx, g, u.size).astype(np.float64, copy=False)
        dp = du[: self.n_pixels].reshape(p.shape)
        gw = du[self.n_pixels :]

        if self.image is not None:
            inside = images.InBounds(p, *self._image_size)
            if inside.count == 0:
                raise NumericError("all vertices project outside the image")
            vals, gx, gy = images.bilinear_sample(self.image, inside, with_grad=True)
            colors = self.colors if inside.index is None else self.colors.take(inside.index, axis=0)
            rr = vals - colors
            val += self.w2 * (float(np.vdot(rr, rr)) / inside.count)
            # per-vertex dot products over the three channels, written into
            # the columns of one array: stacking two results cost more here
            # than both products
            grad = np.empty((inside.count, 2))
            np.matmul(rr * gx, _ONES3, out=grad[:, 0])
            np.matmul(rr * gy, _ONES3, out=grad[:, 1])
            grad *= self.w2 / inside.count
            if inside.index is None:
                dp += grad
            else:
                dp[inside.index] += grad

        for r in (np.minimum(w, 0.0), np.maximum(w, 1.0) - 1.0):
            k = np.count_nonzero(r)
            if k:
                val += self.w7 * (float(np.vdot(r, r)) / k)
                gw += (self.w7 / k) * r

        if not math.isfinite(val):
            raise NumericError("non-finite objective value")

        # chain the halved pixel gradients to (w, q, t) through the projection
        fz = (2.0 * self.intrinsics[0]) * inv_z
        dldx = np.empty_like(x)
        np.multiply(dp, fz[:, None], out=dldx[:, :2])
        dldx[:, 2] = (dldx[:, 0] * x[:, 0] + dldx[:, 1] * x[:, 1]) * -inv_z
        gt = dldx.sum(axis=0)
        gw = 2.0 * gw + self.d2 @ (dldx @ rot).ravel()
        gq_unit = rotation_gradient(dldx, s, qn)
        gq = (gq_unit - qn * float(qn @ gq_unit)) / q_norm
        return val, gw, gq, gt


def _pixel_rows(vidx, targets, coef):
    """Rows for target pixels (k, 2) of vertices vidx: two entries of u per
    target, both with the target's coefficient."""
    entries = (2 * vidx[:, None] + np.arange(2)).ravel()
    return entries, targets.ravel(), np.repeat(coef, 2)
