"""Clip fitting: per-frame weight and pose optimization in two sweeps.

The forward sweep seeds each frame's weights from the procedural guide curve
and its pose from the previous frame, pulls the current frame toward the
previous one (temporal difference term) and toward flow-advected previous
projections. The backward sweep re-optimizes in reverse order, seeded from
the forward results, with the temporal term now referencing the next frame
and the flow term off. Weights are clipped to [0, 1] once, at the very end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from .adam import AdamState, adam_step, learning_rate
from .camera import Pose, identity_pose, project
from .curves import Curve
from .errors import DataError, NumericError
from .flow import screen_flow
from .guidance import GuidanceSets, guidance_sets
from .losses import FrameProblem, _resolve_landmarks
from .observations import RawObservation
from .procedural import EnvelopeRules, generate_procedural
from .records import read_text, split_records
from .rig import Rig, blend_vertices
from .timeline import PhonemeVisemeMap, Timeline

log = logging.getLogger(__name__)


@dataclass
class FitConfig:
    """Loss weights, guidance parameters, optimizer schedule, camera intrinsics."""

    w1: float = 0.8  # landmark
    w2: float = 1.0  # photometric
    w3: float = 800.0  # suppress
    w4: float = 150.0  # activate
    w5: float = 1.0  # flow
    w6: float = 300.0  # temporal difference
    w7: float = 100.0  # range
    m: int = 3
    n: int = 2
    radius: int = 2
    iters: int = 250
    lr0: float = 0.1
    decay_every: int = 10
    decay_factor: float = 0.9
    tau_flow: float = 1.0
    eps_act: float = 0.01
    # rigid params move a few millimetres per step, not tenths of the head
    # size: one optimizer step covers pose_step_scale * lr in pose units
    pose_step_scale: float = 0.05
    focal: float = 1200.0
    cx: float = 192.0
    cy: float = 192.0

    def __post_init__(self):
        for name in ("w1", "w2", "w3", "w4", "w5", "w6", "w7"):
            if getattr(self, name) < 0:
                raise DataError(f"loss weight {name} cannot be negative")
        if self.n > self.m:
            raise DataError(f"activate size n={self.n} cannot exceed suppress rank m={self.m}")
        if self.m < 0 or self.n < 0 or self.radius < 0:
            raise DataError("m, n and radius must be non-negative")
        if self.iters < 1:
            raise DataError("iters must be at least 1")
        if self.lr0 <= 0 or not 0 < self.decay_factor <= 1 or self.decay_every < 1:
            raise DataError("bad learning-rate schedule")
        if self.tau_flow <= 0 or self.eps_act < 0:
            raise DataError("tau_flow must be positive and eps_act non-negative")
        if self.pose_step_scale <= 0:
            raise DataError("pose_step_scale must be positive")
        if self.focal <= 0:
            raise DataError("focal length must be positive")

    @property
    def loss_weights(self):
        return (self.w1, self.w2, self.w3, self.w4, self.w5, self.w6, self.w7)

    @property
    def intrinsics(self) -> tuple[float, float, float]:
        return (self.focal, self.cx, self.cy)


_INT_KEYS = {"m", "n", "radius", "iters", "decay_every"}


def parse_fit_config(text: str, source: str = "<config>") -> FitConfig:
    known = {f.name for f in fields(FitConfig)}
    values = {}
    for line in split_records(text, source).body:
        key, value = line.key_value()
        if key not in known:
            raise line.error(f"unknown config key {key!r}")
        values[key] = line.integer(value, key) if key in _INT_KEYS else line.number(value, key)
    return FitConfig(**values)


def read_fit_config(path) -> FitConfig:
    return parse_fit_config(read_text(path, "config"), source=str(path))


def serialize_fit_config(cfg: FitConfig) -> str:
    lines = []
    for f in fields(FitConfig):
        v = getattr(cfg, f.name)
        lines.append(f"{f.name}={v!r}" if isinstance(v, float) else f"{f.name}={v}")
    return "\n".join(lines) + "\n"


@dataclass
class FitResult:
    curve: Curve
    poses: list[Pose] = field(default_factory=list)


def _pack(w, q, t):
    return np.concatenate([w, q, t])


def _optimize_frame(problem: FrameProblem, w0, q0, t0, cfg: FitConfig, frame: int):
    # Adam runs in scaled coordinates: pose entries are divided by
    # pose_step_scale so one step moves them a small fraction of a unit,
    # while weights step at the full learning rate.
    nv = len(w0)
    scale = np.ones(nv + 7)
    scale[nv:] = cfg.pose_step_scale
    internal = _pack(w0, q0, t0) / scale
    state = AdamState.zeros(len(internal))
    for i in range(cfg.iters):
        params = internal * scale
        w = params[:nv]
        q = params[nv : nv + 4]
        t = params[nv + 4 :]
        try:
            _, gw, gq, gt = problem.evaluate(w, q, t)
        except NumericError as exc:
            raise NumericError(f"frame {frame}: {exc}") from exc
        grad = _pack(gw, gq, gt) * scale
        lr = learning_rate(i, cfg.lr0, cfg.decay_every, cfg.decay_factor)
        try:
            internal = adam_step(state, internal, grad, lr)
        except NumericError as exc:
            raise NumericError(f"frame {frame}: {exc}") from exc
        qseg = internal[nv : nv + 4] * cfg.pose_step_scale
        norm = float(np.sqrt(qseg @ qseg))
        if norm == 0.0 or not np.isfinite(norm):
            raise NumericError(f"frame {frame}: quaternion collapsed to zero")
        internal[nv : nv + 4] = qseg / (norm * cfg.pose_step_scale)
    params = internal * scale
    return params[:nv], params[nv : nv + 4], params[nv + 4 :]


def fit_clip(
    rig: Rig,
    timeline: Timeline,
    observations,
    cfg: FitConfig,
    vmap: PhonemeVisemeMap,
    rules: EnvelopeRules | None = None,
    fps: float = 30.0,
) -> FitResult:
    """Fit viseme weights and rigid pose to every frame of a clip.

    observations is indexable per frame (a list of RawObservation or an
    ObservationDir); its length fixes the frame count. The procedural guide
    curve is generated from the timeline and zero-padded to that length.
    """
    n_frames = len(observations)
    labels = vmap.labels
    if tuple(labels) != tuple(rig.viseme_labels):
        raise DataError("viseme map labels do not match the rig's labels")
    if n_frames == 0:
        return FitResult(
            curve=Curve(fps=fps, labels=labels, weights=np.zeros((0, len(labels)))),
            poses=[],
        )
    proc = generate_procedural(timeline, fps, vmap, rules)
    guide = np.zeros((n_frames, rig.viseme_count))
    upto = min(n_frames, proc.frame_count)
    guide[:upto] = proc.weights[:upto]

    sets: list[GuidanceSets] = [
        guidance_sets(guide, j, cfg.m, cfg.n, cfg.radius, cfg.eps_act)
        for j in range(n_frames)
    ]

    weights = np.zeros((n_frames, rig.viseme_count))
    quats = np.zeros((n_frames, 4))
    trans = np.zeros((n_frames, 3))
    missing_flow = 0
    missing_rgb = 0

    # forward sweep
    prev_w = prev_q = prev_t = None
    for j in range(n_frames):
        obs: RawObservation = observations[j]
        flow_targets = None
        if j > 0 and obs.flow is not None:
            prev_proj = _safe_project(rig, prev_w, prev_q, prev_t, cfg, j - 1)
            fwd, bwd = obs.flow
            vidx, disp = screen_flow(fwd, bwd, prev_proj, cfg.tau_flow)
            if vidx.size:
                flow_targets = (vidx, prev_proj[vidx] + disp)
        elif j > 0 and obs.flow is None:
            missing_flow += 1
        if obs.image is not None and rig.neutral.colors is None:
            missing_rgb += 1
        problem = _build_problem(
            rig, cfg, sets[j], obs, flow_targets, neighbor_weights=prev_w
        )
        q0 = prev_q if prev_q is not None else np.array([0.0, 0.0, 0.0, 1.0])
        t0 = prev_t if prev_t is not None else np.zeros(3)
        w, q, t = _optimize_frame(problem, guide[j].copy(), q0.copy(), t0.copy(), cfg, j)
        weights[j], quats[j], trans[j] = w, q, t
        prev_w, prev_q, prev_t = w, q, t

    if missing_flow:
        log.warning("flow missing for %d of %d frame pairs; flow term skipped there", missing_flow, n_frames - 1)
    if missing_rgb:
        log.warning("rig has no vertex colors; photometric term skipped")

    # backward sweep: seed from the forward pass, temporal term looks ahead
    next_w = None
    for j in range(n_frames - 1, -1, -1):
        obs = observations[j]
        problem = _build_problem(rig, cfg, sets[j], obs, None, neighbor_weights=next_w)
        w, q, t = _optimize_frame(
            problem, weights[j].copy(), quats[j].copy(), trans[j].copy(), cfg, j
        )
        weights[j], quats[j], trans[j] = w, q, t
        next_w = w

    np.clip(weights, 0.0, 1.0, out=weights)
    poses = [
        Pose(rotation=quats[j], translation=trans[j], intrinsics=cfg.intrinsics)
        for j in range(n_frames)
    ]
    return FitResult(curve=Curve(fps=fps, labels=labels, weights=weights), poses=poses)


def _safe_project(rig, w, q, t, cfg, frame):
    pose = Pose(rotation=q, translation=t, intrinsics=cfg.intrinsics)
    try:
        return project(blend_vertices(rig, w), pose)
    except NumericError as exc:
        raise NumericError(f"frame {frame}: {exc}") from exc


def _build_problem(rig, cfg, sets_j, obs, flow_targets, neighbor_weights):
    landmarks = None
    if obs.landmark_ids is not None and len(obs.landmark_ids):
        vidx, keep = _resolve_landmarks(rig, obs.landmark_ids, strict=False)
        if keep.any():
            landmarks = (vidx, obs.landmark_points[keep], obs.landmark_betas[keep])
    return FrameProblem(
        rig,
        cfg.loss_weights,
        sets_j,
        cfg.intrinsics,
        landmarks=landmarks,
        image=obs.image,
        flow_targets=flow_targets,
        neighbor_weights=neighbor_weights,
    )


_POSE_COLUMNS = ("qx", "qy", "qz", "qw", "tx", "ty", "tz")


def serialize_poses(poses) -> str:
    """Poses as CSV with shared intrinsics in header comments.

    Floats use repr so parse(serialize(x)) is exact.
    """
    lines = []
    if poses:
        f, cx, cy = poses[0].intrinsics
        for p in poses:
            if p.intrinsics != (f, cx, cy):
                raise DataError("poses in one clip must share camera intrinsics")
        lines += [f"# focal={f!r}", f"# cx={cx!r}", f"# cy={cy!r}"]
    lines.append("frame," + ",".join(_POSE_COLUMNS))
    for j, p in enumerate(poses):
        nums = list(p.rotation) + list(p.translation)
        lines.append(f"{j}," + ",".join(repr(float(v)) for v in nums))
    return "\n".join(lines) + "\n"


def parse_poses(text: str, source: str = "<poses>") -> list[Pose]:
    records = split_records(text, source)
    rows: list[list[float]] = []
    for line in records.body:
        cols = line.text.split(",")
        if cols[0] == "frame":
            continue
        if len(cols) != 8:
            raise line.error(f"expected 8 columns, got {len(cols)}")
        if line.integer(cols[0], "frame") != len(rows):
            raise line.error("frames must be consecutive from 0")
        rows.append(line.numbers(cols[1:], _POSE_COLUMNS))
    intrinsics = tuple(records.header_number(key) for key in ("focal", "cx", "cy"))
    if rows and None in intrinsics:
        raise DataError(f"{source}: needs '# focal=', '# cx=' and '# cy=' comments")
    return [
        Pose(rotation=np.array(r[0:4]), translation=np.array(r[4:7]), intrinsics=intrinsics)
        for r in rows
    ]


def write_poses(poses, path) -> None:
    from .atomicio import write_text

    write_text(path, serialize_poses(poses))


def read_poses(path) -> list[Pose]:
    return parse_poses(read_text(path, "poses"), source=str(path))
