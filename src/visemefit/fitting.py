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
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .adam import AdamState, adam_step, learning_rate
from .atomicio import write_text
from .camera import Pose, check_focal, check_quat_norm, project
from .curves import Curve
from .errors import DataError, located
from .flow import screen_flow
from .guidance import guidance_sets
from .losses import FrameProblem
from .observations import RawObservation
from .procedural import EnvelopeRules, generate_procedural
from .records import read_text, split_records
from .rig import Rig, blend_vertices
from .timeline import PhonemeVisemeMap, Timeline

log = logging.getLogger(__name__)

# Largest accepted loss weight. Far above any useful weighting, it keeps a
# weight from overflowing the objective, which would fail late with a numeric
# error that names neither the config file nor the key.
MAX_LOSS_WEIGHT = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Loss weights, guidance parameters, optimizer schedule, camera intrinsics.

    Frozen, so the range checks in __post_init__ hold for the config's life.
    """

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
    iters: int = 80
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
            if not 0 <= getattr(self, name) <= MAX_LOSS_WEIGHT:
                raise DataError(f"loss weight {name} must be in [0, {MAX_LOSS_WEIGHT:g}]")
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
        check_focal(self.focal)

    @property
    def loss_weights(self):
        return (self.w1, self.w2, self.w3, self.w4, self.w5, self.w6, self.w7)

    @property
    def intrinsics(self) -> tuple[float, float, float]:
        return (self.focal, self.cx, self.cy)


# annotations are strings under ``from __future__ import annotations``
_INT_KEYS = {f.name for f in fields(FitConfig) if f.type == "int"}


def parse_fit_config(text: str, source: str = "<config>") -> FitConfig:
    known = {f.name for f in fields(FitConfig)}
    values = {}
    for line, key, value in split_records(text, source).key_values("config"):
        if key not in known:
            raise line.error(f"unknown config key {key!r}")
        values[key] = line.integer(value, key) if key in _INT_KEYS else line.number(value, key)
    with located(source):
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


def _optimize_frame(problem: FrameProblem, p0, cfg: FitConfig, frame: int):
    # Adam runs in scaled coordinates: pose entries are divided by
    # pose_step_scale so one step moves them a small fraction of a unit,
    # while weights step at the full learning rate.
    nv = len(p0) - 7
    scale = np.ones(nv + 7)
    scale[nv:] = cfg.pose_step_scale
    internal = p0 / scale
    state = AdamState.zeros(len(internal))
    params = np.empty_like(internal)
    # a finite but huge observation overflows inside evaluate; the finite
    # checks on the objective and the gradient report it with the frame
    with np.errstate(over="ignore", invalid="ignore"), located(f"frame {frame}"):
        for i in range(cfg.iters):
            # evaluate keeps no reference to w, q or t, so one buffer serves
            # every iteration
            np.multiply(internal, scale, out=params)
            _, gw, gq, gt = problem.evaluate(params[:nv], params[nv : nv + 4], params[nv + 4 :])
            grad = np.concatenate([gw, gq, gt])
            grad *= scale
            lr = learning_rate(i, cfg.lr0, cfg.decay_every, cfg.decay_factor)
            internal = adam_step(state, internal, grad, lr)
            qseg = internal[nv : nv + 4] * cfg.pose_step_scale
            norm = math.sqrt(qseg @ qseg)
            check_quat_norm(norm)
            internal[nv : nv + 4] = qseg / (norm * cfg.pose_step_scale)
    return internal * scale


def fit_clip(
    rig: Rig,
    timeline: Timeline,
    observations,
    cfg: FitConfig,
    vmap: PhonemeVisemeMap,
    rules: EnvelopeRules | None = None,
    fps: float = 30.0,
    clip: str = "<clip>",
    flows=None,
) -> FitResult:
    """Fit viseme weights and rigid pose to every frame of a clip.

    The guide curve, the timeline's procedural curve at fps, fixes the frame
    count. observations (a list of RawObservation or an ObservationDir) must
    be indexable at every guide frame. flows (ObservationDir.flow or None,
    when every pair is missing) gives the forward sweep the flow pair ending
    at each frame j > 0. clip names the clip (its observation directory) in
    warnings and in the errors its frames raise.
    """
    labels = vmap.labels
    if tuple(labels) != tuple(rig.viseme_labels):
        raise DataError("viseme map labels do not match the rig's labels")
    guide = generate_procedural(timeline, fps, vmap, rules).weights
    n_frames, nv = guide.shape

    # one row per frame: weights, quaternion (x, y, z, w), translation;
    # weights start from the guide, every pose from the identity (frames after
    # 0 copy the previous frame's pose before their forward solve)
    params = np.zeros((n_frames, nv + 7))
    params[:, :nv] = guide
    params[:, nv + 3] = 1.0
    missing_flow: list[int] = []
    missing_rgb = 0
    # a clip with no frame image and no flow pair is landmark-only by design,
    # so its missing flow is not worth a warning
    has_pixels = False
    unobserved: list[int] = []

    def pose(row):
        return Pose(rotation=row[nv : nv + 4], translation=row[nv + 4 :], intrinsics=cfg.intrinsics)

    for order in (range(n_frames), range(n_frames - 1, -1, -1)):
        forward = order.step == 1
        prev = None
        for j in order:
            # loaded outside located(clip): an ObservationDir error names the clip
            obs: RawObservation = observations[j]
            pair = flows(j) if forward and j > 0 and flows is not None else None
            with located(clip):
                flow_targets = None
                if forward and j > 0:
                    params[j, nv:] = params[j - 1, nv:]
                    if pair is None:
                        missing_flow.append(j)
                    else:
                        last = params[j - 1]
                        with located(f"frame {j - 1}"):
                            prev_proj = project(blend_vertices(rig, last[:nv]), pose(last))
                        with located(f"frame {j}"):
                            flow_targets = screen_flow(*pair, prev_proj, cfg.tau_flow)
                sets = guidance_sets(guide, j, cfg.m, cfg.n, cfg.radius, cfg.eps_act)
                problem = FrameProblem(
                    rig, cfg.loss_weights, sets, cfg.intrinsics, obs,
                    flow_targets=flow_targets,
                    neighbor_weights=None if prev is None else params[prev, :nv],
                )
                if forward:
                    has_pixels |= obs.image is not None or pair is not None
                    if obs.image is not None and problem.image is None:
                        missing_rgb += 1
                    if not problem.observed:
                        unobserved.append(j)
                params[j] = _optimize_frame(problem, params[j], cfg, j)
            prev = j

        if forward and missing_flow and has_pixels:
            log.warning(
                "%s: flow missing for %d of %d frame pairs, first at frame %d;"
                " flow term skipped there",
                clip, len(missing_flow), n_frames - 1, missing_flow[0],
            )
        if forward and missing_rgb:
            log.warning(
                "%s: rig has no vertex colors; photometric term skipped (%d frames have images)",
                clip, missing_rgb,
            )
        if forward and unobserved:
            log.warning(
                "%s: no landmark, image or flow data on %d of %d frames, first at frame %d;"
                " only the guidance and temporal terms fit them",
                clip, len(unobserved), n_frames, unobserved[0],
            )

    weights = np.clip(params[:, :nv], 0.0, 1.0)
    poses = [pose(row) for row in params]
    return FitResult(curve=Curve(fps=fps, labels=labels, weights=weights), poses=poses)


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
    for line in records.rows("frame"):
        cols = line.cells(8)
        line.frame(cols[0], len(rows))
        rows.append(line.numbers(cols[1:], _POSE_COLUMNS))
        check_quat_norm(sum(v * v for v in rows[-1][0:4]), line.error)
    intrinsics = tuple(records.header_number(key) for key in ("focal", "cx", "cy"))
    if not rows:
        return []
    if None in intrinsics:
        raise records.error("needs '# focal=', '# cx=' and '# cy=' comments")
    # every value is finite, so only the header's focal can be out of range
    with located(records.header["focal"].where):
        return [
            Pose(rotation=np.array(r[0:4]), translation=np.array(r[4:7]), intrinsics=intrinsics)
            for r in rows
        ]


def write_poses(poses, path) -> None:
    write_text(path, serialize_poses(poses))


def read_poses(path) -> list[Pose]:
    return parse_poses(read_text(path, "poses"), source=str(path))
