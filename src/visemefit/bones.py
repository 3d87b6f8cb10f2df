"""Bone-pose assets and curve-driven pose blending for jaw/tongue style rigs.

Assets hold a rest pose plus one pose per viseme for each bone. Blending is
linear on translation and scale; rotations combine by a sign-aligned weighted
quaternion sum (normalized lerp) where the rest pose carries the leftover
weight max(0, 1 - sum(w)).

Asset files are CSV rows ``bone,pose_label,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz``
with the label ``rest`` for the rest pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .records import read_text, split_records

_SLERP_MIN_ANGLE = 1e-6
_POSE_FIELDS = ("qx", "qy", "qz", "qw", "tx", "ty", "tz", "sx", "sy", "sz")


def slerp(q0, q1, t: float) -> np.ndarray:
    """Shortest-arc spherical interpolation between unit quaternions.

    The second input is negated when the pair straddles the double cover, and
    angles below 1e-6 rad fall back to normalized lerp.
    """
    a = np.asarray(q0, dtype=np.float64).reshape(4)
    b = np.asarray(q1, dtype=np.float64).reshape(4)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise NumericError("slerp endpoint has zero norm")
    a = a / na
    b = b / nb
    dot = float(a @ b)
    if dot < 0.0:
        b = -b
        dot = -dot
    dot = min(dot, 1.0)
    ang = float(np.arccos(dot))
    if ang < _SLERP_MIN_ANGLE:
        out = (1.0 - t) * a + t * b
        return out / np.linalg.norm(out)
    s = np.sin(ang)
    out = (np.sin((1.0 - t) * ang) / s) * a + (np.sin(t * ang) / s) * b
    return out / np.linalg.norm(out)


@dataclass(frozen=True)
class BonePose:
    """Per-bone rotations (B, 4), translations (B, 3) and scales (B, 3)."""

    rotations: np.ndarray
    translations: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotations, dtype=np.float64).reshape(-1, 4)
        t = np.asarray(self.translations, dtype=np.float64).reshape(-1, 3)
        s = np.asarray(self.scales, dtype=np.float64).reshape(-1, 3)
        if not (len(r) == len(t) == len(s)):
            raise DataError("bone pose arrays must agree on bone count")
        norms = np.linalg.norm(r, axis=1)
        if len(r) and norms.min() == 0.0:
            raise DataError("bone pose contains a zero-norm quaternion")
        r = r / norms[:, None]
        for arr in (r, t, s):
            arr.setflags(write=False)
        object.__setattr__(self, "rotations", r)
        object.__setattr__(self, "translations", t)
        object.__setattr__(self, "scales", s)

    @property
    def bone_count(self) -> int:
        return len(self.rotations)


@dataclass(frozen=True)
class BonePoseAssets:
    bones: tuple[str, ...]
    labels: tuple[str, ...]
    rest: BonePose
    viseme_poses: tuple[BonePose, ...]

    def __post_init__(self):
        if len(self.viseme_poses) != len(self.labels):
            raise DataError("one bone pose per viseme label required")
        b = len(self.bones)
        if self.rest.bone_count != b or any(p.bone_count != b for p in self.viseme_poses):
            raise DataError("bone counts differ between poses")
        object.__setattr__(self, "bones", tuple(self.bones))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "viseme_poses", tuple(self.viseme_poses))


def blend_bone_pose(assets: BonePoseAssets, weights) -> BonePose:
    """Blend viseme bone poses by the weight vector.

    Translation and scale are linear offsets from rest. Rotation is the
    normalized sign-aligned sum with rest weighted max(0, 1 - sum(w)); a
    near-zero sum falls back to the rest rotation.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(w) != len(assets.labels):
        raise DataError(
            f"weight vector has {len(w)} entries, assets have {len(assets.labels)} visemes"
        )
    rest = assets.rest
    t = rest.translations.copy()
    s = rest.scales.copy()
    for wi, pose in zip(w, assets.viseme_poses):
        t += wi * (pose.translations - rest.translations)
        s += wi * (pose.scales - rest.scales)
    w_rest = max(0.0, 1.0 - float(w.sum()))
    acc = w_rest * rest.rotations.copy()
    for wi, pose in zip(w, assets.viseme_poses):
        q = pose.rotations
        sign = np.where((q * rest.rotations).sum(axis=1) < 0.0, -1.0, 1.0)
        acc += wi * sign[:, None] * q
    norms = np.linalg.norm(acc, axis=1)
    out = np.empty_like(acc)
    for i in range(len(acc)):
        if norms[i] < 1e-8:
            out[i] = rest.rotations[i]
        else:
            out[i] = acc[i] / norms[i]
    return BonePose(rotations=out, translations=t, scales=s)


def parse_bone_assets(text: str, source: str = "<bones>") -> BonePoseAssets:
    rows: dict[str, dict[str, tuple]] = {}
    bones: list[str] = []
    labels: list[str] = []
    for line in split_records(text, source).body:
        cols = line.text.split(",")
        if cols[0] == "bone":  # header
            continue
        if len(cols) != 12:
            raise line.error(f"expected 12 columns, got {len(cols)}")
        bone, label = cols[0].strip(), cols[1].strip()
        nums = tuple(line.numbers(cols[2:], _POSE_FIELDS))
        if bone not in rows:
            rows[bone] = {}
            bones.append(bone)
        if label in rows[bone]:
            raise line.error(f"duplicate pose {label!r} for bone {bone!r}")
        rows[bone][label] = nums
        if label != "rest" and label not in labels:
            labels.append(label)
    if not bones:
        raise DataError(f"{source}: no bone poses")
    for bone in bones:
        missing = [lab for lab in ["rest"] + labels if lab not in rows[bone]]
        if missing:
            raise DataError(f"{source}: bone {bone!r} is missing poses {missing}")

    def build(label: str) -> BonePose:
        data = np.array([rows[b][label] for b in bones])
        return BonePose(rotations=data[:, 0:4], translations=data[:, 4:7], scales=data[:, 7:10])

    return BonePoseAssets(
        bones=tuple(bones),
        labels=tuple(labels),
        rest=build("rest"),
        viseme_poses=tuple(build(lab) for lab in labels),
    )


def read_bone_assets(path) -> BonePoseAssets:
    return parse_bone_assets(read_text(path, "bone assets"), source=str(path))


def serialize_blended_poses(assets: BonePoseAssets, curve) -> str:
    """Per-frame blended bone poses as CSV rows
    ``frame,bone,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz``."""
    try:
        cols = [curve.labels.index(lab) for lab in assets.labels]
    except ValueError:
        missing = [lab for lab in assets.labels if lab not in curve.labels]
        raise DataError(f"curve is missing viseme columns {missing}")
    lines = ["frame,bone," + ",".join(_POSE_FIELDS)]
    for j in range(curve.frame_count):
        pose = blend_bone_pose(assets, curve.weights[j, cols])
        for i, bone in enumerate(assets.bones):
            nums = np.concatenate([pose.rotations[i], pose.translations[i], pose.scales[i]])
            lines.append(f"{j},{bone}," + ",".join(f"{v:.6f}" for v in nums))
    return "\n".join(lines) + "\n"
