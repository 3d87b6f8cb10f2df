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

from .camera import check_quat_norm, quat_normalize
from .errors import DataError, located
from .frozen import frozen_array
from .records import read_text, split_records

_SLERP_MIN_ANGLE = 1e-6
_POSE_FIELDS = ("qx", "qy", "qz", "qw", "tx", "ty", "tz", "sx", "sy", "sz")


def slerp(q0, q1, t: float) -> np.ndarray:
    """Shortest-arc spherical interpolation between unit quaternions.

    The second input is negated when the pair straddles the double cover, and
    angles below 1e-6 rad fall back to normalized lerp.
    """
    a, b = quat_normalize(q0), quat_normalize(q1)
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


def _unit_rows(r: np.ndarray) -> np.ndarray:
    """r over its norms along the last axis; r itself when all are exactly 1.0,
    since dividing by 1.0 changes no bit."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(r, axis=-1)
    check_quat_norm(norms, DataError)
    return r if (norms == 1.0).all() else r / norms[..., None]


@dataclass(frozen=True)
class BonePose:
    """Per-bone rotations (B, 4), translations (B, 3) and scales (B, 3).

    Rotations are stored normalized; each array is owned as frozen_array says.
    """

    rotations: np.ndarray
    translations: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        r = frozen_array(self.rotations, np.float64, (-1, 4))
        t = frozen_array(self.translations, np.float64, (-1, 3))
        s = frozen_array(self.scales, np.float64, (-1, 3))
        if not (len(r) == len(t) == len(s)):
            raise DataError("bone pose arrays must agree on bone count")
        object.__setattr__(self, "rotations", frozen_array(_unit_rows(r), np.float64))
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


def _blend(assets: BonePoseAssets, w: np.ndarray, first_frame: int | None = None):
    """Blend the viseme poses for every row of w (frames, visemes).

    Returns rotations (frames, B, 4), normalized once, and translations and
    scales (frames, B, 3). Each row goes through the same element operations
    in the same order, so a row blends alone exactly as it does in a batch.
    A row with a non-finite result raises DataError, named as frame
    first_frame + row when first_frame is given.
    """
    rest = assets.rest
    frames = len(w)
    # silenced: a zero rotation sum divides by zero before np.where picks
    # the rest rotation, and rows after a bad one must print nothing; the
    # check below reports the first bad row
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = np.repeat(rest.translations[None], frames, axis=0)
        s = np.repeat(rest.scales[None], frames, axis=0)
        w_rest = np.maximum(0.0, 1.0 - w.sum(axis=1))
        acc = w_rest[:, None, None] * rest.rotations
        for k, pose in enumerate(assets.viseme_poses):
            wk = w[:, k, None, None]
            t += wk * (pose.translations - rest.translations)
            s += wk * (pose.scales - rest.scales)
            q = pose.rotations
            sign = np.where((q * rest.rotations).sum(axis=1) < 0.0, -1.0, 1.0)
            acc += wk * sign[:, None] * q
        norms = np.linalg.norm(acc, axis=2)[..., None]
        rot = np.where(norms < 1e-8, rest.rotations, acc / norms)
    rot_ok = np.isfinite(norms).all(axis=(1, 2))
    bad = np.flatnonzero(~(rot_ok & np.isfinite(t).all(axis=(1, 2)) & np.isfinite(s).all(axis=(1, 2))))
    if bad.size:
        row = int(bad[0])
        with located(None if first_frame is None else f"frame {first_frame + row}"):
            if not rot_ok[row]:
                raise DataError("blended rotation overflows: weights out of range")
            raise DataError("blended translation or scale overflows: weights or poses out of range")
    return rot, t, s


def blend_bone_pose(assets: BonePoseAssets, weights) -> BonePose:
    """Blend viseme bone poses by the weight vector.

    Translation and scale are linear offsets from rest. Rotation is the
    normalized sign-aligned sum with rest weighted max(0, 1 - sum(w)); a
    near-zero sum falls back to the rest rotation.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(1, -1)
    if w.shape[1] != len(assets.labels):
        raise DataError(
            f"weight vector has {w.shape[1]} entries, assets have {len(assets.labels)} visemes"
        )
    rot, t, s = _blend(assets, w)
    return BonePose(rotations=rot[0], translations=t[0], scales=s[0])


def parse_bone_assets(text: str, source: str = "<bones>") -> BonePoseAssets:
    rows: dict[str, dict[str, tuple]] = {}
    bones: list[str] = []
    labels: list[str] = []
    for line in split_records(text, source).rows("bone"):
        cols = line.text.split(",")
        if len(cols) != 12:
            raise line.error(f"expected 12 columns, got {len(cols)}")
        bone, label = cols[0].strip(), cols[1].strip()
        nums = tuple(line.numbers(cols[2:], _POSE_FIELDS))
        check_quat_norm(sum(v * v for v in nums[0:4]), line.error)
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


def serialize_blended_poses(assets: BonePoseAssets, curve, out) -> None:
    """Write per-frame blended bone poses to the text stream out as CSV rows
    ``frame,bone,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz``, the curve's columns bound
    to the assets' visemes by label. Each block of frames is written as soon
    as it is formatted, so the text never exists whole."""
    blocks = curve.blocks(assets.labels)
    fmt = ",".join(["%.6f"] * len(_POSE_FIELDS))
    out.write("frame,bone," + ",".join(_POSE_FIELDS) + "\n")
    for start, block in blocks:
        rot, t, s = _blend(assets, block.weights, first_frame=start)
        # the normalization BonePose applies to what blend_bone_pose returns
        rot = _unit_rows(rot)
        rows = np.concatenate([rot, t, s], axis=2).tolist()
        out.write("".join(
            f"{j},{bone},{fmt % tuple(nums)}\n"
            for j, frame in enumerate(rows, start)
            for bone, nums in zip(assets.bones, frame)
        ))
