"""Seeded input generation for the benchmark workloads.

Runs inside a child process (it imports numpy and visemefit); the driver in
``run.py`` only times it and reads the files it leaves behind. Every input is
derived from the workload seed, so the same seed writes the same bytes.
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from visemefit import synthetic
from visemefit.atomicio import write_text
from visemefit.camera import project
from visemefit.curves import write_curve
from visemefit.observations import RawObservation, serialize_landmarks
from visemefit.rig import blend_vertices
from visemefit.timeline import PhonemeSegment, Timeline, serialize_timeline

BONES = ("jaw", "tongue", "lip_upper", "lip_lower", "lip_corner_l", "lip_corner_r")


def clip_seeds(seed: int) -> tuple[int, int]:
    """The two clip seeds of ``clips_batch``, derived from the workload seed."""
    return 1000 * seed + 1, 1000 * seed + 2


def _write_without_rasters(scene, out: str) -> None:
    """Rig, phoneme map, fit config (camera of the scene) and landmarks of a
    scene, without its PPM frames and FLO flow."""
    scene.write_rasters = False
    synthetic.write_scene(scene, out)


def landmark_clips(seed: int, frames: int, out: str) -> None:
    """Two landmark-only clips that share one rig.

    The rig comes from the first clip seed; the second clip keeps its own
    timeline, ground truth and poses, and its landmarks are re-projected
    through the shared rig so one ``fit --obs <dir>`` call can fit both.
    Layout: ``rig/``, ``map.txt``, ``config.txt``, ``clips/<name>/`` holding
    only ``landmarks.csv`` and ``align.tsv``, and ``gt/<name>.csv``.
    """
    rig = None
    for name, clip_seed in zip(("a", "b"), clip_seeds(seed)):
        scene = synthetic.build_scene(seed=clip_seed, n_frames=frames)
        if rig is None:
            rig = scene.rig
            _write_without_rasters(scene, os.path.join(out, "shared"))
            for item in ("rig", "map.txt", "config.txt"):
                os.replace(os.path.join(out, "shared", item), os.path.join(out, item))
        landmarks = {}
        for j, pose in enumerate(scene.poses):
            obs = scene.landmarks[j]
            shaped = blend_vertices(rig, scene.gt_curve.weights[j])
            landmarks[j] = RawObservation(
                landmark_ids=obs.landmark_ids,
                landmark_points=project(shaped[obs.landmark_ids], pose),
                landmark_betas=obs.landmark_betas,
            )
        clip_dir = os.path.join(out, "clips", name)
        os.makedirs(clip_dir)
        os.makedirs(os.path.join(out, "gt"), exist_ok=True)
        write_text(os.path.join(clip_dir, "landmarks.csv"), serialize_landmarks(landmarks))
        write_text(os.path.join(clip_dir, "align.tsv"), serialize_timeline(scene.timeline))
        write_curve(scene.gt_curve, os.path.join(out, "gt", f"{name}.csv"))
    shutil.rmtree(os.path.join(out, "shared"))


def long_alignment(rng: np.random.Generator, seconds: float) -> Timeline:
    """Speech-like alignment: 50-250 ms phonemes with occasional pauses."""
    phones = [tok for tok, _ in synthetic.PHONE_TABLE]
    segs = []
    t = 0.0
    while t < seconds - 0.3:
        if rng.random() < 0.15:
            t += float(rng.uniform(0.1, 0.3))
        end = min(t + float(rng.uniform(0.05, 0.25)), seconds)
        segs.append(PhonemeSegment(phoneme=phones[int(rng.integers(len(phones)))], start=t, end=end))
        t = end
    return Timeline(segments=tuple(segs), duration=seconds)


def bone_assets_csv(rng: np.random.Generator, labels) -> str:
    """A rest pose plus one random pose per viseme for each bone in BONES."""
    lines = ["bone,pose_label,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz"]
    for bone in BONES:
        for label in ("rest",) + tuple(labels):
            spread = 0.0 if label == "rest" else 1.0
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            half = 0.5 * spread * float(rng.uniform(0.0, 0.6))
            q = np.concatenate([axis * math.sin(half), [math.cos(half)]])
            t = spread * rng.uniform(-0.02, 0.02, 3)
            s = 1.0 + spread * rng.uniform(-0.1, 0.1, 3)
            nums = ",".join(repr(float(v)) for v in np.concatenate([q, t, s]))
            lines.append(f"{bone},{label},{nums}")
    return "\n".join(lines) + "\n"


def assets_inputs(seed: int, seconds: int, out: str) -> None:
    """Rig and map of a seeded scene, a long alignment and bone assets."""
    scene = synthetic.build_scene(seed=seed, n_frames=2)
    _write_without_rasters(scene, out)
    rng = np.random.default_rng([seed, 1])
    write_text(os.path.join(out, "long_align.tsv"), serialize_timeline(long_alignment(rng, seconds)))
    write_text(os.path.join(out, "bones.csv"), bone_assets_csv(rng, scene.rig.viseme_labels))
