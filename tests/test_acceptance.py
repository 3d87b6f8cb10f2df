"""Acceptance suite: one test per release criterion.

Each criterion gets exactly one test function whose pass/fail line in the
pytest -v output is the record; tests also print the measured margins so a
failing run shows how far off it was. The quantitative criteria run on the
self-contained seeded benchmark scenes, so the whole suite needs no external
data. Module-scoped fixtures build each scene once and share it between
criteria.
"""

import dataclasses
import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from visemefit.bones import BonePose, BonePoseAssets, blend_bone_pose, slerp
from visemefit.camera import Pose, project
from visemefit.cli import main as cli_main
from visemefit.curves import Curve, parse_curve, read_curve, serialize_curve
from visemefit.evaluation import keypoint_error, total_variation
from visemefit.fitting import (
    FitConfig,
    fit_clip,
    parse_fit_config,
    read_poses,
    serialize_fit_config,
)
from visemefit.flow import read_flow_pair, write_flow_pair
from visemefit.guidance import guidance_sets
from visemefit.losses import FrameProblem
from visemefit.mesh import parse_obj, serialize_obj
from visemefit.observations import RawObservation, parse_landmarks
from visemefit.procedural import generate_procedural
from visemefit.rig import blend_vertices, load_rig_manifest
from visemefit.synthetic import build_scene
from visemefit.timeline import parse_alignment, read_alignment, read_viseme_map, serialize_timeline

from conftest import INTR, flow_targets, make_rig


# ---------------------------------------------------------------------------
# shared benchmark fixtures


def _run_fit(scene: Path, out: Path, config: Path) -> float:
    t0 = time.perf_counter()
    code = cli_main(
        [
            "fit",
            "--rig", str(scene / "rig" / "rig.txt"),
            "--align", str(scene / "align.tsv"),
            "--map", str(scene / "map.txt"),
            "--obs", str(scene / "obs"),
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    return time.perf_counter() - t0


@pytest.fixture(scope="module")
def seed7(tmp_path_factory):
    """100-frame noise-free benchmark, seed 7, fitted once at defaults."""
    root = tmp_path_factory.mktemp("seed7")
    scene = root / "scene"
    t0 = time.perf_counter()
    assert cli_main(["synth", "--seed", "7", "--out", str(scene)]) == 0
    synth_s = time.perf_counter() - t0
    fit_s = _run_fit(scene, root / "fit", scene / "config.txt")
    return {"scene": scene, "fit": root / "fit", "synth_s": synth_s, "fit_s": fit_s}


@pytest.fixture(scope="module")
def noisy7(tmp_path_factory):
    """Same benchmark with 1 px landmark noise, fitted with and without the
    temporal-difference term."""
    root = tmp_path_factory.mktemp("noisy7")
    scene = root / "scene"
    assert cli_main(["synth", "--seed", "7", "--noise", "1.0", "--out", str(scene)]) == 0
    cfg = parse_fit_config((scene / "config.txt").read_text(encoding="utf-8"))
    cfg_raw = root / "config_w6_zero.txt"
    cfg_raw.write_text(
        serialize_fit_config(dataclasses.replace(cfg, w6=0.0)), encoding="utf-8"
    )
    _run_fit(scene, root / "fit_smooth", scene / "config.txt")
    _run_fit(scene, root / "fit_raw", cfg_raw)
    return {"scene": scene, "smooth": root / "fit_smooth", "raw": root / "fit_raw"}


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences

_TERM_INDEX = {
    "landmark": 0,
    "photometric": 1,
    "suppress": 2,
    "activate": 3,
    "flow": 4,
    "temporal": 5,
    "range": 6,
}
_TERM_SCALE = {"suppress": 800.0, "activate": 150.0, "temporal": 300.0, "range": 100.0}


def _term_cfg(term: str) -> FitConfig:
    if term == "total":
        return FitConfig(focal=INTR[0], cx=INTR[1], cy=INTR[2])
    w = [0.0] * 7
    w[_TERM_INDEX[term]] = _TERM_SCALE.get(term, 1.0)
    return FitConfig(
        w1=w[0], w2=w[1], w3=w[2], w4=w[3], w5=w[4], w6=w[5], w7=w[6],
        focal=INTR[0], cx=INTR[1], cy=INTR[2],
    )


# Short focal length for the probe instances: it caps the projection
# Jacobian so the h=1e-4 central difference stays inside its own accuracy
# budget; the analytic code paths are identical at any focal length.
_FD_INTR = (40.0, 32.0, 32.0)


def _fd_pose(rng) -> Pose:
    q = np.array([0.0, 0.0, 0.0, 1.0]) + rng.normal(0.0, 0.03, 4)
    return Pose(
        rotation=q / np.linalg.norm(q),
        translation=rng.normal(0.0, 0.03, 3),
        intrinsics=_FD_INTR,
    )


def _smooth_image(rng) -> np.ndarray:
    # band-limited test image: a random pixel field has O(1) second
    # differences, which puts the finite-difference truncation error of the
    # bilinear sampler far above the 1e-4 bar even with a perfect gradient
    yy, xx = np.meshgrid(np.arange(64) / 64.0, np.arange(64) / 64.0, indexing="ij")
    img = np.empty((64, 64, 3))
    for c in range(3):
        fx, fy = rng.uniform(0.5, 2.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        img[:, :, c] = 0.5 + 0.25 * np.sin(2.0 * np.pi * (fx * xx + fy * yy) + phase)
    return img


def _fd_instance(rng, term, cfg):
    """Random weights and pose plus a FrameProblem holding the observation
    pieces the term reads.

    Instances are redrawn when a projected vertex sits within 0.05 px of a
    pixel-cell boundary (the sampled image is only piecewise smooth there) or
    a weight sits on the [0, 1] kinks of the range penalty; the finite-
    difference probe must stay inside one smooth piece.
    """
    from visemefit.guidance import GuidanceSets

    needs_cells = term in ("photometric", "total")
    while True:
        rig = make_rig(rng, n_verts=8, n_visemes=4)
        pose = _fd_pose(rng)
        if term == "range":
            w = rng.uniform(-0.5, 1.5, 4)
            if min(np.abs(w).min(), np.abs(w - 1.0).min()) < 1e-3:
                continue
        else:
            w = rng.uniform(0.05, 0.95, 4)
        proj = project(blend_vertices(rig, w), pose)
        if needs_cells:
            frac = np.abs(proj - np.round(proj))
            if frac.min() < 0.05:
                continue
            if proj.min() < 1.0 or proj.max() > 62.0:
                continue
        break

    want = (
        {term}
        if term != "total"
        else {"landmark", "photometric", "suppress", "activate", "flow", "temporal", "range"}
    )
    kwargs = dict(
        landmark_ids=np.zeros(0, dtype=np.int64),
        landmark_points=np.zeros((0, 2)),
        landmark_betas=np.zeros(0),
    )
    if "landmark" in want:
        kwargs.update(
            landmark_ids=np.arange(8),
            landmark_points=proj + rng.normal(0.0, 2.0, (8, 2)),
            landmark_betas=rng.uniform(0.5, 5.0, 8),
        )
    if "photometric" in want:
        kwargs["image"] = _smooth_image(rng)
    targets = None
    if "flow" in want:
        prev_w = rng.uniform(0.05, 0.95, 4)
        prev_pose = _fd_pose(rng)
        vidx = np.array([0, 3, 6])
        targets = flow_targets(rig, vidx, rng.normal(0.0, 1.5, (3, 2)), prev_w, prev_pose)
    obs = RawObservation(**kwargs)
    guidance = None
    if "suppress" in want or "activate" in want:
        guidance = GuidanceSets(suppress=frozenset({1, 3}), activate=frozenset({0}))
    neighbor = rng.uniform(0.0, 1.0, 4) if "temporal" in want else None
    problem = FrameProblem(
        rig, cfg.loss_weights, guidance, pose.intrinsics, obs,
        flow_targets=targets, neighbor_weights=neighbor,
    )
    return problem, w, pose


def test_criterion_1_gradient_oracle():
    rng = np.random.default_rng(90210)
    h = 1e-4
    started = time.perf_counter()
    worst = 0.0
    for term in (*_TERM_INDEX, "total"):
        cfg = _term_cfg(term)
        for _ in range(20):
            problem, base_w, pose = _fd_instance(rng, term, cfg)
            base_q = pose.rotation
            base_t = pose.translation
            _, gw, gq, gt = problem.evaluate(base_w, base_q, base_t)
            analytic = np.concatenate([gw, gq, gt])

            def value(dw, dq, dt):
                val, _, _, _ = problem.evaluate(base_w + dw, base_q + dq, base_t + dt)
                return val

            fd = np.zeros(11)
            for i in range(11):
                dw = np.zeros(4)
                dq = np.zeros(4)
                dt = np.zeros(3)
                if i < 4:
                    dw[i] = h
                elif i < 8:
                    dq[i - 4] = h
                else:
                    dt[i - 8] = h
                fd[i] = (value(dw, dq, dt) - value(-dw, -dq, -dt)) / (2.0 * h)
            rel = np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    print(f"criterion 1: max relative gradient error {worst:.3e} (< 1e-4) in {elapsed:.1f}s (< 10s)")
    assert worst < 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: recovery of the seeded ground truth at default settings


def test_criterion_2_synthetic_recovery(seed7):
    gt = read_curve(seed7["scene"] / "gt.csv")
    fitted = read_curve(seed7["fit"] / "curve.csv")
    assert gt.frame_count == 100 and fitted.frame_count == 100
    per_frame_mae = np.abs(fitted.weights - gt.weights).mean(axis=1)
    runtime = seed7["synth_s"] + seed7["fit_s"]
    print(
        f"criterion 2: worst per-frame MAE {per_frame_mae.max():.5f} (< 0.05), "
        f"weights in [{fitted.weights.min():.6f}, {fitted.weights.max():.6f}], "
        f"synth+fit {runtime:.1f}s (< 120s)"
    )
    assert per_frame_mae.max() < 0.05
    assert fitted.weights.min() >= 0.0
    assert fitted.weights.max() <= 1.0
    assert runtime < 120.0


# ---------------------------------------------------------------------------
# criterion 3: guidance picks the labeled viseme when shapes are ambiguous


def test_criterion_3_guidance_disambiguation():
    # MBP and SSS have identical deltas, so no observation separates them;
    # only the phoneme-driven activate/suppress sets break the tie. With
    # w3 = w4 = 0 the objective is symmetric in the two columns and the
    # outcome depends on seeding alone, so that case is documented here
    # rather than asserted.
    wins = 0
    for seed in range(10):
        scene = build_scene(seed=seed, ambiguous=True)
        obs = [scene.landmarks[j] for j in range(scene.frame_count)]
        result = fit_clip(
            scene.rig, scene.timeline, obs, scene.config, scene.vmap, fps=scene.fps
        )
        proc = generate_procedural(scene.timeline, scene.fps, scene.vmap)
        i_mbp = scene.rig.label_index("MBP")
        i_sss = scene.rig.label_index("SSS")
        apex = int(np.argmax(proc.weights[:, i_mbp]))
        if result.curve.weights[apex, i_mbp] > result.curve.weights[apex, i_sss]:
            wins += 1
    print(f"criterion 3: labeled viseme wins at apex in {wins}/10 seeded runs (need 10)")
    assert wins == 10


# ---------------------------------------------------------------------------
# criterion 4: fitting beats the procedural curve on keypoint error


def test_criterion_4_fit_beats_procedural(seed7):
    scene_dir = seed7["scene"]
    rig = load_rig_manifest(scene_dir / "rig" / "rig.txt")
    obs = parse_landmarks(
        (scene_dir / "obs" / "landmarks.csv").read_text(encoding="utf-8")
    )
    fitted_curve = read_curve(seed7["fit"] / "curve.csv")
    fitted_poses = read_poses(seed7["fit"] / "poses.csv")
    fitted = keypoint_error(rig, fitted_curve, fitted_poses, obs).values.mean()

    vmap = read_viseme_map(scene_dir / "map.txt", rig.viseme_labels)
    timeline = read_alignment(scene_dir / "align.tsv")
    proc = generate_procedural(timeline, 30.0, vmap)
    # score the procedural baseline under both available pose tracks and
    # compare against the better one
    scene = build_scene(seed=7)
    base_gt_pose = keypoint_error(rig, proc, scene.poses, obs).values.mean()
    base_fit_pose = keypoint_error(rig, proc, fitted_poses, obs).values.mean()
    baseline = min(base_gt_pose, base_fit_pose)
    print(
        f"criterion 4: fitted keypoint error {fitted:.3f}px vs procedural "
        f"{baseline:.3f}px, ratio {fitted / baseline:.3f} (<= 0.5)"
    )
    assert fitted <= 0.5 * baseline


# ---------------------------------------------------------------------------
# criterion 5: the temporal term does not add wiggle under noise


def test_criterion_5_temporal_term_reduces_variation(noisy7):
    tv_smooth = sum(total_variation(read_curve(noisy7["smooth"] / "curve.csv")).values())
    tv_raw = sum(total_variation(read_curve(noisy7["raw"] / "curve.csv")).values())
    print(
        f"criterion 5: total variation {tv_smooth:.4f} with temporal term vs "
        f"{tv_raw:.4f} without (must not exceed)"
    )
    assert tv_smooth <= tv_raw


# ---------------------------------------------------------------------------
# criterion 6: guidance sets equal a brute-force reference


def _brute_sets(weights, frame, m, n, radius, eps):
    frames, v = weights.shape

    def topk(row, k):
        order = sorted(range(v), key=lambda i: (-row[i], i))
        out = []
        for i in order:
            if row[i] >= eps:
                out.append(i)
            if len(out) == k:
                break
        return out

    act = frozenset(topk(weights[frame], n))
    scheduled = set()
    for j in range(max(0, frame - radius), min(frames - 1, frame + radius) + 1):
        scheduled |= set(topk(weights[j], m))
    return frozenset(range(v)) - scheduled, act


def test_criterion_6_guidance_brute_force():
    rng = np.random.default_rng(777)
    mismatches = 0
    checked = 0
    for c in range(1000):
        frames = int(rng.integers(1, 13))
        w = rng.uniform(0.0, 1.0, (frames, 16))
        if c % 2:
            w = np.round(w, 1)  # heavy ties
        w[w < 0.12] = 0.0  # silent stretches
        for radius in (0, 1, 2):
            for frame in range(frames):
                got = guidance_sets(w, frame, m=3, n=2, radius=radius, eps_act=0.01)
                sup, act = _brute_sets(w, frame, 3, 2, radius, 0.01)
                checked += 1
                if got.suppress != sup or got.activate != act:
                    mismatches += 1
    print(f"criterion 6: {mismatches} mismatches across {checked} frame checks on 1000 curves")
    assert mismatches == 0


# ---------------------------------------------------------------------------
# criterion 7: quaternion interpolation and bone-pose blending


def test_criterion_7_rotation_blend_suite():
    rng = np.random.default_rng(4242)
    n_pairs = 10_000
    raw = rng.normal(size=(n_pairs, 2, 4))
    ts = rng.uniform(0.05, 0.95, n_pairs)
    worst_norm = 0.0
    worst_end = 0.0
    worst_cover = 0.0
    zeros3 = np.zeros((1, 3))
    ones3 = np.ones((1, 3))
    for k in range(n_pairs):
        q0 = raw[k, 0] / np.linalg.norm(raw[k, 0])
        q1 = raw[k, 1] / np.linalg.norm(raw[k, 1])
        t = float(ts[k])

        mid = slerp(q0, q1, t)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(mid)) - 1.0))
        for end, q in ((slerp(q0, q1, 0.0), q0), (slerp(q0, q1, 1.0), q1)):
            worst_end = max(
                worst_end,
                min(float(np.linalg.norm(end - q)), float(np.linalg.norm(end + q))),
            )
        alt = slerp(q0, -q1, t)
        worst_cover = max(
            worst_cover,
            min(float(np.linalg.norm(mid - alt)), float(np.linalg.norm(mid + alt))),
        )

        # the multi-pose blend in nlerp form on the same pair: rest = q0,
        # one viseme pose q1 at weight t
        rest = BonePose(rotations=q0[None], translations=zeros3, scales=ones3)
        pose = BonePose(rotations=q1[None], translations=zeros3, scales=ones3)
        assets = BonePoseAssets(bones=("b",), labels=("X",), rest=rest, viseme_poses=(pose,))
        nl = blend_bone_pose(assets, [t]).rotations[0]
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(nl)) - 1.0))
        nl0 = blend_bone_pose(assets, [0.0]).rotations[0]
        nl1 = blend_bone_pose(assets, [1.0]).rotations[0]
        worst_end = max(
            worst_end,
            min(float(np.linalg.norm(nl0 - q0)), float(np.linalg.norm(nl0 + q0))),
            min(float(np.linalg.norm(nl1 - q1)), float(np.linalg.norm(nl1 + q1))),
        )
        flipped = BonePoseAssets(
            bones=("b",),
            labels=("X",),
            rest=rest,
            viseme_poses=(
                BonePose(rotations=-q1[None], translations=zeros3, scales=ones3),
            ),
        )
        nl_alt = blend_bone_pose(flipped, [t]).rotations[0]
        worst_cover = max(
            worst_cover,
            min(float(np.linalg.norm(nl - nl_alt)), float(np.linalg.norm(nl + nl_alt))),
        )

    # one-hot blending reproduces stored viseme poses
    worst_onehot = 0.0
    for _ in range(5):
        nb, nv = 3, 4
        quats = rng.normal(size=(nv + 1, nb, 4))
        quats /= np.linalg.norm(quats, axis=2, keepdims=True)
        trans = rng.normal(0.0, 0.3, (nv + 1, nb, 3))
        scales = rng.uniform(0.5, 1.5, (nv + 1, nb, 3))
        rest = BonePose(rotations=quats[0], translations=trans[0], scales=scales[0])
        poses = tuple(
            BonePose(rotations=quats[i + 1], translations=trans[i + 1], scales=scales[i + 1])
            for i in range(nv)
        )
        assets = BonePoseAssets(
            bones=tuple(f"b{i}" for i in range(nb)),
            labels=tuple(f"V{i}" for i in range(nv)),
            rest=rest,
            viseme_poses=poses,
        )
        for i, pose in enumerate(poses):
            w = np.zeros(nv)
            w[i] = 1.0
            out = blend_bone_pose(assets, w)
            for b in range(nb):
                worst_onehot = max(
                    worst_onehot,
                    min(
                        float(np.linalg.norm(out.rotations[b] - pose.rotations[b])),
                        float(np.linalg.norm(out.rotations[b] + pose.rotations[b])),
                    ),
                    float(np.abs(out.translations[b] - pose.translations[b]).max()),
                    float(np.abs(out.scales[b] - pose.scales[b]).max()),
                )
    print(
        f"criterion 7: over {n_pairs} pairs worst norm dev {worst_norm:.2e} (< 1e-9), "
        f"endpoint dev {worst_end:.2e}, double-cover dev {worst_cover:.2e}; "
        f"one-hot blend dev {worst_onehot:.2e}"
    )
    assert worst_norm < 1e-9
    assert worst_end < 1e-9
    assert worst_cover < 1e-9
    assert worst_onehot < 1e-12


# ---------------------------------------------------------------------------
# criterion 8: format round-trips and byte-identical CLI reruns


def _tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = Path(dirpath) / name
            h = hashlib.sha256()
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[str(p.relative_to(root))] = h.hexdigest()
    return out


def test_criterion_8_roundtrips_and_determinism(tmp_path, rng):
    # curve CSV: fixed-point storage, stable after one quantization
    curve = Curve(fps=30.0, labels=("MBP", "SSS", "WWW"), weights=rng.uniform(0, 1, (5, 3)))
    text = serialize_curve(curve)
    back = parse_curve(text)
    assert np.abs(back.weights - curve.weights).max() <= 5e-7
    assert serialize_curve(back) == text

    # alignment TSV: repr floats, exact identity
    timeline = parse_alignment("m\t0.0\t0.125\nsil\t0.125\t0.3000000000000001\n")
    assert parse_alignment(serialize_timeline(timeline)) == timeline

    # OBJ subset: repr floats, exact identity
    mesh = make_rig(rng).neutral
    back_mesh = parse_obj(serialize_obj(mesh))
    np.testing.assert_array_equal(back_mesh.vertices, mesh.vertices)
    np.testing.assert_array_equal(back_mesh.triangles, mesh.triangles)
    np.testing.assert_array_equal(back_mesh.colors, mesh.colors)
    assert serialize_obj(back_mesh) == serialize_obj(mesh)

    # flow binary: float32 storage, exact after one cast
    fwd = rng.normal(0, 3, (5, 7, 2))
    bwd = rng.normal(0, 3, (5, 7, 2))
    write_flow_pair(fwd, bwd, tmp_path / "f.flo")
    f2, b2 = read_flow_pair(tmp_path / "f.flo")
    np.testing.assert_array_equal(f2, fwd.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(b2, bwd.astype(np.float32).astype(np.float64))

    # two identical CLI pipeline runs produce byte-identical trees
    digests = []
    for run in ("run1", "run2"):
        base = tmp_path / run
        scene = base / "scene"
        assert cli_main(["synth", "--seed", "11", "--frames", "6", "--out", str(scene)]) == 0
        assert cli_main(
            [
                "gen-proc",
                "--align", str(scene / "align.tsv"),
                "--map", str(scene / "map.txt"),
                "--rig", str(scene / "rig" / "rig.txt"),
                "--out", str(base / "proc.csv"),
            ]
        ) == 0
        _run_fit(scene, base / "fit", scene / "config.txt")
        assert cli_main(
            [
                "eval",
                "--metric", "keypoint",
                "--curve", str(base / "fit" / "curve.csv"),
                "--rig", str(scene / "rig" / "rig.txt"),
                "--obs", str(scene / "obs"),
                "--poses", str(base / "fit" / "poses.csv"),
                "--out", str(base / "metrics"),
            ]
        ) == 0
        digests.append(_tree_digest(base))
    assert digests[0].keys() == digests[1].keys()
    diffs = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    print(
        f"criterion 8: round-trips exact; {len(digests[0])} files per CLI run, "
        f"{len(diffs)} byte-level differences (need 0)"
    )
    assert diffs == []
