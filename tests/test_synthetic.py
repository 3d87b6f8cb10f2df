import os

import numpy as np
import pytest

from visemefit.camera import project
from visemefit.curves import parse_curve, serialize_curve
from visemefit.errors import DataError
from visemefit.flow import flow_cells, write_flow_pair
from visemefit.images import quantize, write_ppm
from visemefit.observations import frame_flow_name, frame_image_name, serialize_landmarks
from visemefit.rig import blend_vertices, load_rig_manifest
from visemefit.synthetic import (
    FLOW_SPLAT,
    FRAME_SPLAT,
    IMAGE_SIZE,
    MOUTH_LANDMARK_IDS,
    SILENCE_TOKENS,
    _splat,
    build_scene,
    write_scene,
)
from visemefit.timeline import read_alignment, read_viseme_map

from splat_oracle import splat as dense_splat


def test_build_scene_is_deterministic():
    a = build_scene(seed=11, n_frames=12)
    b = build_scene(seed=11, n_frames=12)
    assert serialize_curve(a.gt_curve) == serialize_curve(b.gt_curve)
    assert serialize_landmarks(a.landmarks) == serialize_landmarks(b.landmarks)
    np.testing.assert_array_equal(a.rig.neutral.vertices, b.rig.neutral.vertices)
    np.testing.assert_array_equal(a.rig.deltas, b.rig.deltas)
    c = build_scene(seed=12, n_frames=12)
    assert serialize_curve(a.gt_curve) != serialize_curve(c.gt_curve)


def test_ground_truth_shape_and_range():
    scene = build_scene(seed=3, n_frames=12)
    gt = scene.gt_curve
    assert gt.frame_count == 12 and scene.frame_count == 12
    assert len(gt.labels) == 16
    assert gt.labels[:3] == ("MBP", "SSS", "WWW")
    assert gt.weights.min() >= 0.0 and gt.weights.max() <= 1.0
    # some articulation actually happens
    assert gt.weights.max() > 0.3


def test_landmarks_match_projected_ground_truth():
    scene = build_scene(seed=4, n_frames=10)
    for j, obs in scene.landmarks.items():
        shaped = blend_vertices(scene.rig, scene.gt_curve.weights[j])
        proj = project(shaped[obs.landmark_ids], scene.poses[j])
        np.testing.assert_array_equal(obs.landmark_points, proj)


def test_landmark_noise_perturbs_points():
    clean = build_scene(seed=4, n_frames=6)
    noisy = build_scene(seed=4, n_frames=6, landmark_noise=1.0)
    d = noisy.landmarks[0].landmark_points - clean.landmarks[0].landmark_points
    assert np.abs(d).max() > 0.1
    # noise is zero-mean pixels, not a systematic shift
    assert np.abs(d).max() < 6.0


def test_mouth_landmarks_carry_heavier_beta():
    scene = build_scene(seed=5, n_frames=4)
    obs = scene.landmarks[0]
    for lid, beta in zip(obs.landmark_ids, obs.landmark_betas):
        expect = 5.0 if int(lid) in MOUTH_LANDMARK_IDS else 1.0
        assert beta == expect


def test_ambiguous_scene_makes_two_visemes_identical():
    scene = build_scene(seed=9, ambiguous=True)
    i_mbp = scene.rig.label_index("MBP")
    i_sss = scene.rig.label_index("SSS")
    np.testing.assert_array_equal(scene.rig.deltas[i_mbp], scene.rig.deltas[i_sss])
    assert scene.write_rasters is False
    tokens = {s.phoneme for s in scene.timeline.segments} - set(SILENCE_TOKENS)
    assert tokens == {"m"}


def test_projections_are_the_projected_ground_truth():
    scene = build_scene(seed=4, n_frames=5)
    assert scene.projections.shape == (5, 64, 2)
    for j in range(scene.frame_count):
        shaped = blend_vertices(scene.rig, scene.gt_curve.weights[j])
        np.testing.assert_array_equal(scene.projections[j], project(shaped, scene.poses[j]))


def test_zero_frame_scene_builds_and_writes(tmp_path):
    scene = build_scene(seed=4, n_frames=0)
    assert scene.projections.shape == (0, 64, 2)
    paths = write_scene(scene, tmp_path)
    assert parse_curve((tmp_path / "gt.csv").read_text(encoding="utf-8")).frame_count == 0
    assert os.listdir(paths["obs"]) == ["landmarks.csv"]


def test_build_scene_rejects_negative_frames():
    with pytest.raises(DataError):
        build_scene(seed=1, n_frames=-1)


def test_write_scene_inventory(tmp_path):
    scene = build_scene(seed=2, n_frames=2)
    paths = write_scene(scene, tmp_path)
    for key in ("rig", "align", "map", "config", "gt"):
        assert os.path.exists(paths[key]), key
    rig = load_rig_manifest(paths["rig"])
    assert rig.viseme_labels == scene.rig.viseme_labels
    np.testing.assert_allclose(rig.neutral.vertices, scene.rig.neutral.vertices, atol=5e-7)
    timeline = read_alignment(paths["align"])
    assert timeline.segments == scene.timeline.segments
    assert read_viseme_map(paths["map"], rig.viseme_labels) == scene.vmap
    gt = parse_curve((tmp_path / "gt.csv").read_text(encoding="utf-8"))
    assert gt.frame_count == 2
    obs = paths["obs"]
    assert os.path.exists(os.path.join(obs, "landmarks.csv"))
    assert os.path.exists(os.path.join(obs, "000000.ppm"))
    assert os.path.exists(os.path.join(obs, "000001.ppm"))
    assert os.path.exists(os.path.join(obs, "000001.flo"))
    # the flow pair ending at frame 0 has no predecessor
    assert not os.path.exists(os.path.join(obs, "000000.flo"))


def _tree(root):
    files = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_write_scene_outputs_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        write_scene(build_scene(seed=21, n_frames=6), out)
    tree = _tree(out_a)
    assert sum(name.endswith((".ppm", ".flo")) for name in tree) == 6 + 5
    assert tree == _tree(out_b)


SIZE = 40


def _point_sets():
    """Seeded point sets on a SIZE x SIZE grid; windows are 10 or 12 px."""
    rng = np.random.default_rng(1207)
    far = [[-13.5, 20.0], [SIZE + 12.5, 3.0], [7.0, -14.0], [30.0, SIZE + 13.0], [-40.0, -40.0]]
    return {
        "overlapping": SIZE / 2 + rng.uniform(-5.0, 5.0, (12, 2)),
        # a strip along each border, reaching up to a window past it
        "borders": np.concatenate(
            [
                np.column_stack([rng.uniform(-11.0, 2.0, 3), rng.uniform(0, SIZE, 3)]),
                np.column_stack([rng.uniform(SIZE - 3.0, SIZE + 10.0, 3), rng.uniform(0, SIZE, 3)]),
                np.column_stack([rng.uniform(0, SIZE, 3), rng.uniform(-11.0, 2.0, 3)]),
                np.column_stack([rng.uniform(0, SIZE, 3), rng.uniform(SIZE - 3.0, SIZE + 10.0, 3)]),
                [[-10.0, 5.0], [SIZE + 9.0, SIZE + 9.0]],  # windows one pixel wide or tall
            ]
        ),
        "outside": np.array(far + [[12.25, 17.75]] + far[::-1]),
        "only-outside": np.array(far),
        "empty": np.zeros((0, 2)),
        "integer-and-half": np.concatenate(
            [rng.integers(0, SIZE, (6, 2)), rng.integers(0, SIZE, (6, 2)) + 0.5, [[0.5, SIZE - 1.0]]]
        ).astype(np.float64),
    }


POINT_SETS = _point_sets()


@pytest.mark.parametrize("name", list(POINT_SETS))
def test_splat_writes_the_dense_oracles_bytes(name, tmp_path):
    """Frames and flow splatted on the covered pixels only are byte-identical
    files to those of the dense splat, with the scene's parameter sets."""
    points = POINT_SETS[name]
    rng = np.random.default_rng(len(points))
    colors = rng.uniform(-0.1, 1.1, (len(points), 3))  # includes values the bytes clip
    disp = rng.normal(0.0, 3.0, (len(points), 2))
    new, old = tmp_path / "new", tmp_path / "old"
    write_ppm(_splat(points, colors, SIZE, encode=quantize, **FRAME_SPLAT), new)
    write_ppm(dense_splat(points, colors, SIZE, **FRAME_SPLAT), old)
    assert new.read_bytes() == old.read_bytes()
    pairs = ((points, disp), (points + disp, -disp))
    write_flow_pair(*(_splat(at, d, SIZE, encode=flow_cells, **FLOW_SPLAT) for at, d in pairs), new)
    write_flow_pair(*(dense_splat(at, d, SIZE, **FLOW_SPLAT) for at, d in pairs), old)
    assert new.read_bytes() == old.read_bytes()
    # the float64 values before encoding agree bit for bit too
    for params, vals in ((FRAME_SPLAT, colors), (FLOW_SPLAT, disp)):
        dense = dense_splat(points, vals, SIZE, **params)
        np.testing.assert_array_equal(_splat(points, vals, SIZE, encode=np.asarray, **params), dense)
    if name in ("only-outside", "empty"):  # every pixel is background
        frame = _splat(points, colors, SIZE, encode=quantize, **FRAME_SPLAT)
        assert (frame == quantize(FRAME_SPLAT["bg_value"])).all()
        assert (_splat(points, disp, SIZE, encode=flow_cells, **FLOW_SPLAT) == 0.0).all()


def test_write_scene_rasters_match_the_dense_oracle(tmp_path):
    scene = build_scene(seed=5, n_frames=3)
    write_scene(scene, tmp_path)
    obs = tmp_path / "obs"
    colors = scene.rig.neutral.colors
    prev = None
    for j in range(scene.frame_count):
        proj = project(blend_vertices(scene.rig, scene.gt_curve.weights[j]), scene.poses[j])
        write_ppm(dense_splat(proj, colors, IMAGE_SIZE, **FRAME_SPLAT), tmp_path / "f.ppm")
        assert (tmp_path / "f.ppm").read_bytes() == (obs / frame_image_name(j)).read_bytes(), j
        if prev is not None:
            disp = proj - prev
            fwd = dense_splat(prev, disp, IMAGE_SIZE, **FLOW_SPLAT)
            bwd = dense_splat(proj, -disp, IMAGE_SIZE, **FLOW_SPLAT)
            write_flow_pair(fwd, bwd, tmp_path / "f.flo")
            assert (tmp_path / "f.flo").read_bytes() == (obs / frame_flow_name(j)).read_bytes(), j
        prev = proj
