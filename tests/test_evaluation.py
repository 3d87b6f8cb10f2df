import dataclasses

import numpy as np
import pytest

from visemefit.camera import project
from visemefit.curves import Curve
from visemefit.errors import DataError
from visemefit.evaluation import (
    MetricSeries,
    keypoint_error,
    lip_distance_curves,
    serialize_metric,
    serialize_total_variation,
    total_variation,
)
from visemefit.mesh import Mesh
from visemefit.observations import RawObservation
from visemefit.rig import Rig, blend_vertices

from conftest import make_rig, random_pose


def _curve_and_obs(rng, rig, n=3, offset=(0.0, 0.0)):
    curve = Curve(
        fps=30.0,
        labels=rig.viseme_labels,
        weights=rng.uniform(0, 1, (n, rig.viseme_count)),
    )
    poses = [random_pose(rng, scale=0.02) for _ in range(n)]
    obs = {}
    for j in range(n):
        shaped = blend_vertices(rig, curve.weights[j])
        proj = project(shaped, poses[j])
        obs[j] = RawObservation(
            landmark_ids=np.arange(rig.neutral.vertex_count),
            landmark_points=proj + np.asarray(offset),
            landmark_betas=np.ones(rig.neutral.vertex_count),
        )
    return curve, poses, obs


def test_metric_series_rejects_non_finite():
    with pytest.raises(DataError):
        MetricSeries(name="x", fps=30.0, values=np.array([1.0, np.nan]))
    s = MetricSeries(name="x", fps=30.0, values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_keypoint_error_zero_on_exact_reproduction(rng):
    rig = make_rig(rng)
    curve, poses, obs = _curve_and_obs(rng, rig)
    series = keypoint_error(rig, curve, poses, obs)
    assert series.name == "keypoint_error"
    np.testing.assert_allclose(series.values, 0.0, atol=1e-9)


def test_keypoint_error_known_offset(rng):
    rig = make_rig(rng)
    # every landmark displaced by (3, 4): per-point distance is exactly 5
    curve, poses, obs = _curve_and_obs(rng, rig, offset=(3.0, 4.0))
    series = keypoint_error(rig, curve, poses, obs)
    np.testing.assert_allclose(series.values, 5.0, atol=1e-9)


def test_keypoint_error_subset_and_missing(rng):
    rig = make_rig(rng)
    curve, poses, obs = _curve_and_obs(rng, rig)
    # move only landmark 2 and measure just that id
    for j in obs:
        points = obs[j].landmark_points.copy()
        points[2] += [0.0, 7.0]
        obs[j] = dataclasses.replace(obs[j], landmark_points=points)
    series = keypoint_error(rig, curve, poses, obs, subset=[2])
    np.testing.assert_allclose(series.values, 7.0, atol=1e-9)
    # with the full set the mean dilutes by the landmark count
    full = keypoint_error(rig, curve, poses, obs)
    np.testing.assert_allclose(full.values, 7.0 / rig.neutral.vertex_count, atol=1e-9)
    # rows for an id missing from a frame are skipped
    trimmed = dict(obs)
    trimmed[0] = RawObservation(
        landmark_ids=obs[0].landmark_ids[:4],
        landmark_points=obs[0].landmark_points[:4],
        landmark_betas=obs[0].landmark_betas[:4],
    )
    out = keypoint_error(rig, curve, poses, trimmed)
    assert np.isfinite(out.values).all()
    # a frame with no usable landmarks is an error
    with pytest.raises(DataError):
        keypoint_error(rig, curve, poses, trimmed, subset=[6])


def test_keypoint_error_requires_enough_poses(rng):
    rig = make_rig(rng)
    curve, poses, obs = _curve_and_obs(rng, rig)
    with pytest.raises(DataError):
        keypoint_error(rig, curve, poses[:-1], obs)


def _lip_rig(rng):
    rig = make_rig(rng)
    return Rig(
        neutral=rig.neutral,
        visemes=rig.visemes,
        viseme_labels=rig.viseme_labels,
        landmark_bindings=rig.landmark_bindings,
        lip_pairs=((0, 1), (2, 3)),
    )


def test_lip_distance_curves(rng):
    rig = _lip_rig(rng)
    curve = Curve(
        fps=24.0,
        labels=rig.viseme_labels,
        weights=rng.uniform(0, 1, (2, rig.viseme_count)),
    )
    horiz, vert = lip_distance_curves(rig, curve)
    assert horiz.name == "lip_horizontal" and vert.name == "lip_vertical"
    assert horiz.fps == 24.0
    for j in range(2):
        shaped = blend_vertices(rig, curve.weights[j])
        assert abs(horiz.values[j] - abs(shaped[0, 0] - shaped[1, 0])) < 1e-12
        assert abs(vert.values[j] - abs(shaped[2, 1] - shaped[3, 1])) < 1e-12


def test_lip_distance_requires_pairs(rng):
    rig = make_rig(rng)
    curve = Curve(fps=30.0, labels=rig.viseme_labels, weights=np.zeros((1, 3)))
    with pytest.raises(DataError):
        lip_distance_curves(rig, curve)


def test_total_variation_hand_values():
    curve = Curve(
        fps=30.0,
        labels=("A", "B"),
        weights=np.array([[0.0, 1.0], [0.5, 1.0], [0.25, 0.2]]),
    )
    tv = total_variation(curve)
    assert abs(tv["A"] - 0.75) < 1e-12
    assert abs(tv["B"] - 0.8) < 1e-12
    single = Curve(fps=30.0, labels=("A",), weights=np.array([[0.4]]))
    assert total_variation(single) == {"A": 0.0}
    empty = Curve(fps=30.0, labels=("A",), weights=np.zeros((0, 1)))
    with pytest.raises(DataError):
        total_variation(empty)


def test_serializers_format():
    s = MetricSeries(name="keypoint_error", fps=30.0, values=np.array([1.25, 0.5]))
    text = serialize_metric(s)
    assert text.splitlines() == [
        "# name=keypoint_error",
        "# fps=30.0",
        "frame,value",
        "0,1.250000",
        "1,0.500000",
    ]
    tv_text = serialize_total_variation({"MBP": 0.75, "SSS": 1.0})
    assert tv_text == "label,value\nMBP,0.750000\nSSS,1.000000\n"
