import dataclasses

import numpy as np
import pytest

from visemefit.camera import Pose, project, quat_rotation_jacobians
from visemefit.errors import DataError, NumericError
from visemefit.fitting import FitConfig
from visemefit.guidance import GuidanceSets
from visemefit.images import bilinear_sample
from visemefit.losses import FrameProblem
from visemefit.observations import RawObservation, empty_raw
from visemefit.rig import blend_vertices

from conftest import INTR, flow_targets, make_rig, random_pose
from loss_oracle import (
    loss_act,
    loss_diff,
    loss_flow,
    loss_lmk,
    loss_range,
    loss_rgb,
    loss_sup,
)


def test_loss_lmk_hand_value(tiny_rig, cam_pose):
    w = np.zeros(tiny_rig.viseme_count)
    proj = project(tiny_rig.neutral.vertices, cam_pose)
    # two landmarks offset by known pixel residuals
    lms = [
        (0, (proj[0, 0] + 3.0, proj[0, 1]), 2.0),  # r^2 = 9, beta 2
        (1, (proj[1, 0], proj[1, 1] - 4.0), 1.0),  # r^2 = 16, beta 1
    ]
    # beta-weighted sum over the landmark count
    expect = (2.0 * 9.0 + 1.0 * 16.0) / 2.0
    assert abs(loss_lmk(cam_pose, w, tiny_rig, lms) - expect) < 1e-9


def test_loss_lmk_zero_at_exact_projection(tiny_rig, cam_pose, rng):
    w = rng.uniform(0, 1, tiny_rig.viseme_count)
    proj = project(blend_vertices(tiny_rig, w), cam_pose)
    lms = [(i, tuple(proj[i]), 1.0) for i in range(4)]
    assert loss_lmk(cam_pose, w, tiny_rig, lms) < 1e-18


def test_loss_lmk_rejects(tiny_rig, cam_pose):
    with pytest.raises(DataError):
        loss_lmk(cam_pose, np.zeros(tiny_rig.viseme_count), tiny_rig, [])
    with pytest.raises(DataError):
        loss_lmk(cam_pose, np.zeros(tiny_rig.viseme_count), tiny_rig, [(0, (1.0, 1.0), 0.0)])
    with pytest.raises(DataError):
        # landmark id 99 is not bound
        loss_lmk(cam_pose, np.zeros(tiny_rig.viseme_count), tiny_rig, [(99, (1.0, 1.0), 1.0)])


def test_loss_rgb_matches_bilinear_oracle(tiny_rig, cam_pose, rng):
    img = rng.uniform(0, 1, (64, 64, 3))
    w = np.zeros(tiny_rig.viseme_count)
    got = loss_rgb(cam_pose, w, tiny_rig, img)
    proj = project(tiny_rig.neutral.vertices, cam_pose)
    vals = bilinear_sample(img, proj)
    expect = float(((vals - tiny_rig.neutral.colors) ** 2).sum() / len(proj))
    assert abs(got - expect) < 1e-12


def test_loss_rgb_zero_when_image_matches_colors(tiny_rig, cam_pose):
    # paint a constant image equal to a constant-color rig
    rig = tiny_rig
    img = np.full((64, 64, 3), 0.5)
    colors = np.full_like(rig.neutral.colors, 0.5)
    from visemefit.mesh import Mesh
    from visemefit.rig import Rig

    rig2 = Rig(
        neutral=Mesh(vertices=rig.neutral.vertices, triangles=rig.neutral.triangles, colors=colors),
        visemes=rig.visemes,
        viseme_labels=rig.viseme_labels,
    )
    assert loss_rgb(cam_pose, np.zeros(rig2.viseme_count), rig2, img) < 1e-18


def test_loss_rgb_rejects(tiny_rig, cam_pose):
    from visemefit.mesh import Mesh
    from visemefit.rig import Rig

    plain = Rig(
        neutral=Mesh(vertices=tiny_rig.neutral.vertices, triangles=tiny_rig.neutral.triangles),
        visemes=tuple(
            Mesh(vertices=m.vertices, triangles=m.triangles) for m in tiny_rig.visemes
        ),
        viseme_labels=tiny_rig.viseme_labels,
    )
    img = np.zeros((8, 8, 3))
    with pytest.raises(DataError):
        loss_rgb(cam_pose, np.zeros(plain.viseme_count), plain, img)
    with pytest.raises(DataError):
        loss_rgb(cam_pose, np.zeros(tiny_rig.viseme_count), tiny_rig, np.zeros((8, 8)))
    # everything projects outside a 2x2 image
    with pytest.raises(NumericError):
        loss_rgb(cam_pose, np.zeros(tiny_rig.viseme_count), tiny_rig, np.zeros((2, 2, 3)))


def test_guidance_losses_hand_values():
    w = np.array([0.5, 0.2, 0.1, 0.8])
    sets = GuidanceSets(suppress=frozenset({1, 2}), activate=frozenset({0, 3}))
    assert abs(loss_sup(w, sets) - (0.04 + 0.01) / 2.0) < 1e-12
    assert abs(loss_act(w, sets) - (-(0.25 + 0.64) / 2.0)) < 1e-12
    empty = GuidanceSets(suppress=frozenset(), activate=frozenset())
    assert loss_sup(w, empty) == 0.0
    assert loss_act(w, empty) == 0.0


def test_loss_flow_hand_value(tiny_rig, cam_pose):
    w_prev = np.zeros(tiny_rig.viseme_count)
    w_cur = np.zeros(tiny_rig.viseme_count)
    w_cur[0] = 0.5
    # displacement chosen so current frame misses the advected target
    prev_proj = project(blend_vertices(tiny_rig, w_prev), cam_pose)
    cur_proj = project(blend_vertices(tiny_rig, w_cur), cam_pose)
    vidx = np.array([0, 2, 5])
    disp = np.array([[1.0, 0.0], [0.0, 0.0], [-0.5, 2.0]])
    targets = prev_proj[vidx] + disp
    expect = float(((cur_proj[vidx] - targets) ** 2).sum() / 3)
    got = loss_flow(cam_pose, w_cur, cam_pose, w_prev, tiny_rig, (vidx, disp))
    assert abs(got - expect) < 1e-12
    # no previous frame or no correspondences: zero
    assert loss_flow(cam_pose, w_cur, None, None, tiny_rig, (vidx, disp)) == 0.0
    assert loss_flow(cam_pose, w_cur, cam_pose, w_prev, tiny_rig, (np.zeros(0, int), np.zeros((0, 2)))) == 0.0
    with pytest.raises(DataError):
        loss_flow(cam_pose, w_cur, cam_pose, w_prev, tiny_rig, (np.array([99]), np.zeros((1, 2))))


def test_loss_diff_and_range_hand_values():
    w = np.array([0.1, 0.4, 0.9])
    nb = np.array([0.2, 0.2, 0.9])
    assert abs(loss_diff(w, nb) - (0.01 + 0.04 + 0.0) / 3.0) < 1e-12
    assert loss_diff(w, None) == 0.0
    with pytest.raises(DataError):
        loss_diff(w, np.zeros(2))

    assert loss_range(np.array([0.0, 0.5, 1.0])) == 0.0
    # above: (0.2^2 + 0.1^2)/2, below: (0.3^2)/1
    got = loss_range(np.array([1.2, 1.1, -0.3, 0.5]))
    assert abs(got - ((0.04 + 0.01) / 2.0 + 0.09)) < 1e-12


def _full_setup(rng, with_flow=True, shared_vertex=False):
    rig = make_rig(rng, n_verts=8, n_visemes=3)
    if shared_vertex:
        # landmarks 0 and 7 both bind vertex 0: two targets on one vertex
        rig = dataclasses.replace(rig, landmark_bindings={**rig.landmark_bindings, 7: 0})
    pose = random_pose(rng, scale=0.02)
    w = rng.uniform(0.0, 1.0, 3)
    img = rng.uniform(0, 1, (64, 64, 3))
    gt_proj = project(blend_vertices(rig, rng.uniform(0, 1, 3)), pose)
    obs = RawObservation(
        landmark_ids=np.arange(8),
        landmark_points=gt_proj + rng.normal(0, 1, (8, 2)),
        landmark_betas=rng.uniform(1, 5, 8),
        image=img,
    )
    # flow correspondences: (vertex indices, displacements)
    flow = (np.array([1, 3, 4]), rng.normal(0, 2, (3, 2))) if with_flow else None
    guidance = GuidanceSets(suppress=frozenset({2}), activate=frozenset({0}))
    prev = (rng.uniform(0, 1, 3), random_pose(rng, scale=0.02))  # (weights, pose)
    nb = rng.uniform(0, 1, 3)
    return rig, pose, w, obs, guidance, flow, prev, nb


def _problem(rig, obs, guidance, flow, prev, nb):
    targets = None if flow is None else flow_targets(rig, *flow, *prev)
    return FrameProblem(
        rig, FitConfig().loss_weights, guidance, INTR, obs,
        flow_targets=targets, neighbor_weights=nb,
    )


def test_total_loss_equals_sum_of_standalone_terms(rng):
    for shared_vertex in (False, True):
        rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng, shared_vertex=shared_vertex)
        prob = _problem(rig, obs, guidance, flow, prev, nb)
        got, _, _, _ = prob.evaluate(w, pose.rotation, pose.translation)

        lw = FitConfig().loss_weights
        lms = list(zip(obs.landmark_ids, obs.landmark_points, obs.landmark_betas))
        expect = (
            lw[0] * loss_lmk(pose, w, rig, lms)
            + lw[1] * loss_rgb(pose, w, rig, obs.image)
            + lw[2] * loss_sup(w, guidance)
            + lw[3] * loss_act(w, guidance)
            + lw[4] * loss_flow(pose, w, prev[1], prev[0], rig, flow)
            + lw[5] * loss_diff(w, nb)
            + lw[6] * loss_range(w)
        )
        assert abs(got - expect) < 1e-9


def test_total_loss_skips_absent_terms(rng):
    rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng, with_flow=False)
    cfg = FitConfig()
    bare = RawObservation(
        landmark_ids=obs.landmark_ids,
        landmark_points=obs.landmark_points,
        landmark_betas=obs.landmark_betas,
    )
    prob = FrameProblem(rig, cfg.loss_weights, None, INTR, bare)
    got, _, _, _ = prob.evaluate(w, pose.rotation, pose.translation)
    lms = list(zip(obs.landmark_ids, obs.landmark_points, obs.landmark_betas))
    expect = cfg.loss_weights[0] * loss_lmk(pose, w, rig, lms) + cfg.loss_weights[6] * loss_range(w)
    assert abs(got - expect) < 1e-9


def test_gradient_matches_finite_differences(rng):
    h = 1e-6
    for shared_vertex in (False, True):
        rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng, shared_vertex=shared_vertex)
        prob = _problem(rig, obs, guidance, flow, prev, nb)
        _, gw, gq, gt = prob.evaluate(w, pose.rotation, pose.translation)

        def value(wv, q, t):
            return prob.evaluate(wv, q, t)[0]

        q0, t0 = pose.rotation, pose.translation
        for i in range(len(w)):
            e = np.zeros_like(w)
            e[i] = h
            fd = (value(w + e, q0, t0) - value(w - e, q0, t0)) / (2 * h)
            assert abs(fd - gw[i]) < 1e-3 * max(1.0, abs(fd))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (value(w, q0 + e, t0) - value(w, q0 - e, t0)) / (2 * h)
            assert abs(fd - gq[i]) < 1e-3 * max(1.0, abs(fd))
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (value(w, q0, t0 + e) - value(w, q0, t0 - e)) / (2 * h)
            assert abs(fd - gt[i]) < 1e-3 * max(1.0, abs(fd))


def test_frame_problem_skips_unbound_landmarks(rng, cam_pose):
    rig = make_rig(rng)
    obs = RawObservation(
        landmark_ids=np.array([0, 42]),  # 42 unbound
        landmark_points=np.array([[30.0, 30.0], [10.0, 10.0]]),
        landmark_betas=np.array([1.0, 1.0]),
    )
    prob = FrameProblem(rig, FitConfig().loss_weights, None, INTR, obs)
    # the landmark block is (weight, vertex indices, x, y, betas)
    assert prob.landmarks is not None and len(prob.landmarks[1]) == 1


def test_behind_camera_projection_raises(tiny_rig):
    w = np.zeros(tiny_rig.viseme_count)
    behind = Pose(
        rotation=np.array([0.0, 0.0, 0.0, 1.0]),
        translation=np.array([0.0, 0.0, -5.0]),
        intrinsics=INTR,
    )
    with pytest.raises(NumericError):
        loss_lmk(behind, w, tiny_rig, [(0, (1.0, 1.0), 1.0)])


def test_uint8_frame_evaluates_like_its_float64_copy(rng):
    # a frame read from a PPM stays uint8; value and all three gradients must
    # equal, bit for bit, those of the whole frame divided by 255.0
    rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng)
    frame = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    results = [
        _problem(rig, dataclasses.replace(obs, image=image), guidance, flow, prev, nb)
        .evaluate(w, pose.rotation, pose.translation)
        for image in (frame, frame / 255.0)
    ]
    (val, gw, gq, gt), (val64, gw64, gq64, gt64) = results
    assert val == val64
    assert loss_rgb(pose, w, rig, frame) == loss_rgb(pose, w, rig, frame / 255.0)
    np.testing.assert_array_equal(gw, gw64)
    np.testing.assert_array_equal(gq, gq64)
    np.testing.assert_array_equal(gt, gt64)


def test_quaternion_gradient_contraction_matches_loop(rng):
    # evaluate contracts the four rotation jacobians in one product; the
    # per-jacobian loop is the reference, and the rounding must not change
    for _ in range(300):
        n = int(rng.integers(1, 130))
        dldx = rng.normal(0.0, 10.0, (n, 3))
        s = rng.normal(0.0, 1.0, (n, 3))
        q = rng.normal(0.0, 1.0, 4)
        drdq = quat_rotation_jacobians((q / np.linalg.norm(q)).tolist())
        loop = np.array([(dldx * (s @ drdq[i].T)).sum() for i in range(4)])
        fused = (dldx * (s @ drdq.transpose(0, 2, 1))).reshape(4, -1).sum(axis=1)
        np.testing.assert_array_equal(fused, loop)


# FrameProblem.evaluate's own failure paths, each with its message

_UNIT_Q = np.array([0.0, 0.0, 0.0, 1.0])


def _bare_problem(rig, image=None, neighbor_weights=None):
    obs = dataclasses.replace(empty_raw(), image=image)
    return FrameProblem(
        rig, FitConfig().loss_weights, None, INTR, obs, neighbor_weights=neighbor_weights
    )


def test_evaluate_rejects_degenerate_quaternion(tiny_rig):
    w = np.zeros(tiny_rig.viseme_count)
    for q in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0]):
        with pytest.raises(NumericError, match="^degenerate quaternion during evaluation$"):
            _bare_problem(tiny_rig).evaluate(w, np.array(q), np.zeros(3))


def test_evaluate_rejects_behind_camera_vertex(tiny_rig):
    w = np.zeros(tiny_rig.viseme_count)
    with pytest.raises(NumericError, match=r"^behind-camera vertex \d+ \(depth -\d"):
        _bare_problem(tiny_rig).evaluate(w, _UNIT_Q, np.array([0.0, 0.0, -5.0]))


def test_evaluate_rejects_all_vertices_outside_image(tiny_rig):
    # the rig projects around pixel (32, 32), far outside a 2x2 frame
    prob = _bare_problem(tiny_rig, image=np.zeros((2, 2, 3)))
    with pytest.raises(NumericError, match="^all vertices project outside the image$"):
        prob.evaluate(np.zeros(tiny_rig.viseme_count), _UNIT_Q, np.zeros(3))


def test_evaluate_rejects_non_finite_objective(tiny_rig):
    # finite inputs whose temporal term overflows: (0 - 1e200)^2 is inf
    n = tiny_rig.viseme_count
    prob = _bare_problem(tiny_rig, neighbor_weights=np.full(n, 1e200))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="^non-finite objective"):
        prob.evaluate(np.zeros(n), _UNIT_Q, np.zeros(3))
