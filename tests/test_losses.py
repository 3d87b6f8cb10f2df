import dataclasses

import numpy as np
import pytest

from visemefit.camera import Pose, project, quat_rotation_jacobians
from visemefit.errors import DataError, NumericError
from visemefit.fitting import FitConfig
from visemefit.guidance import GuidanceSets
from visemefit.images import bilinear_sample, in_bounds
from visemefit.losses import FrameProblem, rotation_gradient
from visemefit.observations import RawObservation
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
        expect = _oracle_total(lw, rig, pose, w, obs, guidance, flow, prev, nb)
        assert abs(got - expect) < 1e-9


def _oracle_total(lw, rig, pose, w, obs, guidance, flow, prev, nb):
    """The seven terms of loss_oracle, weighted by lw and summed; prev is
    (weights, pose) of the frame the flow starts from."""
    lms = list(zip(obs.landmark_ids, obs.landmark_points, obs.landmark_betas))
    return (
        lw[0] * (loss_lmk(pose, w, rig, lms) if lms else 0.0)
        + lw[1] * (0.0 if obs.image is None else loss_rgb(pose, w, rig, obs.image))
        + lw[2] * loss_sup(w, guidance)
        + lw[3] * loss_act(w, guidance)
        + lw[4] * loss_flow(pose, w, prev[1], prev[0], rig, flow)
        + lw[5] * loss_diff(w, nb)
        + lw[6] * loss_range(w)
    )


def test_evaluate_matches_oracle_over_seeded_problems():
    # the stacked residual rows against the seven plain terms, over problems
    # that vary which terms are present and how rows share an entry
    rng = np.random.default_rng(4242)
    seen = dict.fromkeys(
        (
            "landmark and flow on one vertex", "two landmarks on one vertex",
            "weights past both ends", "no landmarks", "no neighbor", "empty suppress",
            "empty activate", "vertices outside image", "no residual rows",
        ),
        0,
    )
    for i in range(200):
        rig = make_rig(rng, n_verts=8, n_visemes=4)
        if i % 2:
            rig = dataclasses.replace(rig, landmark_bindings={**rig.landmark_bindings, 7: 0})
        pose = random_pose(rng, scale=0.02)
        w = rng.uniform(-0.5, 1.5, 4) if i % 3 == 0 else rng.uniform(0.0, 1.0, 4)
        n_lmk = 0 if i % 5 == 0 else 8
        gt_proj = project(blend_vertices(rig, rng.uniform(0.0, 1.0, 4)), pose)
        obs = RawObservation(
            landmark_ids=np.arange(n_lmk),
            landmark_points=gt_proj[:n_lmk] + rng.normal(0.0, 1.0, (n_lmk, 2)),
            landmark_betas=rng.uniform(1.0, 5.0, n_lmk),
            image=rng.uniform(0.0, 1.0, (64, 64, 3) if i % 4 else (48, 40, 3)) if i % 7 else None,
        )
        flow = (rng.integers(0, 8, 3), rng.normal(0.0, 2.0, (3, 2))) if i % 6 and i % 20 else None
        order = rng.permutation(4)
        k_sup, k_act = rng.integers(0, 3, 2) if i % 20 else (0, 0)
        guidance = GuidanceSets(
            suppress=frozenset(order[:k_sup].tolist()),
            activate=frozenset(order[k_sup : k_sup + k_act].tolist()),
        )
        prev = (rng.uniform(0.0, 1.0, 4), random_pose(rng, scale=0.02))
        nb = None if i % 4 == 1 or i % 20 == 0 else rng.uniform(0.0, 1.0, 4)
        lw = tuple(np.array(FitConfig().loss_weights) * rng.uniform(0.5, 2.0, 7))

        targets = None if flow is None else flow_targets(rig, *flow, *prev)
        prob = FrameProblem(rig, lw, guidance, INTR, obs, flow_targets=targets, neighbor_weights=nb)
        got, _, _, _ = prob.evaluate(w, pose.rotation, pose.translation)
        expect = _oracle_total(lw, rig, pose, w, obs, guidance, flow, prev, nb)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)

        proj = project(blend_vertices(rig, w), pose)
        seen["landmark and flow on one vertex"] += n_lmk > 0 and flow is not None
        seen["two landmarks on one vertex"] += n_lmk > 0 and i % 2
        seen["weights past both ends"] += w.min() < 0.0 and w.max() > 1.0
        seen["no landmarks"] += n_lmk == 0
        seen["no neighbor"] += nb is None
        seen["empty suppress"] += k_sup == 0
        seen["empty activate"] += k_act == 0
        no_rows = n_lmk == 0 and flow is None and k_sup + k_act == 0 and nb is None
        seen["no residual rows"] += no_rows
        if obs.image is not None:
            seen["vertices outside image"] += not in_bounds(proj, *obs.image.shape[1::-1]).all()
    assert min(seen.values()) >= 10, seen


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
    # an unbound id changes nothing: value and gradients equal those of the
    # same frame observed without it
    rig = make_rig(rng)
    w = rng.uniform(0.0, 1.0, rig.viseme_count)
    results = []
    for ids, points in (([0, 42], [[30.0, 30.0], [10.0, 10.0]]), ([0], [[30.0, 30.0]])):
        obs = RawObservation(
            landmark_ids=np.array(ids),  # 42 unbound
            landmark_points=np.array(points),
            landmark_betas=np.ones(len(ids)),
        )
        prob = FrameProblem(rig, FitConfig().loss_weights, None, INTR, obs)
        results.append(prob.evaluate(w, cam_pose.rotation, cam_pose.translation))
    (val, gw, gq, gt), (val0, gw0, gq0, gt0) = results
    assert val == val0 and val > 0.0
    np.testing.assert_array_equal(gw, gw0)
    np.testing.assert_array_equal(gq, gq0)
    np.testing.assert_array_equal(gt, gt0)


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
    # evaluate contracts the four rotation jacobians through one constant
    # matrix; the per-jacobian loop is the reference
    for _ in range(300):
        n = int(rng.integers(1, 130))
        dldx = rng.normal(0.0, 10.0, (n, 3))
        s = rng.normal(0.0, 1.0, (n, 3))
        q = rng.normal(0.0, 1.0, 4)
        q_unit = q / np.linalg.norm(q)
        drdq = quat_rotation_jacobians(q_unit.tolist())
        loop = np.array([(dldx * (s @ drdq[i].T)).sum() for i in range(4)])
        np.testing.assert_allclose(rotation_gradient(dldx, s, q_unit), loop, rtol=1e-12, atol=0.0)


# FrameProblem.evaluate's own failure paths, each with its message

_UNIT_Q = np.array([0.0, 0.0, 0.0, 1.0])


def _bare_problem(rig, image=None, neighbor_weights=None):
    obs = RawObservation(image=image)
    return FrameProblem(
        rig, FitConfig().loss_weights, None, INTR, obs, neighbor_weights=neighbor_weights
    )


def test_evaluate_rejects_degenerate_quaternion(tiny_rig):
    w = np.zeros(tiny_rig.viseme_count)
    for q in ([0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0]):
        with pytest.raises(NumericError, match="^quaternion norm is zero or not finite$"):
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


def test_evaluate_results_survive_a_later_call(rng):
    # what one call returned must not change under the next call on the same
    # problem: no returned array may be state the problem keeps and refills
    rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng)
    prob = _problem(rig, obs, guidance, flow, prev, nb)
    first = prob.evaluate(w, pose.rotation, pose.translation)
    kept = [np.copy(a) for a in first]
    later = random_pose(rng, scale=0.02)
    second = prob.evaluate(rng.uniform(-0.5, 1.5, 3), later.rotation, later.translation)
    assert second[0] != first[0]
    for a, b, c in zip(first, kept, second):
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(b, c)


def test_frame_partly_outside_the_image_matches_the_oracle(rng):
    # the image is cropped just left of vertex 0, so the photometric term
    # drops it and keeps some of the later vertices; value and gradients
    # follow the oracle (gradients by central differences of its total)
    rig, pose, w, obs, guidance, flow, prev, nb = _full_setup(rng)
    proj = project(blend_vertices(rig, w), pose)
    width = int(proj[0, 0])
    obs = dataclasses.replace(obs, image=np.ascontiguousarray(obs.image[:, :width]))
    inside = in_bounds(proj, width, obs.image.shape[0])
    assert not inside[0] and inside.any()
    prob = _problem(rig, obs, guidance, flow, prev, nb)
    val, gw, gq, gt = prob.evaluate(w, pose.rotation, pose.translation)
    lw = FitConfig().loss_weights

    def oracle(wv, q, t):
        p = Pose(rotation=q, translation=t, intrinsics=INTR)
        return _oracle_total(lw, rig, p, wv, obs, guidance, flow, prev, nb)

    q0, t0 = pose.rotation, pose.translation
    np.testing.assert_allclose(val, oracle(w, q0, t0), rtol=1e-12, atol=0.0)
    h = 1e-6
    for grad, at in ((gw, lambda e: (w + e, q0, t0)), (gq, lambda e: (w, q0 + e, t0)),
                     (gt, lambda e: (w, q0, t0 + e))):
        for i in range(len(grad)):
            e = np.zeros(len(grad))
            e[i] = h
            fd = (oracle(*at(e)) - oracle(*at(-e))) / (2 * h)
            assert abs(fd - grad[i]) < 1e-3 * max(1.0, abs(fd))
