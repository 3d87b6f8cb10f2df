import math
import warnings

import numpy as np
import pytest

from visemefit.bones import BonePose, slerp
from visemefit.camera import (
    Pose,
    check_quat_norm,
    project,
    quat_normalize,
    quat_rotation_jacobians,
    quat_to_matrix,
    transform_points,
)
from visemefit.errors import DataError, NumericError
from visemefit.fitting import FitConfig

INTR = (100.0, 10.0, 20.0)
# frozen, so one identity pose serves every test
IDENTITY = Pose(rotation=[0.0, 0.0, 0.0, 1.0], translation=np.zeros(3), intrinsics=INTR)


def test_project_hand_values():
    # x' = f*X/Z + cx: 100*0.5/2 + 10 = 35, y' = 100*(-0.25)/2 + 20 = 7.5
    p = IDENTITY
    px = project(np.array([[0.5, -0.25, 2.0]]), p)
    np.testing.assert_allclose(px, [[35.0, 7.5]])


def test_project_batch_shape():
    p = IDENTITY
    out = project(np.zeros((5, 3)) + [0.0, 0.0, 1.0], p)
    assert out.shape == (5, 2)
    np.testing.assert_allclose(out, [[10.0, 20.0]] * 5)


def test_behind_camera_raises():
    p = IDENTITY
    with pytest.raises(NumericError):
        project(np.array([[0.0, 0.0, -1.0]]), p)
    with pytest.raises(NumericError):
        project(np.array([[0.0, 0.0, 0.0]]), p)


def test_rotation_90deg_about_z():
    s = np.sqrt(0.5)
    pose = Pose(rotation=np.array([0.0, 0.0, s, s]), translation=np.zeros(3), intrinsics=INTR)
    out = transform_points(np.array([[1.0, 0.0, 0.0]]), pose)
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_translation_applied_after_rotation():
    s = np.sqrt(0.5)
    pose = Pose(
        rotation=np.array([0.0, 0.0, s, s]),
        translation=np.array([5.0, 6.0, 7.0]),
        intrinsics=INTR,
    )
    out = transform_points(np.array([[1.0, 0.0, 0.0]]), pose)
    np.testing.assert_allclose(out, [[5.0, 7.0, 7.0]], atol=1e-12)


def test_quat_to_matrix_is_rotation(rng):
    for _ in range(200):
        q = quat_normalize(rng.normal(size=4))
        r = quat_to_matrix(q)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_quat_double_cover(rng):
    for _ in range(50):
        q = quat_normalize(rng.normal(size=4))
        np.testing.assert_allclose(quat_to_matrix(q), quat_to_matrix(-q), atol=1e-14)


def test_quat_normalize_rejects_zero():
    with pytest.raises((DataError, NumericError)):
        quat_normalize(np.zeros(4))


UNNORMALIZABLE = {
    "zero": [0.0, 0.0, 0.0, 0.0],
    "overflow": [1e200, 0.0, 0.0, 0.0],
    "nan": [np.nan, 0.0, 0.0, 1.0],
    "inf": [np.inf, 0.0, 0.0, 1.0],
}
QUAT_NORM_MESSAGE = "^quaternion norm is zero or not finite$"


@pytest.mark.parametrize("q", UNNORMALIZABLE.values(), ids=list(UNNORMALIZABLE))
@pytest.mark.parametrize(
    "error, call",
    [
        (NumericError, quat_normalize),
        (NumericError, lambda q: slerp([0.0, 0.0, 0.0, 1.0], q, 0.5)),
        (NumericError, lambda q: slerp(q, [0.0, 0.0, 0.0, 1.0], 0.5)),
        (DataError, lambda q: BonePose(rotations=[[0.0, 0.0, 0.0, 1.0], q],
                                       translations=np.zeros((2, 3)), scales=np.ones((2, 3)))),
    ],
    ids=["quat_normalize", "slerp-end", "slerp-start", "BonePose"],
)
def test_one_quaternion_rule_rejects_with_one_message_and_no_warning(error, call, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=QUAT_NORM_MESSAGE):
            call(np.array(q))


@pytest.mark.parametrize("focal", [0.0, -1.0, math.nan, math.inf])
def test_fit_config_and_pose_share_one_focal_rule(focal):
    message = f"^focal length must be positive and finite, got {focal}$"
    with pytest.raises(DataError, match=message):
        FitConfig(focal=focal)
    with pytest.raises(DataError, match=message):
        Pose(rotation=[0, 0, 0, 1], translation=[0, 0, 2], intrinsics=(focal, 0.0, 0.0))


def test_check_quat_norm_takes_norms_squared_norms_and_rows():
    for ok in (1.0, 1e-300, 1e300):
        check_quat_norm(ok)
    check_quat_norm(np.array([1.0, 2.0, 1e-300]))
    check_quat_norm(np.zeros(0))
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(NumericError, match=QUAT_NORM_MESSAGE):
            check_quat_norm(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=QUAT_NORM_MESSAGE):
                check_quat_norm(np.array([1.0, bad, 1.0]), DataError)


def test_rotation_jacobians_match_fd(rng):
    # quat_to_matrix is the plain quadratic form with no normalization, so
    # central differences through it match the jacobian slices directly
    h = 1e-6
    for _ in range(20):
        q = quat_normalize(rng.normal(size=4))
        jac = quat_rotation_jacobians(q)
        for i in range(4):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            fd = (quat_to_matrix(qp) - quat_to_matrix(qm)) / (2 * h)
            np.testing.assert_allclose(jac[i], fd, atol=1e-6)


def test_pose_is_immutable_and_validated():
    p = IDENTITY
    assert not p.rotation.flags.writeable
    with pytest.raises(DataError):
        Pose(rotation=np.array([0, 0, 0, np.nan]), translation=np.zeros(3), intrinsics=INTR)
    with pytest.raises(DataError):
        Pose(rotation=np.array([0, 0, 0, 1.0]), translation=np.zeros(3), intrinsics=(0.0, 0, 0))
