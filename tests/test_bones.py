import io
import math

import numpy as np
import pytest

from visemefit.bones import (
    BonePose,
    BonePoseAssets,
    blend_bone_pose,
    parse_bone_assets,
    read_bone_assets,
    serialize_blended_poses,
    slerp,
)
from visemefit.curves import Curve
from visemefit.errors import DataError, NumericError

IDENT = np.array([0.0, 0.0, 0.0, 1.0])


def zrot(deg: float) -> np.ndarray:
    h = math.radians(deg) / 2.0
    return np.array([0.0, 0.0, math.sin(h), math.cos(h)])


def test_slerp_halfway_of_right_angle():
    np.testing.assert_allclose(slerp(IDENT, zrot(90), 0.5), zrot(45), atol=1e-12)
    np.testing.assert_allclose(slerp(IDENT, zrot(90), 0.25), zrot(22.5), atol=1e-12)


def test_slerp_endpoints_and_unit_norm():
    q1 = zrot(73)
    np.testing.assert_allclose(slerp(IDENT, q1, 0.0), IDENT, atol=1e-12)
    np.testing.assert_allclose(slerp(IDENT, q1, 1.0), q1, atol=1e-12)
    assert abs(np.linalg.norm(slerp(IDENT, q1, 0.37)) - 1.0) < 1e-12


def test_slerp_constant_angular_speed(rng):
    q0 = rng.normal(size=4)
    q1 = rng.normal(size=4)
    q0 /= np.linalg.norm(q0)
    q1 /= np.linalg.norm(q1)
    d = abs(float(q0 @ q1))
    theta = math.acos(min(d, 1.0))
    for t in (0.2, 0.5, 0.9):
        qt = slerp(q0, q1, t)
        ang = math.acos(min(abs(float(q0 @ qt)), 1.0))
        assert abs(ang - t * theta) < 1e-9


def test_slerp_double_cover():
    # negating an endpoint picks the same shortest arc
    q1 = zrot(90)
    a = slerp(IDENT, q1, 0.5)
    b = slerp(IDENT, -q1, 0.5)
    assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-12


def test_slerp_near_parallel_falls_back_to_lerp():
    q1 = zrot(1e-7)
    out = slerp(IDENT, q1, 0.5)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    np.testing.assert_allclose(out, zrot(0.5e-7), atol=1e-12)


def test_slerp_rejects_zero_norm():
    with pytest.raises(NumericError):
        slerp(np.zeros(4), IDENT, 0.5)


def _assets() -> BonePoseAssets:
    rest = BonePose(
        rotations=np.array([IDENT, IDENT]),
        translations=np.zeros((2, 3)),
        scales=np.ones((2, 3)),
    )
    open_pose = BonePose(
        rotations=np.array([zrot(30), IDENT]),
        translations=np.array([[0.0, -0.2, 0.0], [0.0, 0.0, 0.0]]),
        scales=np.ones((2, 3)),
    )
    wide_pose = BonePose(
        rotations=np.array([IDENT, zrot(-20)]),
        translations=np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]]),
        scales=np.array([[1.0, 1.0, 1.0], [1.2, 1.0, 1.0]]),
    )
    return BonePoseAssets(
        bones=("jaw", "tongue"),
        labels=("MBP", "WWW"),
        rest=rest,
        viseme_poses=(open_pose, wide_pose),
    )


def test_blend_zero_weights_is_rest():
    assets = _assets()
    out = blend_bone_pose(assets, [0.0, 0.0])
    np.testing.assert_array_equal(out.rotations, assets.rest.rotations)
    np.testing.assert_array_equal(out.translations, assets.rest.translations)
    np.testing.assert_array_equal(out.scales, assets.rest.scales)


def test_blend_one_hot_reproduces_pose():
    assets = _assets()
    for i, pose in enumerate(assets.viseme_poses):
        w = [0.0, 0.0]
        w[i] = 1.0
        out = blend_bone_pose(assets, w)
        np.testing.assert_array_equal(out.translations, pose.translations)
        np.testing.assert_array_equal(out.scales, pose.scales)
        # rotation equality up to quaternion sign
        for a, b in zip(out.rotations, pose.rotations):
            assert min(np.linalg.norm(a - b), np.linalg.norm(a + b)) < 1e-12


def test_blend_translation_is_linear():
    assets = _assets()
    out = blend_bone_pose(assets, [0.5, 0.25])
    expect = (
        assets.rest.translations
        + 0.5 * (assets.viseme_poses[0].translations - assets.rest.translations)
        + 0.25 * (assets.viseme_poses[1].translations - assets.rest.translations)
    )
    np.testing.assert_allclose(out.translations, expect, atol=1e-12)


def test_blend_halfway_rotation_matches_slerp():
    # single active pose at weight 0.5: nlerp of rest and pose, which for
    # equal weights lies on the slerp midpoint
    assets = _assets()
    out = blend_bone_pose(assets, [0.5, 0.0])
    np.testing.assert_allclose(out.rotations[0], slerp(IDENT, zrot(30), 0.5), atol=1e-12)


def test_blend_cancelled_sum_falls_back_to_rest():
    rest = BonePose(rotations=np.array([IDENT]), translations=np.zeros((1, 3)), scales=np.ones((1, 3)))
    qa = np.array([1.0, 0.0, 0.0, 0.0])
    pa = BonePose(rotations=qa[None], translations=np.zeros((1, 3)), scales=np.ones((1, 3)))
    pb = BonePose(rotations=-qa[None], translations=np.zeros((1, 3)), scales=np.ones((1, 3)))
    assets = BonePoseAssets(bones=("b",), labels=("A", "B"), rest=rest, viseme_poses=(pa, pb))
    out = blend_bone_pose(assets, [0.5, 0.5])
    np.testing.assert_array_equal(out.rotations, rest.rotations)


def test_blend_rejects_wrong_weight_count():
    with pytest.raises(DataError):
        blend_bone_pose(_assets(), [1.0])


def test_bone_pose_validation():
    with pytest.raises(DataError):
        BonePose(rotations=np.array([IDENT]), translations=np.zeros((2, 3)), scales=np.ones((1, 3)))
    with pytest.raises(DataError):
        BonePose(rotations=np.zeros((1, 4)), translations=np.zeros((1, 3)), scales=np.ones((1, 3)))
    # rotations normalize on construction
    p = BonePose(rotations=np.array([[0.0, 0.0, 0.0, 2.0]]), translations=np.zeros((1, 3)), scales=np.ones((1, 3)))
    np.testing.assert_allclose(p.rotations[0], IDENT, atol=1e-12)


CSV = """bone,pose_label,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz
jaw,rest,0,0,0,1,0,0,0,1,1,1
jaw,MBP,0,0,0.258819,0.965926,0,-0.2,0,1,1,1
tongue,rest,0,0,0,1,0,0,0,1,1,1
tongue,MBP,0,0,0,1,0,0.05,0,1,1,1
"""


def test_parse_bone_assets():
    assets = parse_bone_assets(CSV)
    assert assets.bones == ("jaw", "tongue")
    # only the first line can be the column header; a bone may be named bone
    named = parse_bone_assets(CSV.replace("tongue", "bone"))
    assert named.bones == ("jaw", "bone")
    assert assets.labels == ("MBP",)
    np.testing.assert_allclose(assets.viseme_poses[0].translations[0], [0, -0.2, 0])
    np.testing.assert_allclose(assets.viseme_poses[0].rotations[0], zrot(30), atol=1e-6)


def test_parse_bone_assets_errors():
    with pytest.raises(DataError):
        parse_bone_assets("bone,pose_label,qx\n")  # header only, no rows
    with pytest.raises(DataError):
        parse_bone_assets("jaw,rest,0,0,0,1,0,0,0,1,1\n")  # 11 columns
    with pytest.raises(DataError):
        parse_bone_assets("jaw,rest,x,0,0,1,0,0,0,1,1,1\n")
    with pytest.raises(DataError):
        parse_bone_assets(CSV + "jaw,MBP,0,0,0,1,0,0,0,1,1,1\n")  # duplicate
    # tongue lacks the MBP pose
    partial = "\n".join(CSV.splitlines()[:4]) + "\n"
    with pytest.raises(DataError):
        parse_bone_assets(partial)


def test_read_bone_assets_roundtrip(tmp_path):
    p = tmp_path / "bones.csv"
    p.write_text(CSV, encoding="utf-8")
    assets = read_bone_assets(p)
    assert assets.bones == ("jaw", "tongue")
    with pytest.raises(DataError):
        read_bone_assets(tmp_path / "nope.csv")


def _blended(assets, curve) -> str:
    """What serialize_blended_poses writes for curve."""
    out = io.StringIO()
    serialize_blended_poses(assets, curve, out)
    return out.getvalue()


def test_serialize_blended_poses_resolves_curve_columns():
    assets = _assets()
    # curve orders columns differently and carries an extra viseme
    curve = Curve(
        fps=30.0,
        labels=("WWW", "XTRA", "MBP"),
        weights=np.array([[0.0, 0.7, 0.0], [1.0, 0.2, 0.0]]),
    )
    text = _blended(assets, curve)
    lines = text.splitlines()
    assert lines[0] == "frame,bone,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz"
    assert len(lines) == 1 + 2 * 2
    # frame 0 has zero weight on both bound visemes: rest pose
    cols = lines[1].split(",")
    assert cols[0] == "0" and cols[1] == "jaw"
    np.testing.assert_allclose([float(c) for c in cols[2:]], [0, 0, 0, 1, 0, 0, 0, 1, 1, 1], atol=1e-12)
    # frame 1 puts full weight on WWW; tongue picks up its pose
    tongue = lines[4].split(",")
    assert tongue[0] == "1" and tongue[1] == "tongue"
    np.testing.assert_allclose(float(tongue[7]), 0.1, atol=1e-6)

    missing = Curve(fps=30.0, labels=("MBP",), weights=np.zeros((1, 1)))
    with pytest.raises(DataError):
        serialize_blended_poses(assets, missing, io.StringIO())


def test_serialize_blended_poses_overflow_names_the_frame():
    # a finite but huge weight overflows the rotation sum's norm
    curve = Curve(fps=30.0, labels=("MBP", "WWW"), weights=np.array([[0.0, 0.0], [1e160, 0.0]]))
    with pytest.raises(DataError, match="^frame 1: blended rotation overflows"):
        serialize_blended_poses(_assets(), curve, io.StringIO())
    # a huge pose scale at an ordinary weight overflows the blended scale
    assets = _assets()
    huge = BonePose(rotations=np.array([IDENT, IDENT]), translations=np.zeros((2, 3)),
                    scales=np.full((2, 3), 1e308))
    assets = BonePoseAssets(bones=assets.bones, labels=assets.labels, rest=assets.rest,
                            viseme_poses=(assets.viseme_poses[0], huge))
    curve = Curve(fps=30.0, labels=("MBP", "WWW"), weights=np.array([[0.0, 0.5], [0.0, 2.0]]))
    with pytest.raises(DataError, match="^frame 1: blended translation or scale overflows"):
        serialize_blended_poses(assets, curve, io.StringIO())


def _reference_rows(assets: BonePoseAssets, weights) -> list[str]:
    """Blended pose rows from a per-frame loop over blend_bone_pose."""
    rows = []
    for j, w in enumerate(weights):
        pose = blend_bone_pose(assets, w)
        for i, bone in enumerate(assets.bones):
            nums = [*pose.rotations[i], *pose.translations[i], *pose.scales[i]]
            rows.append(f"{j},{bone}," + ",".join(f"{v:.6f}" for v in nums))
    return rows


def test_serialize_blended_poses_matches_per_frame_blend(rng):
    # visemes A and B hold opposite rotations on bone "b0", so weights
    # (0.5, 0.5, 0, ...) cancel its rotation sum
    n_visemes, n_bones, frames = 5, 3, 150
    qa = np.array([1.0, 0.0, 0.0, 0.0])

    def pose(k):
        rot = rng.normal(size=(n_bones, 4))
        if k in (0, 1):
            rot[0] = qa if k == 0 else -qa
        return BonePose(
            rotations=rot,
            translations=rng.normal(0.0, 0.1, (n_bones, 3)),
            scales=1.0 + rng.normal(0.0, 0.1, (n_bones, 3)),
        )

    assets = BonePoseAssets(
        bones=tuple(f"b{i}" for i in range(n_bones)),
        labels=("A", "B", "C", "D", "E"),
        rest=BonePose(
            rotations=np.tile(IDENT, (n_bones, 1)),
            translations=np.zeros((n_bones, 3)),
            scales=np.ones((n_bones, 3)),
        ),
        viseme_poses=tuple(pose(k) for k in range(n_visemes)),
    )
    weights = rng.uniform(0.0, 0.6, (frames, n_visemes))
    weights[::7] = 0.0
    cancelled = 40
    weights[cancelled] = [0.5, 0.5, 0.0, 0.0, 0.0]

    def curve(w):
        return Curve(fps=30.0, labels=assets.labels, weights=w.copy())

    lines = _blended(assets, curve(weights)).splitlines()
    assert lines[0] == "frame,bone,qx,qy,qz,qw,tx,ty,tz,sx,sy,sz"
    assert lines[1:] == _reference_rows(assets, weights)
    assert lines[1 + cancelled * n_bones].startswith(f"{cancelled},b0,0.000000,0.000000,0.000000,1.000000,")

    # the first overflowing frame is named, also when a later frame in the
    # same block of frames overflows too
    weights[70, 2] = 1e160
    weights[75, 3] = 1e160
    with pytest.raises(DataError, match="^frame 70: blended rotation overflows"):
        serialize_blended_poses(assets, curve(weights), io.StringIO())
