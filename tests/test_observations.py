import dataclasses

import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.flow import write_flow_pair
from visemefit.images import write_ppm
from visemefit.observations import (
    ObservationDir,
    RawObservation,
    frame_flow_name,
    frame_image_name,
    parse_landmarks,
    serialize_landmarks,
)

CSV = """frame,landmark_id,x,y,beta
0,0,10.5,20.25,1
0,3,11.0,21.0,5
2,0,12.0,22.0,1
"""


def test_parse_landmarks_groups_by_frame():
    frames = parse_landmarks(CSV)
    assert sorted(frames) == [0, 2]
    obs = frames[0]
    np.testing.assert_array_equal(obs.landmark_ids, [0, 3])
    np.testing.assert_allclose(obs.landmark_points, [[10.5, 20.25], [11.0, 21.0]])
    np.testing.assert_allclose(obs.landmark_betas, [1.0, 5.0])
    assert obs.image is None


def test_landmarks_roundtrip_byte_stable():
    frames = parse_landmarks(CSV)
    text = serialize_landmarks(frames)
    again = serialize_landmarks(parse_landmarks(text))
    assert text == again
    # awkward floats survive because serialization uses repr
    frames[5] = RawObservation(
        landmark_ids=np.array([7]),
        landmark_points=np.array([[0.1, 1e-17]]),
        landmark_betas=np.array([0.30000000000000004]),
    )
    text = serialize_landmarks(frames)
    back = parse_landmarks(text)[5]
    np.testing.assert_array_equal(back.landmark_points, [[0.1, 1e-17]])
    np.testing.assert_array_equal(back.landmark_betas, [0.30000000000000004])


def test_parse_landmarks_rejects_bad_rows():
    for bad in (
        "0,0,1.0,2.0\n",  # four columns
        "0,0,x,2.0,1\n",
        "-1,0,1.0,2.0,1\n",
        "0,0,1.0,2.0,0\n",  # beta must be positive
        "0,0,1.0,2.0,-2\n",
    ):
        with pytest.raises(DataError):
            parse_landmarks(bad)


def test_raw_observation_validation():
    with pytest.raises(DataError):
        RawObservation(
            landmark_ids=np.array([0, 1]),
            landmark_points=np.zeros((1, 2)),
            landmark_betas=np.ones(2),
        )
    with pytest.raises(DataError):
        RawObservation(
            landmark_ids=np.array([0]),
            landmark_points=np.zeros((1, 2)),
            landmark_betas=np.zeros(1),
        )
    e = RawObservation()
    assert len(e.landmark_ids) == 0 and e.landmark_points.shape == (0, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.image = np.zeros((4, 4, 3))


def test_frame_file_names():
    assert frame_image_name(3) == "000003.ppm"
    assert frame_flow_name(123456) == "123456.flo"


def test_observation_dir(tmp_path, rng):
    (tmp_path / "landmarks.csv").write_text(CSV, encoding="utf-8")
    img = rng.uniform(0, 1, (4, 4, 3))
    write_ppm(img, tmp_path / frame_image_name(1))
    fwd = rng.normal(0, 1, (4, 4, 2))
    write_flow_pair(fwd, -fwd, tmp_path / frame_flow_name(2))

    obs_dir = ObservationDir(tmp_path)
    # landmark rows reach frame 2; files do not extend past that
    assert len(obs_dir) == 3

    f0 = obs_dir[0]
    np.testing.assert_array_equal(f0.landmark_ids, [0, 3])
    assert f0.image is None and obs_dir.flow(0) is None

    f1 = obs_dir[1]
    assert f1.landmark_ids.size == 0  # no rows for frame 1
    assert f1.image is not None and f1.image.shape == (4, 4, 3)

    assert obs_dir.flow(1) is None  # no pair file ends at frame 1
    pair = obs_dir.flow(2)
    assert pair is not None
    np.testing.assert_allclose(pair[0], fwd, atol=1e-6)
    np.testing.assert_allclose(pair[1], -fwd, atol=1e-6)

    with pytest.raises(IndexError):
        obs_dir[3]


def test_observation_dir_counts_only_the_names_it_loads(tmp_path):
    # 7.ppm and 0000009.flo are not the six-digit names frames are read from,
    # so they add no frames that would never be loaded
    (tmp_path / "landmarks.csv").write_text(CSV, encoding="utf-8")
    for name in ("7.ppm", "0000009.flo", "preview.ppm"):
        (tmp_path / name).write_bytes(b"")
    assert len(ObservationDir(tmp_path)) == 3


def test_observation_dir_flow_ignored_at_frame_zero(tmp_path, rng):
    # a pair file named 000000.flo has no predecessor frame; it is skipped
    fwd = rng.normal(0, 1, (4, 4, 2))
    write_flow_pair(fwd, -fwd, tmp_path / frame_flow_name(0))
    obs_dir = ObservationDir(tmp_path)
    assert len(obs_dir) == 1
    assert obs_dir.flow(0) is None


def test_observation_dir_requires_directory(tmp_path):
    with pytest.raises(DataError):
        ObservationDir(tmp_path / "missing")
