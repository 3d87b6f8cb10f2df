import math

import numpy as np
import pytest

from visemefit.curves import Curve, parse_curve, read_curve, resample_curve, serialize_curve, write_curve
from visemefit.errors import DataError

LABELS = ("MBP", "SSS", "WWW")


def make_curve(rng, n=7, fps=30.0):
    return Curve(fps=fps, labels=LABELS, weights=rng.uniform(0, 1, (n, len(LABELS))))


def test_validation():
    with pytest.raises(DataError):
        Curve(fps=0.0, labels=LABELS, weights=np.zeros((2, 3)))
    with pytest.raises(DataError):
        Curve(fps=30.0, labels=LABELS, weights=np.zeros((2, 2)))
    with pytest.raises(DataError):
        Curve(fps=30.0, labels=LABELS, weights=np.full((2, 3), np.nan))
    with pytest.raises(DataError, match="^repeated viseme label 'MBP'$"):
        Curve(fps=30.0, labels=("MBP", "SSS", "MBP"), weights=np.zeros((2, 3)))


def test_weights_for_binds_columns_by_label(rng):
    c = make_curve(rng, n=4)
    np.testing.assert_array_equal(c.weights_for(LABELS), c.weights)
    # any order, any subset; unnamed columns are ignored
    np.testing.assert_array_equal(c.weights_for(("WWW", "MBP")), c.weights[:, [2, 0]])
    w = c.weights_for(("SSS",))
    assert w.shape == (4, 1) and w.dtype == np.float64
    with pytest.raises(DataError, match=r"curve is missing viseme columns \['V04'\]"):
        c.weights_for(("MBP", "V04"))


def test_blocks_bind_like_weights_for(rng):
    c = make_curve(rng, n=130)
    labels = ("WWW", "MBP")
    blocks = list(c.blocks(labels))
    assert [start for start, _ in blocks] == [0, 64, 128]
    assert all(b.labels == labels and b.fps == c.fps for _, b in blocks)
    np.testing.assert_array_equal(np.concatenate([b.weights for _, b in blocks]),
                                  c.weights_for(labels))
    assert list(make_curve(rng, n=0).blocks(labels)) == []
    # a missing column raises when the blocks are asked for, not when the
    # first one is made
    with pytest.raises(DataError, match=r"curve is missing viseme columns \['V04'\]"):
        make_curve(rng, n=0).blocks(("MBP", "V04"))


def test_serialize_header_and_rows(rng):
    c = make_curve(rng, n=2)
    text = serialize_curve(c)
    lines = text.splitlines()
    assert lines[0] == "# fps=30.0"
    assert lines[1] == "frame,MBP,SSS,WWW"
    assert lines[2].startswith("0,")
    assert len(lines) == 4


def test_parse_serialize_fixed_point(rng, tmp_path):
    # values are written at 6 decimals; one pass quantizes, after which
    # serialize/parse is the identity
    c = make_curve(rng)
    q = parse_curve(serialize_curve(c))
    np.testing.assert_allclose(q.weights, c.weights, atol=5e-7)
    assert serialize_curve(parse_curve(serialize_curve(q))) == serialize_curve(q)
    p = tmp_path / "c.csv"
    write_curve(q, p)
    np.testing.assert_array_equal(read_curve(p).weights, q.weights)
    assert read_curve(p).fps == q.fps


def test_parse_rejects_malformed():
    good = "# fps=30.0\nframe,A\n0,0.5\n"
    assert parse_curve(good).weights[0, 0] == 0.5
    for bad in (
        "frame,A\n0,0.5\n",  # missing fps header
        "# fps=30.0\nframe,A\n1,0.5\n",  # frames must start at 0
        "# fps=30.0\nframe,A\n0,0.5\n2,0.5\n",  # gap
        "# fps=30.0\nframe,A\n0,x\n",  # non-numeric
        "# fps=30.0\nframe,A\n0,0.5,0.7\n",  # extra column
        "# fps=30.0\nframe,A,A\n0,0.5,0.7\n",  # repeated label
    ):
        with pytest.raises(DataError):
            parse_curve(bad)


def test_resample_identity_and_integer_ratio(rng):
    c = make_curve(rng, n=10, fps=30.0)
    same = resample_curve(c, 30.0)
    np.testing.assert_array_equal(same.weights, c.weights)
    up = resample_curve(c, 60.0)
    assert up.frame_count == 20
    # common instants coincide: output frame 2k samples t = k/30
    np.testing.assert_allclose(up.weights[::2], c.weights, atol=1e-12)
    # odd frames are midpoints of their neighbors (linear interpolation)
    mids = 0.5 * (c.weights[:-1] + c.weights[1:])
    np.testing.assert_allclose(up.weights[1:-1:2], mids, atol=1e-12)


def test_resample_downsample_length():
    c = Curve(fps=60.0, labels=("A",), weights=np.linspace(0, 1, 12).reshape(-1, 1))
    down = resample_curve(c, 30.0)
    assert down.frame_count == 6
    np.testing.assert_allclose(down.weights[:, 0], c.weights[::2, 0], atol=1e-12)


def test_resample_clamps_past_the_end():
    c = Curve(fps=10.0, labels=("A",), weights=np.array([[0.0], [1.0]]))
    up = resample_curve(c, 45.0)
    assert up.frame_count == 9
    assert up.weights[-1, 0] == 1.0  # held at the last key, not extrapolated


def test_resample_rejects_bad_fps(rng):
    # timeline.check_fps is the one fps rule, message included
    for fps in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DataError, match=f"^fps must be positive and finite, got {fps}$"):
            resample_curve(make_curve(rng), fps)
