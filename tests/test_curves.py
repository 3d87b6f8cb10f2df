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


def _bound(curve, labels):
    """Every row Curve.blocks binds, joined into one (frames, len(labels)) array."""
    return np.concatenate([w for _, w in curve.blocks(labels)])


def test_blocks_bind_columns_by_label(rng):
    c = make_curve(rng, n=4)
    np.testing.assert_array_equal(_bound(c, LABELS), c.weights)
    # any order, any subset; unnamed columns are ignored
    np.testing.assert_array_equal(_bound(c, ("WWW", "MBP")), c.weights[:, [2, 0]])
    w = _bound(c, ("SSS",))
    assert w.shape == (4, 1) and w.dtype == np.float64
    with pytest.raises(DataError, match=r"curve is missing viseme columns \['V04'\]"):
        c.blocks(("MBP", "V04"))


def test_blocks_split_the_bound_rows_into_frame_blocks(rng):
    c = make_curve(rng, n=130)
    labels = ("WWW", "MBP")
    blocks = list(c.blocks(labels))
    assert [start for start, _ in blocks] == [0, 64, 128]
    assert [w.shape for _, w in blocks] == [(64, 2), (64, 2), (2, 2)]
    np.testing.assert_array_equal(_bound(c, labels), c.weights[:, [2, 0]])
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
    # frame centres: output 2k + 1 sits a quarter of the way from input k to
    # k + 1, output 2k + 2 three quarters (linear interpolation)
    w = c.weights
    np.testing.assert_allclose(up.weights[1:-1:2], 0.75 * w[:-1] + 0.25 * w[1:], atol=1e-12)
    np.testing.assert_allclose(up.weights[2:-1:2], 0.25 * w[:-1] + 0.75 * w[1:], atol=1e-12)
    # the first and last output centres lie outside the input's: held ends
    np.testing.assert_array_equal(up.weights[[0, -1]], w[[0, -1]])


@pytest.mark.parametrize("fps", [24.0, 29.97, 30.0, 60.0])
def test_resample_at_the_same_rate_keeps_every_byte(rng, fps):
    # the samples are interpolated at their own times, so each comes back as
    # it was, -0.0 included, which assert_array_equal does not tell from 0.0
    w = rng.uniform(0, 1, (301, len(LABELS)))
    w[::7, 1] = -0.0
    c = Curve(fps=fps, labels=LABELS, weights=w)
    assert serialize_curve(resample_curve(c, fps)) == serialize_curve(c)
    assert "-0.0" in serialize_curve(c)


def test_resample_downsample_length():
    c = Curve(fps=60.0, labels=("A",), weights=np.linspace(0, 1, 12).reshape(-1, 1))
    down = resample_curve(c, 30.0)
    assert down.frame_count == 6
    # each output centre is midway between a pair of input centres
    np.testing.assert_allclose(down.weights[:, 0], 0.5 * (c.weights[::2, 0] + c.weights[1::2, 0]), atol=1e-12)


def test_resample_clamps_past_the_end():
    c = Curve(fps=10.0, labels=("A",), weights=np.array([[0.0], [1.0]]))
    up = resample_curve(c, 45.0)
    assert up.frame_count == 9
    assert up.weights[-1, 0] == 1.0  # held at the last key, not extrapolated


def test_resample_of_a_nonempty_curve_keeps_a_frame():
    # 2 frames at 1e300 fps last 2e-300 s, under one frame at 1e-300 fps
    c = Curve(fps=1e300, labels=("A",), weights=np.array([[0.5], [1.0]]))
    assert resample_curve(c, 1e-300).weights.tolist() == [[1.0]]


def test_resample_rejects_bad_fps(rng):
    # timeline.check_fps is the one fps rule, message included
    for fps in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DataError, match=f"^fps must be positive and finite, got {fps}$"):
            resample_curve(make_curve(rng), fps)
