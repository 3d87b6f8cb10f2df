import numpy as np
import pytest

from visemefit import images
from visemefit.errors import DataError
from visemefit.images import InBounds, bilinear_sample, in_bounds, quantize, read_ppm, write_ppm


def test_bilinear_sample_hand_values():
    img = np.zeros((2, 2, 3))
    img[0, 0] = 1.0  # top-left pixel all ones
    # at (x=0.25, y=0.75): weight of pixel (0,0) is 0.75*0.25
    out = bilinear_sample(img, np.array([[0.25, 0.75]]))
    np.testing.assert_allclose(out, [[0.75 * 0.25] * 3])
    # integer coordinates return the pixel exactly
    np.testing.assert_allclose(bilinear_sample(img, np.array([[0.0, 0.0]])), [[1.0] * 3])
    np.testing.assert_allclose(bilinear_sample(img, np.array([[1.0, 1.0]])), [[0.0] * 3])


def test_bilinear_gradient_matches_fd(rng):
    img = rng.uniform(0, 1, (8, 8, 3))
    pts = rng.uniform(1.3, 6.2, (20, 2))
    vals, gx, gy = bilinear_sample(img, pts, with_grad=True)
    h = 1e-6
    vx = bilinear_sample(img, pts + [h, 0.0]) - bilinear_sample(img, pts - [h, 0.0])
    vy = bilinear_sample(img, pts + [0.0, h]) - bilinear_sample(img, pts - [0.0, h])
    np.testing.assert_allclose(gx, vx / (2 * h), atol=1e-6)
    np.testing.assert_allclose(gy, vy / (2 * h), atol=1e-6)
    np.testing.assert_allclose(vals, bilinear_sample(img, pts))


def test_in_bounds_edges():
    ok = in_bounds(np.array([[0.0, 0.0], [7.0, 5.0], [7.001, 5.0], [-0.001, 2.0]]), 8, 6)
    np.testing.assert_array_equal(ok, [True, True, False, False])


def test_ppm_roundtrip_of_quantized_data(rng, tmp_path):
    img = np.round(rng.uniform(0, 1, (5, 7, 3)) * 255) / 255.0
    p = tmp_path / "x.ppm"
    write_ppm(img, p)
    back = read_ppm(p) / 255.0
    np.testing.assert_allclose(back, img, atol=1e-12)


def test_ppm_clips_out_of_range(tmp_path):
    img = np.array([[[1.5, -0.2, 0.5]]])
    p = tmp_path / "c.ppm"
    write_ppm(img, p)
    back = read_ppm(p) / 255.0
    np.testing.assert_allclose(back[0, 0], [1.0, 0.0, 0.5], atol=1e-2)


def test_ppm_writes_uint8_pixels_as_they_are(rng, tmp_path):
    pixels = rng.integers(0, 256, (4, 6, 3), dtype=np.uint8)
    p = tmp_path / "u.ppm"
    for image in (pixels, pixels[:, ::-1]):  # a strided array is made contiguous
        write_ppm(image, p)
        assert p.read_bytes() == b"P6\n6 4\n255\n" + np.ascontiguousarray(image).tobytes()
    # a float frame is turned into the same bytes by quantize
    write_ppm(pixels / 255.0, p)
    np.testing.assert_array_equal(read_ppm(p), pixels)
    np.testing.assert_array_equal(quantize([[-0.5, 0.0, 0.5 / 255, 1.0, 7.0]]), [[0, 0, 0, 255, 255]])


def test_read_ppm_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")  # ascii ppm is not supported
    with pytest.raises(DataError):
        read_ppm(p)
    p.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")  # truncated payload
    with pytest.raises(DataError):
        read_ppm(p)


def test_read_ppm_is_a_uint8_view(rng, tmp_path):
    img = rng.uniform(0, 1, (5, 7, 3))
    p = tmp_path / "v.ppm"
    write_ppm(img, p)
    back = read_ppm(p)
    assert back.dtype == np.uint8 and back.shape == (5, 7, 3)
    assert not back.flags.writeable  # a view of the file, not a copy
    np.testing.assert_array_equal(back, np.clip(np.rint(img * 255.0), 0, 255))


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"P6\n2 2\n",
        b"P6\n2 2\n255\n" + bytes(13),
        b"P6\n0 2\n255\n",
    ],
    ids=["empty", "truncated-header", "oversized", "zero-width"],
)
def test_read_ppm_rejects_bad_sizes(tmp_path, blob):
    p = tmp_path / "bad.ppm"
    p.write_bytes(blob)
    with pytest.raises(DataError):
        read_ppm(p)


def _reference_bilinear(grid, points):
    """The sampler written plainly: whole grid to float64 (uint8 scaled by
    1/255), floor, and four separate corner reads."""
    g = grid / 255.0 if grid.dtype == np.uint8 else grid.astype(np.float64)
    h, w = g.shape[:2]
    x0 = np.minimum(np.floor(points[:, 0]).astype(np.int64), w - 2) if w > 1 else np.zeros(len(points), np.int64)
    y0 = np.minimum(np.floor(points[:, 1]).astype(np.int64), h - 2) if h > 1 else np.zeros(len(points), np.int64)
    fx = (points[:, 0] - x0)[:, None]
    fy = (points[:, 1] - y0)[:, None]
    g00 = g[y0, x0]
    g10 = g[y0, x0 + 1] if w > 1 else g00
    g01 = g[y0 + 1, x0] if h > 1 else g00
    g11 = g[y0 + 1, x0 + 1] if w > 1 and h > 1 else g00
    top = g00 + (g10 - g00) * fx
    bot = g01 + (g11 - g01) * fx
    return top + (bot - top) * fy, (g10 - g00) * (1.0 - fy) + (g11 - g01) * fy, bot - top


def _sample_points(rng, h, w):
    inside = rng.uniform(0, 1, (300, 2)) * [w - 1, h - 1]
    corners = np.array([[0.0, 0.0], [w - 1, 0.0], [0.0, h - 1], [w - 1, h - 1]], dtype=np.float64)
    return np.concatenate([inside, corners, np.floor(inside[:20])])


@pytest.mark.parametrize("shape", [(9, 11), (1, 5), (5, 1), (1, 1)])
@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_bilinear_sample_equals_whole_grid_conversion(rng, shape, dtype):
    # values and both gradients equal, bit for bit, those of the whole grid
    # converted to float64 (a uint8 grid divided by 255.0) and sampled plainly
    if dtype is np.uint8:
        grid = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
        converted = grid / 255.0
    else:
        grid = rng.normal(0.0, 3.0, (*shape, 2)).astype(dtype)
        converted = grid.astype(np.float64)
    pts = _sample_points(rng, *shape)
    got = bilinear_sample(grid, pts, with_grad=True)
    for a, b, c in zip(got, bilinear_sample(converted, pts, with_grad=True), _reference_bilinear(grid, pts)):
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
    np.testing.assert_array_equal(bilinear_sample(grid, pts), got[0])


def test_bilinear_sample_keeps_its_bounds_check():
    grid = np.zeros((4, 4, 3), dtype=np.uint8)
    for bad in ([-0.001, 1.0], [3.001, 1.0], [1.0, -0.5], [1.0, 3.5], [np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(DataError):
            bilinear_sample(grid, np.array([bad]))


@pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
def test_bilinear_sample_on_strided_grids_equals_contiguous_copies(rng, dtype):
    # the corners are gathered from a flattened view of the grid; a strided
    # grid is flattened by a copy, and samples as its contiguous copy does
    if dtype is np.uint8:
        base = rng.integers(0, 256, (9, 11, 3), dtype=np.uint8)
    else:
        base = rng.normal(0.0, 3.0, (9, 11, 2)).astype(dtype)
    for view in (base[:, ::-1], base.transpose(1, 0, 2)):
        assert not view.flags.c_contiguous
        pts = _sample_points(rng, *view.shape[:2])
        got = bilinear_sample(view, pts, with_grad=True)
        for a, b in zip(got, bilinear_sample(np.ascontiguousarray(view), pts, with_grad=True)):
            np.testing.assert_array_equal(a, b)


def test_bilinear_sample_takes_in_bounds_points_of_its_grid_size(rng):
    grid = rng.uniform(0.0, 1.0, (6, 8, 3))
    pts = np.array([[1.5, 2.5], [-1.0, 2.0], [7.0, 5.0], [np.nan, 1.0], [7.5, 1.0], [0.0, 0.0]])
    inside = InBounds(pts, 8, 6)
    np.testing.assert_array_equal(inside.index, [0, 2, 5])
    assert inside.count == 3
    np.testing.assert_array_equal(bilinear_sample(grid, inside), bilinear_sample(grid, pts[[0, 2, 5]]))
    every = InBounds(pts[[0, 2, 5]], 8, 6)
    assert every.index is None and every.count == 3


def test_bounds_with_float_sizes_leave_sampling_alone(rng):
    # the bounds rule takes sizes as numbers; sampling's integer constants
    # are keyed by the grid's shape and must not pick up a float size
    images._layout.cache_clear()
    grid = rng.uniform(0.0, 1.0, (6, 8, 3))
    pts = np.array([[1.5, 2.5], [7.0, 5.0], [0.0, 0.0]])
    assert in_bounds(pts, 8.0, 6.0).all()
    assert InBounds(pts, 8.0, 6.0).index is None
    np.testing.assert_array_equal(bilinear_sample(grid, pts), _reference_bilinear(grid, pts)[0])
