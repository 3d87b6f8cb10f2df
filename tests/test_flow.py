import os
import re

import numpy as np
import pytest

from visemefit.errors import DataError
from visemefit.flow import read_flow_pair, screen_flow, write_flow_pair
from visemefit.images import bilinear_sample, in_bounds


def test_flow_file_roundtrip_exact(rng, tmp_path):
    fwd = rng.normal(0, 3, (6, 9, 2)).astype(np.float64)
    bwd = rng.normal(0, 3, (6, 9, 2)).astype(np.float64)
    p = tmp_path / "f.flo"
    write_flow_pair(fwd, bwd, p)
    f2, b2 = read_flow_pair(p)
    # storage is float32; quantize once and the trip is exact
    np.testing.assert_array_equal(f2, fwd.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(b2, bwd.astype(np.float32).astype(np.float64))
    write_flow_pair(f2, b2, p)
    f3, b3 = read_flow_pair(p)
    np.testing.assert_array_equal(f3, f2)
    np.testing.assert_array_equal(b3, b2)


def test_flow_file_rejects_corrupt(tmp_path):
    p = tmp_path / "bad.flo"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        read_flow_pair(p)
    p.write_bytes(b"FLO1" + b"\x00" * 7)  # header cut short
    with pytest.raises(DataError):
        read_flow_pair(p)


def test_screen_flow_consistency_filter():
    h, w = 8, 8
    fwd = np.zeros((h, w, 2))
    bwd = np.zeros((h, w, 2))
    fwd[:, :, 0] = 2.0  # everything moves +2 px in x
    bwd[:, :, 0] = -2.0  # and the backward field agrees
    pts = np.array([[1.0, 1.0], [3.0, 4.0]])
    idx, targets = screen_flow(fwd, bwd, pts, tau=1.0)
    np.testing.assert_array_equal(idx, [0, 1])
    # the targets are the candidates advected by the forward flow
    np.testing.assert_array_equal(targets, [[3.0, 1.0], [5.0, 4.0]])

    bwd[:, :, 0] = -0.5  # now the round trip misses by 1.5 px > tau
    idx, targets = screen_flow(fwd, bwd, pts, tau=1.0)
    assert idx.size == 0 and targets.shape == (0, 2)


def test_screen_flow_targets_are_advected_survivors(rng):
    """On a smooth field that drops candidates at all three checks (a start
    outside the grid, an end outside it, a round trip that misses), the
    targets are each survivor p advected to p + forward(p), bit for bit."""
    h, w = 24, 32
    ys, xs = np.mgrid[0:h, 0:w]
    fwd = np.stack([2.5 + np.sin(xs / 5.0), 1.5 * np.cos(ys / 4.0)], axis=-1)
    bwd = -fwd
    bwd[: h // 3] += 3.0  # a round trip that ends in the top rows misses
    pts = rng.uniform(-2.0, (w + 1.0, h + 1.0), (300, 2))
    idx, targets = screen_flow(fwd, bwd, pts, tau=1.0)
    inside = np.flatnonzero(in_bounds(pts, w, h))
    landed = inside[in_bounds(pts[inside] + bilinear_sample(fwd, pts[inside]), w, h)]
    assert 0 < idx.size < landed.size < inside.size < len(pts)
    assert np.isin(idx, landed).all()
    np.testing.assert_array_equal(targets, pts[idx] + bilinear_sample(fwd, pts[idx]))


def test_screen_flow_drops_out_of_bounds_targets():
    fwd = np.zeros((6, 6, 2))
    bwd = np.zeros((6, 6, 2))
    fwd[:, :, 0] = 4.0
    bwd[:, :, 0] = -4.0
    # candidate at x=3 lands at 7, outside a 6-wide grid
    idx, _ = screen_flow(fwd, bwd, np.array([[3.0, 2.0], [1.0, 2.0]]), tau=1.0)
    np.testing.assert_array_equal(idx, [1])


def test_screen_flow_drops_candidates_outside_grid():
    fwd = np.zeros((6, 6, 2))
    bwd = np.zeros((6, 6, 2))
    idx, _ = screen_flow(fwd, bwd, np.array([[-1.0, 0.0], [2.0, 2.0]]), tau=0.5)
    np.testing.assert_array_equal(idx, [1])


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"FLO1" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(95),
        b"FLO1" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + bytes(97),
    ],
    ids=["empty", "truncated", "oversized"],
)
def test_flow_file_rejects_bad_sizes(tmp_path, blob):
    p = tmp_path / "bad.flo"
    p.write_bytes(blob)
    with pytest.raises(DataError):
        read_flow_pair(p)


def _counting_preads(monkeypatch):
    """Replace os.pread, the reader's one read primitive, with a recorder of
    (offset, bytes returned) per call."""
    calls = []
    pread = os.pread

    def counting(fd, n, offset):
        data = pread(fd, n, offset)
        calls.append((offset, len(data)))
        return data

    monkeypatch.setattr(os, "pread", counting)
    return calls


def test_read_flow_pair_returns_float32_views(rng, tmp_path, monkeypatch):
    fwd, bwd = rng.normal(0, 1, (3, 4, 2)), rng.normal(0, 1, (3, 4, 2))
    p = tmp_path / "f.flo"
    write_flow_pair(fwd, bwd, p)
    reads = _counting_preads(monkeypatch)
    pair = read_flow_pair(p)
    assert reads == []  # the header is checked, the grids are left in the file
    for grid, written in zip(pair, (fwd, bwd)):
        assert grid.dtype == np.float32 and grid.ndim == 3 and grid.shape == (3, 4, 2)
        np.testing.assert_array_equal(np.asarray(grid), written.astype(np.float32))
    assert len(reads) == 2


def test_screen_flow_on_float32_views_equals_float64_copies(rng, tmp_path):
    fwd = rng.normal(0, 2, (16, 20, 2))
    bwd = -fwd + rng.normal(0, 0.4, fwd.shape)
    p = tmp_path / "f.flo"
    write_flow_pair(fwd, bwd, p)
    f32, b32 = read_flow_pair(p)
    pts = rng.uniform(-2.0, 21.0, (400, 2))
    idx, targets = screen_flow(f32, b32, pts, tau=0.5)
    idx64, targets64 = screen_flow(
        np.asarray(f32).astype(np.float64), np.asarray(b32).astype(np.float64), pts, tau=0.5
    )
    assert 0 < idx.size < len(pts)
    np.testing.assert_array_equal(idx, idx64)
    np.testing.assert_array_equal(targets, targets64)


def test_screening_a_large_pair_reads_only_the_sampled_corners(rng, tmp_path, monkeypatch):
    """Each of the two sampling passes reads at most four 8-byte cells per
    point from the grid blocks, however large the file."""
    h = w = 1024
    ys, xs = np.mgrid[0:h, 0:w]
    fwd = np.stack([1.5 + np.sin(xs / 50.0), np.cos(ys / 40.0)], axis=-1)
    p = tmp_path / "f.flo"
    write_flow_pair(fwd, -fwd, p)
    pts = rng.uniform(0.0, 1000.0, (64, 2))
    reads = _counting_preads(monkeypatch)
    idx, targets = screen_flow(*read_flow_pair(p), pts, tau=0.5)
    assert idx.size == len(pts)  # both passes sample every point
    grid_bytes = sum(n for offset, n in reads if offset >= 12)
    assert 0 < grid_bytes <= 2 * 64 * 4 * 8
    np.testing.assert_array_equal(targets, pts + bilinear_sample(fwd.astype(np.float32), pts))


@pytest.mark.parametrize("h, w", [(5, 7), (1, 6), (6, 1), (1, 1)])
@pytest.mark.parametrize("with_grad", [False, True])
def test_bilinear_sample_on_a_file_grid_equals_its_float64_copy(rng, tmp_path, h, w, with_grad):
    """Bit for bit, on every cell including the last one and on grids one
    cell wide or tall, where corners fall back onto the cell origin."""
    p = tmp_path / "f.flo"
    write_flow_pair(rng.normal(0, 2, (h, w, 2)), rng.normal(0, 2, (h, w, 2)), p)
    ys, xs = np.mgrid[0:h, 0:w]
    corners = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
    pts = np.vstack([corners, rng.uniform(0.0, (w - 1.0, h - 1.0), (50, 2))])
    for grid in read_flow_pair(p):
        got = bilinear_sample(grid, pts, with_grad=with_grad)
        want = bilinear_sample(np.asarray(grid).astype(np.float64), pts, with_grad=with_grad)
        for a, b in zip(*((got, want) if with_grad else ((got,), (want,)))):
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_flow_file_cut_short_after_it_was_read_fails_when_sampled(rng, tmp_path):
    p = tmp_path / "f.flo"
    write_flow_pair(rng.normal(0, 1, (4, 5, 2)), rng.normal(0, 1, (4, 5, 2)), p)
    fwd, bwd = read_flow_pair(p)
    with open(p, "r+b") as fh:
        fh.truncate(12 + 4 * 5 * 2 * 4 + 8)  # the forward block and one backward cell
    assert np.isfinite(bilinear_sample(fwd, np.array([[4.0, 3.0]]))).all()
    with pytest.raises(DataError, match=f"{re.escape(str(p))}: file ends inside its grid"):
        bilinear_sample(bwd, np.array([[4.0, 3.0]]))
    with pytest.raises(DataError, match=re.escape(str(p))):
        np.asarray(bwd)
