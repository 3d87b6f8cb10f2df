"""Binary PPM (P6) frames and bilinear grid sampling.

read_ppm returns a frame as its (H, W, 3) uint8 bytes, a view over a memory
map of the file that is never converted whole; bilinear_sample scales the
cells it reads into float64 in [0, 1]. write_ppm writes uint8 bytes as they
are and float values in [0, 1] through quantize, the one float-to-byte rule.
Sample positions are (x, y) with pixel centers on integer coordinates; the
valid sampling domain is 0 <= x <= W-1, 0 <= y <= H-1.
"""

from __future__ import annotations

import functools
import mmap
import os

import numpy as np

from .atomicio import write_bytes
from .errors import DataError


def quantize(values) -> np.ndarray:
    """Float values in [0, 1] as uint8 pixel bytes, rounded to 1/255 and clipped."""
    return np.clip(np.rint(np.asarray(values, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(image: np.ndarray, path) -> None:
    """Write an (H, W, 3) frame: uint8 pixels as they are, other values through quantize."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"image must be (H, W, 3), got {img.shape}")
    h, w, _ = img.shape
    data = np.ascontiguousarray(img if img.dtype == np.uint8 else quantize(img))
    write_bytes(path, f"P6\n{w} {h}\n255\n".encode("ascii"), data)


def map_file(path, kind: str) -> mmap.mmap:
    """Read-only memory map of a whole file, for zero-copy array views.

    An array made with np.frombuffer over the map reads only the pages that
    are touched, and it keeps the map open for as long as it lives. Empty
    and unreadable files raise DataError (mmap cannot map an empty file).
    """
    try:
        with open(path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size == 0:
                raise DataError(f"{path}: empty {kind} file")
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise DataError(f"cannot read {kind} {path}: {exc.strerror or exc}")


def read_ppm(path) -> np.ndarray:
    """Pixels of a binary PPM as a read-only (H, W, 3) uint8 view of the file."""
    blob = map_file(path, "image")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed between them
    pos = 0
    tokens = []
    while len(tokens) < 4:
        while pos < len(blob) and blob[pos] in b" \t\r\n":
            pos += 1
        if pos >= len(blob):
            raise DataError(f"{path}: truncated PPM header")
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos] not in b"\r\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and blob[pos] not in b" \t\r\n":
            pos += 1
        tokens.append(blob[start:pos])
    if tokens[0] != b"P6":
        raise DataError(f"{path}: not a binary PPM (magic {tokens[0]!r})")
    try:
        w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise DataError(f"{path}: bad PPM dimensions")
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PPM dimensions {w}x{h}")
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3
    got = max(0, len(blob) - pos)
    if got != need:
        raise DataError(f"{path}: expected {need} pixel bytes, got {got}")
    return np.frombuffer(blob, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3)


@functools.lru_cache(maxsize=16)
def _layout(width: int, height: int):
    """Per-size integer constants of sampling an H x W grid, keyed by the
    grid's shape and each a read-only array: the largest cell origin (x0, y0),
    which is the last full cell, or 0 on a grid one cell wide or tall; the
    strides of x and y in the flattened (H * W, C) grid; and the offsets there
    of the corners (x0, y0), (x0, y1), (x1, y0), (x1, y1) from (x0, y0). On a
    grid one cell wide or tall, every corner that would fall off the grid is
    (x0, y0).
    """
    wide, tall = width > 1, height > 1
    last_cell = np.array([max(width - 2, 0), max(height - 2, 0)])
    strides = np.array([1, width])
    offsets = np.array([[0], [tall * width], [wide], [(wide and tall) * (width + 1)]])
    for a in (last_cell, strides, offsets):
        a.flags.writeable = False
    return last_cell, strides, offsets


def _coordinates_in_bounds(p: np.ndarray, width: int, height: int) -> np.ndarray:
    """Mask of the coordinates of (M, 2) points that lie in the domain."""
    return (p >= 0.0) & (p <= (width - 1.0, height - 1.0))


def in_bounds(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Mask of (x, y) points inside the bilinear-sampling domain (NaN is outside)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return _coordinates_in_bounds(p, width, height).all(axis=1)


class InBounds:
    """The candidate (x, y) points inside the sampling domain of a W x H grid,
    found by one bounds pass (the rule of in_bounds).

    bilinear_sample takes an InBounds of its grid's size without checking the
    points again, so a caller that must drop the points outside pays for one
    bounds pass, not two. index holds the rows of the candidates that are
    inside, and points those rows. When every candidate is inside, the usual
    case, index is None and points is the candidates themselves, unselected:
    they must not change before they are sampled.
    """

    __slots__ = ("size", "index", "points", "count")

    def __init__(self, candidates, width: int, height: int):
        p = np.asarray(candidates, dtype=np.float64).reshape(-1, 2)
        ok = _coordinates_in_bounds(p, width, height)
        self.size = (width, height)
        if np.count_nonzero(ok) == ok.size:
            self.index, self.points, self.count = None, p, len(p)
        else:
            self.index = np.flatnonzero(ok.all(axis=1))
            self.points = p.take(self.index, axis=0)
            self.count = self.index.size


def bilinear_sample(grid: np.ndarray, points, with_grad: bool = False):
    """Bilinear interpolation of an (H, W, C) grid at (M, 2) points.

    Returns float64 values (M, C); with with_grad also the exact in-cell
    derivatives d/dx and d/dy, each (M, C). points is an (M, 2) array, every
    point of which must be in bounds (else DataError), or an InBounds of this
    grid's size, whose points are sampled. Only the four corner cells of each
    point are read and converted to float64, so the grid may be a view over
    a file; a uint8 grid holds image bytes, and its corners are scaled by
    1/255 into [0, 1].
    """
    g = np.asarray(grid)
    h, w = g.shape[0], g.shape[1]
    if not isinstance(points, InBounds):
        points = InBounds(points, w, h)
        if points.index is not None:
            raise DataError("bilinear sample point outside the grid")
    elif points.size != (w, h):
        raise DataError(f"points bounded for a {points.size} grid, sampled on {(w, h)}")
    p = points.points
    last_cell, strides, offsets = _layout(w, h)
    # the points are non-negative here, so truncation is floor
    cell = np.minimum(p.astype(np.int64), last_cell)
    frac = p - cell
    fx, fy = frac[:, :1], frac[:, 1:]
    # one gather of all four corners from the flattened grid, a view of every
    # C-contiguous grid
    corners = g.reshape(h * w, -1).take(cell @ strides + offsets, axis=0)
    if corners.dtype == np.uint8:
        corners = corners / 255.0
    else:
        corners = corners.astype(np.float64)
    # the left corners (g00, g01), and the steps to the right ones, for the
    # top and bottom rows at once
    left = corners[:2]
    across = corners[2:] - left
    top, bot = left + across * fx
    dy = bot - top
    vals = top + dy * fy
    if not with_grad:
        return vals
    return vals, across[0] * (1.0 - fy) + across[1] * fy, dy
