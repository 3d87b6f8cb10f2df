"""Binary PPM (P6) frames and bilinear grid sampling.

read_ppm returns a frame as its (H, W, 3) uint8 bytes, a view over a memory
map of the file that is never converted whole; bilinear_sample scales the
cells it reads into float64 in [0, 1]. write_ppm takes float values in
[0, 1]. Sample positions are (x, y) with pixel centers on integer
coordinates; the valid sampling domain is 0 <= x <= W-1, 0 <= y <= H-1.
"""

from __future__ import annotations

import mmap
import os

import numpy as np

from .errors import DataError


def write_ppm(image: np.ndarray, path) -> None:
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DataError(f"image must be (H, W, 3), got {img.shape}")
    h, w, _ = img.shape
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    from .atomicio import atomic_path

    with atomic_path(path) as tmp:
        with open(tmp, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(data.tobytes())


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


def in_bounds(points: np.ndarray, width: int, height: int) -> np.ndarray:
    """Mask of (x, y) points inside the bilinear-sampling domain."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return (
        (p[:, 0] >= 0.0)
        & (p[:, 0] <= width - 1.0)
        & (p[:, 1] >= 0.0)
        & (p[:, 1] <= height - 1.0)
    )


# (row, column) offsets of the corners (x0, y0), (x1, y0), (x0, y1), (x1, y1),
# keyed by (width > 1, height > 1); on a grid one cell wide or tall, every
# corner that would fall off the grid is (x0, y0)
_CORNER_OFFSETS = {
    (wide, tall): (
        np.array([[0], [0], [tall], [wide and tall]]),
        np.array([[0], [wide], [0], [wide and tall]]),
    )
    for wide in (False, True)
    for tall in (False, True)
}


def bilinear_sample(grid: np.ndarray, points: np.ndarray, with_grad: bool = False):
    """Bilinear interpolation of an (H, W, C) grid at (M, 2) points.

    Returns float64 values (M, C); with with_grad also the exact in-cell
    derivatives d/dx and d/dy, each (M, C). Points must be in bounds (see
    in_bounds); callers filter first. Only the four corner cells of each
    point are read and converted to float64, so the grid may be a view over
    a file; a uint8 grid holds image bytes, and its corners are scaled by
    1/255 into [0, 1].
    """
    g = np.asarray(grid)
    h, w = g.shape[0], g.shape[1]
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px, py = p[:, 0], p[:, 1]
    if p.size and (px.min() < 0 or px.max() > w - 1 or py.min() < 0 or py.max() > h - 1):
        raise DataError("bilinear sample point outside the grid")
    # the points are non-negative here, so truncation is floor
    x0 = np.minimum(px.astype(np.int64), max(w - 2, 0))
    y0 = np.minimum(py.astype(np.int64), max(h - 2, 0))
    fx = (px - x0)[:, None]
    fy = (py - y0)[:, None]
    row_offsets, col_offsets = _CORNER_OFFSETS[w > 1, h > 1]
    corners = g[y0 + row_offsets, x0 + col_offsets]  # one gather of all four corners
    if corners.dtype == np.uint8:
        corners = corners / 255.0
    else:
        corners = corners.astype(np.float64)
    g00, g10, g01, g11 = corners
    top = g00 + (g10 - g00) * fx
    bot = g01 + (g11 - g01) * fx
    vals = top + (bot - top) * fy
    if not with_grad:
        return vals
    dx = (g10 - g00) * (1.0 - fy) + (g11 - g01) * fy
    dy = bot - top
    return vals, dx, dy
