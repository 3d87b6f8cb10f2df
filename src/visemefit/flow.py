"""Optical-flow pair files and forward-backward screening.

A flow file stores the forward and backward displacement grids for one frame
pair (previous -> current): the magic ``FLO1``, little-endian uint32 width and
height, then two H*W*2 little-endian float32 blocks (x and y displacement,
row-major), forward first. Grid coordinates are image pixel coordinates.
read_flow_pair checks the header and size and returns the two blocks as
FileGrids, still in the file: screening samples a pair twice, at a few
points, so it preads the corner cells of those points and never reads a grid
whole.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .atomicio import write_bytes
from .errors import DataError, file_access, located
from .images import FileGrid, InBounds, bilinear_sample

MAGIC = b"FLO1"


def flow_cells(values) -> np.ndarray:
    """Displacements as the little-endian float32 cells of a flow file."""
    return np.asarray(values, dtype="<f4")


def write_flow_pair(forward: np.ndarray, backward: np.ndarray, path) -> None:
    """Write (H, W, 2) forward and backward grids; C-contiguous flow cells go out uncopied."""
    fwd = np.ascontiguousarray(flow_cells(forward))
    bwd = np.ascontiguousarray(flow_cells(backward))
    if fwd.ndim != 3 or fwd.shape[2] != 2:
        raise DataError(f"flow grid must be (H, W, 2), got {fwd.shape}")
    if fwd.shape != bwd.shape:
        raise DataError(f"forward {fwd.shape} and backward {bwd.shape} grids differ")
    h, w, _ = fwd.shape
    write_bytes(path, MAGIC, struct.pack("<II", w, h), fwd, bwd)


def read_flow_pair(path) -> tuple[FileGrid, FileGrid]:
    """Forward and backward (H, W, 2) float32 grids of a flow file, checked
    against its header and size but not read."""
    with file_access("read flow", path), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
    with located(path):
        if size == 0:
            raise DataError("empty flow file")
        if head[:4] != MAGIC:
            raise DataError(f"bad flow magic {head[:4]!r}")
        if len(head) < 12:
            raise DataError("truncated flow header")
        w, h = struct.unpack("<II", head[4:12])
        block = h * w * 2 * 4
        if size != 12 + 2 * block:
            raise DataError(f"expected {12 + 2 * block} bytes for {w}x{h} grids, got {size}")
    return FileGrid(path, 12, (h, w, 2)), FileGrid(path, 12 + block, (h, w, 2))


def screen_flow(
    forward: np.ndarray | FileGrid,
    backward: np.ndarray | FileGrid,
    prev_points: np.ndarray,
    tau: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-backward consistency screening.

    prev_points are candidate pixel positions in the previous frame (typically
    projected rig vertices). For each candidate p the forward displacement u is
    sampled at p; the correspondence survives if p + u stays in bounds and
    ``|u + backward(p + u)| < tau``. Returns (indices into prev_points,
    advected points p + u) for the survivors: the current frame's flow
    targets. forward and backward share an (H, W, 2) shape, as
    read_flow_pair returns them, and tau > 0, as FitConfig makes it. A
    non-finite value in a cell that is sampled raises DataError; cells that
    are not sampled are not checked.
    """
    h, w = np.shape(forward)[:2]
    # one bounds pass for each point set that is sampled
    starts = InBounds(prev_points, w, h)
    idx = np.arange(starts.count) if starts.index is None else starts.index
    u = _sample_finite(forward, starts, "forward")
    ends = InBounds(starts.points + u, w, h)
    if ends.index is not None:
        idx, u = idx[ends.index], u[ends.index]
    back = _sample_finite(backward, ends, "backward")
    keep = np.linalg.norm(u + back, axis=1) < tau
    return idx[keep], ends.points[keep]


def _sample_finite(grid: np.ndarray | FileGrid, points: InBounds, which: str) -> np.ndarray:
    # a nan or inf corner makes every value it touches non-finite (inf - inf
    # is nan), so checking the values checks the cells that were read
    with np.errstate(invalid="ignore"):
        values = bilinear_sample(grid, points)
    if not np.isfinite(values).all():
        raise DataError(f"{which} flow holds a non-finite value at a sampled cell")
    return values
