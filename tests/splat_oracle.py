"""The dense Gaussian splat, as an independent oracle.

synthetic._splat computes only the pixels some window covers; the tests
compare its bytes against this plain version, which accumulates every point
into full-size float64 grids and divides them at the end.
"""

import math

import numpy as np


def splat(points, values, size, sigma, window, bg_value, bg_weight):
    """Normalized Gaussian splat of per-point values onto a square grid."""
    channels = values.shape[1]
    acc = np.empty((size, size, channels))
    acc[:] = np.asarray(bg_value, dtype=np.float64) * bg_weight
    wsum = np.full((size, size), bg_weight)
    inv = 1.0 / (2.0 * sigma * sigma)
    for (px, py), val in zip(points, values):
        x0 = max(0, int(math.ceil(px - window)))
        x1 = min(size - 1, int(math.floor(px + window)))
        y0 = max(0, int(math.ceil(py - window)))
        y1 = min(size - 1, int(math.floor(py + window)))
        if x0 > x1 or y0 > y1:
            continue
        xs = np.arange(x0, x1 + 1) - px
        ys = np.arange(y0, y1 + 1) - py
        w = np.exp(-(xs[None, :] ** 2 + ys[:, None] ** 2) * inv)
        acc[y0 : y1 + 1, x0 : x1 + 1] += w[:, :, None] * val
        wsum[y0 : y1 + 1, x0 : x1 + 1] += w
    return acc / wsum[:, :, None]
