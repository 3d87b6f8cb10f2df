"""The one ownership rule for the arrays of the frozen value types."""

from __future__ import annotations

import numpy as np


def frozen_array(x, dtype, shape=None) -> np.ndarray:
    """x as a C-contiguous, read-only array of dtype (and of shape, when
    given, which may hold one -1) that shares memory with no writeable array.

    An array that already is one (of dtype and shape, read-only and owning
    its data) is kept, so a value built from another value's array shares
    it; anything else is copied, so the caller's array stays writeable and
    later writes to it change no value.
    """
    a = np.asarray(x, dtype=dtype)
    if shape is not None and a.reshape(shape).shape != a.shape:
        a = a.reshape(shape)
    f = a.flags
    if f.writeable or not f.owndata or not f.c_contiguous:
        a = np.array(a, order="C")
        a.setflags(write=False)
    return a
