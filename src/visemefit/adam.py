"""Adam with bias correction and a stepped exponential learning-rate decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One Adam update of state (in place); returns the updated parameters as
    a new array, leaving params unchanged."""
    g = np.asarray(grad, dtype=np.float64)
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient in optimizer step")
    state.step += 1
    # in place, with the rounding of m = BETA1 * m + (1 - BETA1) * g
    state.m *= BETA1
    state.m += (1.0 - BETA1) * g
    state.v *= BETA2
    state.v += (1.0 - BETA2) * g * g
    m_hat = state.m / (1.0 - BETA1 ** state.step)
    v_hat = state.v / (1.0 - BETA2 ** state.step)
    return params - lr * m_hat / (np.sqrt(v_hat) + EPS)


def learning_rate(iteration: int, lr0: float, decay_every: int, decay_factor: float) -> float:
    """lr for a 0-based iteration index: lr0 * decay_factor ** (i // decay_every),
    with decay_every at least 1, as FitConfig makes it."""
    return lr0 * decay_factor ** (iteration // decay_every)
