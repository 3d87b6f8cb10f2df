import numpy as np
import pytest

from visemefit.adam import AdamState, adam_step, learning_rate
from visemefit.errors import NumericError


def test_first_step_is_lr_times_sign():
    # with bias correction, m_hat/sqrt(v_hat) is g/|g| on step one
    state = AdamState.zeros(3)
    x = np.array([1.0, -2.0, 0.5])
    g = np.array([10.0, -0.003, 4.0])
    out = adam_step(state, x, g, lr=0.1)
    np.testing.assert_allclose(out, x - 0.1 * np.sign(g), atol=1e-6)


def test_quadratic_converges():
    state = AdamState.zeros(1)
    x = np.array([5.0])
    for i in range(400):
        out = adam_step(state, x, 2 * (x - 3.0), learning_rate(i, 0.1, 10, 0.9))
        x = out
    assert abs(x[0] - 3.0) < 0.01


def test_learning_rate_schedule_table():
    assert learning_rate(0, 0.1, 10, 0.9) == 0.1
    assert learning_rate(9, 0.1, 10, 0.9) == 0.1
    assert learning_rate(10, 0.1, 10, 0.9) == pytest.approx(0.09)
    assert learning_rate(25, 0.1, 10, 0.9) == pytest.approx(0.1 * 0.9**2)


def test_rejects_non_finite_gradient():
    state = AdamState.zeros(2)
    with pytest.raises(NumericError):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]), lr=0.1)


def test_state_tracks_steps():
    state = AdamState.zeros(1)
    x = np.zeros(1)
    for _ in range(5):
        x = adam_step(state, x, np.ones(1), 0.01)
    assert state.step == 5
