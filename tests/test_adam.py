"""Adam optimizer contract tests."""

import numpy as np
import pytest

from gmvlab.errors import InputError
from gmvlab.ndmath import AdamState, adam_step
from gmvlab.ndmath.adam import EPS


def test_zero_gradient_leaves_params_unchanged():
    theta = np.array([1.0, -2.0, 3.0])
    before = theta.copy()
    state = AdamState(lr=1e-3)
    adam_step(theta, np.zeros(3), state)
    assert np.array_equal(theta, before)
    assert state.step_count == 1


def test_constant_positive_gradient_decreases_parameter_monotonically():
    theta = np.array([0.5])
    state = AdamState(lr=1e-2)
    values = [theta[0]]
    for _ in range(50):
        adam_step(theta, np.array([2.0]), state)
        values.append(theta[0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_first_step_magnitude_is_lr():
    # hand evaluation at t=1: m_hat = g, v_hat = g^2, update = lr * g/(|g| + eps)
    g = 0.37
    lr = 1e-3
    state = AdamState(lr=lr)
    theta = np.array([1.0])
    adam_step(theta, np.array([g]), state)
    expected = 1.0 - lr * g / (abs(g) + EPS)
    assert abs(theta[0] - expected) < 1e-15
    assert abs((1.0 - theta[0]) - lr) < 1e-6


def test_gradient_of_another_shape_is_rejected_before_any_update():
    theta = np.ones(5)
    state = AdamState()
    with pytest.raises(InputError, match=r"gradient shape \(4,\) != param shape \(5,\)"):
        adam_step(theta, np.ones(4), state)
    assert np.array_equal(theta, np.ones(5))
    assert state.step_count == 0


def test_moments_match_param_shapes():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal(10)
    state = AdamState()
    adam_step(theta, rng.standard_normal(10), state)
    assert state.first_moment.shape == theta.shape
    assert state.second_moment.shape == theta.shape
