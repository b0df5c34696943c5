"""Adam optimizer contract tests."""

import numpy as np
import pytest

from gmvlab.errors import InputError
from gmvlab.ndmath import AdamState, adam_step
from gmvlab.ndmath.adam import BETA1, BETA2, EPS


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


def test_fifty_steps_match_the_textbook_update_bit_for_bit():
    # Kingma & Ba's algorithm 1, written out with fresh arrays, over the default
    # model's 4694 parameters and gradients of mixed scale, some entries zero
    rng = np.random.default_rng(3)
    size, lr = 4694, 1e-3
    grads = rng.standard_normal((50, size)) * 10.0 ** rng.integers(-8, 4, size=(50, size))
    grads[:, ::97] = 0.0
    theta = rng.standard_normal(size)
    want, m, v = theta.copy(), np.zeros(size), np.zeros(size)
    state = AdamState(lr=lr)
    for t, g in enumerate(grads, start=1):
        adam_step(theta, g, state)
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        m_hat, v_hat = m / (1.0 - BETA1**t), v / (1.0 - BETA2**t)
        want = want - lr * (m_hat / (np.sqrt(v_hat) + EPS))
        assert theta.tobytes() == want.tobytes(), f"step {t}"
    assert state.first_moment.tobytes() == m.tobytes()
    assert state.second_moment.tobytes() == v.tobytes()
