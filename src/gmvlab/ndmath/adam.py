"""Adam optimizer over one flat parameter vector, with bias correction.

A step updates the moments and the parameters in place and forms its
intermediates in two work vectors held on the state, so after the first
step it allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError


BETA1 = 0.9  # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8  # added to the second-moment root


@dataclass
class AdamState:
    """Learning rate, step count and moment vectors of one Adam run."""

    lr: float = 1e-3
    step_count: int = field(default=0, init=False)
    first_moment: np.ndarray | None = field(default=None, init=False)
    second_moment: np.ndarray | None = field(default=None, init=False)
    work: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector `theta`, in place.

    Moments and work vectors are created on the first step and updated in
    `state`. The caller checks that `grad` is finite: a non-finite entry would
    reach the moments.
    """
    if grad.shape != theta.shape:
        raise InputError(f"adam_step: gradient shape {grad.shape} != param shape {theta.shape}")
    state.step_count += 1
    t = state.step_count
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
        state.work = (np.empty_like(theta), np.empty_like(theta))
    m, v = state.first_moment, state.second_moment
    a, b = state.work
    # m = BETA1 m + (1 - BETA1) grad, v = BETA2 v + (1 - BETA2) grad^2
    np.multiply(grad, 1.0 - BETA1, out=a)
    m *= BETA1
    m += a
    np.multiply(grad, grad, out=a)
    a *= 1.0 - BETA2
    v *= BETA2
    v += a
    # theta -= lr * (m_hat / (sqrt(v_hat) + EPS)), with the bias-corrected moments
    np.divide(m, 1.0 - BETA1**t, out=a)
    np.divide(v, 1.0 - BETA2**t, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    a *= state.lr
    theta -= a
