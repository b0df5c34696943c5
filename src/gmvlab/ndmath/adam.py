"""Adam optimizer over one flat parameter vector, with bias correction."""

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


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector `theta`, in place.

    Moments are created on the first step and updated in `state`. The caller
    checks that `grad` is finite: a non-finite entry would reach the moments.
    """
    if grad.shape != theta.shape:
        raise InputError(f"adam_step: gradient shape {grad.shape} != param shape {theta.shape}")
    state.step_count += 1
    t = state.step_count
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
    m, v = state.first_moment, state.second_moment
    m *= BETA1
    m += (1.0 - BETA1) * grad
    v *= BETA2
    v += (1.0 - BETA2) * (grad * grad)
    update = (m / (1.0 - BETA1**t)) / (np.sqrt(v / (1.0 - BETA2**t)) + EPS)
    theta -= state.lr * update
