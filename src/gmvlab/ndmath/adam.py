"""Adam optimizer over one flat parameter vector, with bias correction and
decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, NumericalError


@dataclass
class AdamState:
    """Hyperparameters, step count and moment vectors of one Adam run.

    `layout` lists (name, size) of the arrays packed into the parameter
    vector, in order; it is read only to name a parameter in an error.
    """

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    layout: tuple = ()


def _param_name(layout, index: int) -> str:
    stop = 0
    for name, size in layout:
        stop += size
        if index < stop:
            return f"{name!r}"
    return f"entry {index}"


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector `theta`, in place.

    Moments are created on the first step and updated in `state`. Weight
    decay, when nonzero, is decoupled (applied directly to the parameter,
    not through the moments).
    """
    if grad.shape != theta.shape:
        raise InputError(f"adam_step: gradient shape {grad.shape} != param shape {theta.shape}")
    if not np.all(np.isfinite(grad)):
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericalError(
            f"adam_step: non-finite gradient for parameter {_param_name(state.layout, bad)}")
    state.step_count += 1
    t = state.step_count
    if state.first_moment is None:
        state.first_moment = np.zeros_like(theta)
        state.second_moment = np.zeros_like(theta)
    m, v = state.first_moment, state.second_moment
    m *= state.beta1
    m += (1.0 - state.beta1) * grad
    v *= state.beta2
    v += (1.0 - state.beta2) * (grad * grad)
    update = (m / (1.0 - state.beta1**t)) / (np.sqrt(v / (1.0 - state.beta2**t)) + state.eps)
    if state.weight_decay > 0.0:
        update += state.weight_decay * theta
    theta -= state.lr * update
