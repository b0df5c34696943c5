"""Numerical substrate: MLPs with analytic backprop, Adam, symmetric eigensolver.

Everything operates on float64 numpy arrays (row-major) and is
deterministic: identical inputs give bitwise-identical outputs for a given
numpy/BLAS build and thread count. `Mlp.backward` propagates a loss
gradient through the tanh layers in closed form; `adam_step` updates one
flat parameter vector in place. The eigensolver is LAPACK's (through
``np.linalg.eigh``) with a fixed eigenvector sign convention.
"""

from .adam import AdamState, adam_step
from .eig import sign_columns, symmetric_eig
from .mlp import Mlp

__all__ = [
    "AdamState",
    "adam_step",
    "sign_columns",
    "symmetric_eig",
    "Mlp",
]
