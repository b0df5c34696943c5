"""Numerical substrate: tape autodiff, MLPs, Adam, symmetric eigensolver.

Everything operates on float64 numpy arrays (row-major) and is
deterministic: identical inputs give bitwise-identical outputs for a given
numpy/BLAS build and thread count. The eigensolver is LAPACK's (through
``np.linalg.eigh``) with a fixed eigenvector sign convention.
"""

from .adam import AdamState, adam_step
from .eig import symmetric_eig
from .mlp import Mlp, forward_mlp
from .tape import Tape, Var, add, affine, backward, exp, log, mul, neg, slice_cols, square, tanh, vsum

__all__ = [
    "AdamState",
    "adam_step",
    "symmetric_eig",
    "Mlp",
    "forward_mlp",
    "Tape",
    "Var",
    "add",
    "affine",
    "backward",
    "exp",
    "log",
    "mul",
    "neg",
    "slice_cols",
    "square",
    "tanh",
    "vsum",
]
