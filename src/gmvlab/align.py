"""Post-hoc affine map from embeddings to physical parameters.

Fits b ~ A z + c with one `np.linalg.lstsq` solve on the homogeneous design
[Z, 1] and returns one flat record: A, c, the reference point z0, the fitted
values A z + c, the overall residual RMS and the per-parameter r-squared. Used
to compare embedding methods against known physics; it is a diagnostic, not a
model, so small-sample fits warn rather than refuse.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, numerical_failures

RANK_RTOL = 1e-10


@dataclass
class FitReport:
    a: np.ndarray                # (p, d)
    c: np.ndarray                # (p,)
    z0: np.ndarray | None        # (d,) reference point with A z0 + c = 0, when A is invertible
    fitted: np.ndarray           # (n, p) A z + c for each input row
    residual_rms: float          # RMS over all n*p residual entries
    r_squared: np.ndarray        # (p,) per target parameter


def fit_affine(z: np.ndarray, b: np.ndarray) -> FitReport:
    """Least-squares affine fit of targets b (n, p) from embeddings z (n, d).

    Raises on non-finite input and on a rank-deficient design (singular
    values at most RANK_RTOL times the largest count as zero; the message
    reports the numerical rank), and warns when n < 3 (d + 1). Targets so
    large that a squared residual overflows raise NumericalError before numpy
    can warn.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 1:
        b = b[:, None]
    n, d = z.shape
    if b.shape[0] != n:
        raise InputError(f"fit_affine: {n} embeddings vs {b.shape[0]} target rows")
    for name, arr in (("embeddings z", z), ("targets b", b)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"fit_affine: {name} contain non-finite values")
    if n < d + 2:
        raise InputError(f"fit_affine needs at least d + 2 = {d + 2} samples, got {n}")
    if n < 3 * (d + 1):
        warnings.warn(f"fit_affine: only {n} samples for {d + 1} design columns; "
                      "the fit may overfit")
    z_aug = np.hstack([z, np.ones((n, 1))])
    with numerical_failures("fit_affine"):
        m_t, _, rank, _ = np.linalg.lstsq(z_aug, b, rcond=RANK_RTOL)  # m_t: (d+1, p)
        if rank < d + 1:
            raise InputError(f"fit_affine: design matrix is rank deficient "
                             f"(numerical rank {rank} < {d + 1})")
        a = m_t[:d].T
        c = m_t[d]
        z0 = None
        if a.shape[0] == d:
            sva = np.linalg.svd(a, compute_uv=False)
            if sva[-1] > RANK_RTOL * sva[0]:
                z0 = -np.linalg.solve(a, c)
        fitted = z_aug @ m_t
        residual = b - fitted
        ss_res = np.sum(residual**2, axis=0)
        ss_tot = np.sum((b - b.mean(axis=0)) ** 2, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r2 = np.where(ss_tot > 0.0, 1.0 - ss_res / ss_tot, 0.0)
        residual_rms = float(np.sqrt(np.mean(residual**2)))
    return FitReport(a=a, c=c, z0=z0, fitted=fitted, residual_rms=residual_rms, r_squared=r2)
