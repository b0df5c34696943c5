"""Graph-spectral smoothness metric over latent embeddings.

A kNN graph is built on the embedded points as a plain (n, n) 0/1
adjacency matrix, its connected components are labelled, the unnormalized
Laplacian L = D - A is eigendecomposed, and a physical quantity evaluated
at each point is projected onto the eigenbasis. The score eta is the
fraction of the signal's energy carried by the lowest r% of modes: high
eta means the quantity varies smoothly across the embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .ndmath import symmetric_eig


@dataclass
class LaplacianSpectrum:
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues


@dataclass
class SpectralReport:
    quantity_name: str
    coefficients: np.ndarray
    eta: float
    r_percent: float
    k: int
    n_components: int
    eigenvalues: np.ndarray  # the graph's Laplacian spectrum, aligned with coefficients


def squared_distances(x: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of the rows of x, unclipped.

    Raises NumericalError when one is not finite, as when the coordinates
    are so large that their squares overflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.sum(x**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    if not np.isfinite(d2).all():
        raise NumericalError("pairwise squared distances are not finite "
                             f"(largest |coordinate| {np.abs(x).max():.3g})")
    return d2


def build_knn(points: np.ndarray, k: int) -> np.ndarray:
    """kNN adjacency with union symmetrization and index-order tie breaking.

    Edge (i, j) exists iff j is among i's k nearest Euclidean neighbors or
    vice versa; self-edges are excluded. Returns the (n, n) symmetric 0/1
    float64 matrix. Duplicate points are fine (distance ties resolve by
    ascending index).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if not np.all(np.isfinite(points)):
        raise InputError("build_knn: points must be finite")
    if k < 1:
        raise InputError(f"build_knn: k must be >= 1, got {k}")
    if k >= n:
        raise InputError(f"build_knn: k={k} must be smaller than the number of points n={n}")
    d2 = squared_distances(points)
    np.fill_diagonal(d2, np.inf)
    # Everything closer than the k-th distance is a neighbour; the ties at the
    # k-th distance fill the remaining slots lowest index first, which is the
    # set a stable sort keeps.
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    closer = d2 < kth
    tied = d2 == kth
    slots = k - closer.sum(axis=1, keepdims=True)
    chosen = closer | (tied & (np.cumsum(tied, axis=1) <= slots))
    return (chosen | chosen.T).astype(np.float64)


def laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Unnormalized Laplacian L = D - A; every row sums to zero."""
    return np.diag(adjacency.sum(axis=1)) - adjacency


def component_labels(adjacency: np.ndarray) -> np.ndarray:
    """Connected-component label of every node, numbered 0, 1, ... in the
    order of each component's lowest node (`np.bincount` gives the sizes)."""
    labels = np.full(adjacency.shape[0], -1)
    while (unlabelled := np.flatnonzero(labels < 0)).size:
        reached = frontier = np.arange(labels.size) == unlabelled[0]
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        labels[reached] = labels.max() + 1
    return labels


def spectrum(lap: np.ndarray) -> LaplacianSpectrum:
    """Ascending eigenpairs of a Laplacian matrix."""
    lap = np.asarray(lap, dtype=np.float64)
    row_sums = np.abs(lap.sum(axis=1)).max() if lap.size else 0.0
    if row_sums > 1e-10 * max(1.0, float(np.abs(lap).max())):
        raise InputError(f"spectrum: rows must sum to zero (max |row sum| = {row_sums:.3e})")
    w, v = symmetric_eig(lap)
    return LaplacianSpectrum(eigenvalues=w, eigenvectors=v)


def project(spec: LaplacianSpectrum, p: np.ndarray) -> np.ndarray:
    """Spectral coefficients alpha_i = v_i . p of a signal on the graph."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.shape[0] != spec.eigenvectors.shape[0]:
        raise InputError(
            f"project: signal length {p.shape[0]} != node count {spec.eigenvectors.shape[0]}")
    return spec.eigenvectors.T @ p


def low_mode_count(n: int, r_percent: float) -> int:
    return int(np.ceil(r_percent * n / 100.0))


def eta(coefficients: np.ndarray, r_percent: float) -> float:
    """Energy fraction in the lowest-r% modes (mode count, not eigenvalue mass).

    Coefficients arrive in ascending-eigenvalue order (as `project` returns
    them), so the low set is simply the first ceil(r * n / 100) of them;
    ties keep the solver's return order.
    """
    if not (0.0 < r_percent <= 100.0):
        raise InputError(f"eta: r_percent must be in (0, 100], got {r_percent}")
    alpha2 = np.asarray(coefficients, dtype=np.float64) ** 2
    total = alpha2.sum()
    if total <= 0.0:
        raise InputError("eta is undefined for a zero-energy signal")
    m = low_mode_count(alpha2.shape[0], r_percent)
    return float(alpha2[:m].sum() / total)


def interpretability_report(points: np.ndarray, quantities: dict, k: int,
                            r_percent: float) -> list:
    """Score each named quantity over one shared kNN graph.

    `quantities` maps name -> length-n array evaluated at the embedded
    points. Disconnected graphs are allowed but warned about: extra zero
    modes inflate eta for component-indicator signals.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    for name, q in quantities.items():
        if np.asarray(q).ravel().shape[0] != n:
            raise InputError(f"quantity {name!r} has length {np.asarray(q).size}, expected {n}")
    adjacency = build_knn(points, k)
    sizes = sorted(np.bincount(component_labels(adjacency)).tolist(), reverse=True)
    n_components = len(sizes)
    if n_components > 1:
        warnings.warn(f"kNN graph is disconnected (component sizes {sizes}); "
                      "eta may be inflated for component-aligned signals")
    spec = spectrum(laplacian(adjacency))
    reports = []
    for name, q in quantities.items():
        coeff = project(spec, np.asarray(q, dtype=np.float64).ravel())
        reports.append(SpectralReport(
            quantity_name=name, coefficients=coeff,
            eta=eta(coeff, r_percent),
            r_percent=float(r_percent), k=int(k), n_components=n_components,
            eigenvalues=spec.eigenvalues))
    return reports
