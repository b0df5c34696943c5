"""Graph-spectral smoothness metric over latent embeddings.

`interpretability_report` takes the metric section (`MetricConfig`), builds
one kNN graph on the embedded points as a plain (n, n) 0/1 adjacency matrix,
labels its connected components, eigendecomposes the unnormalized Laplacian
L = D - A once, and projects each physical quantity evaluated at the points
onto that eigenbasis. A quantity's eta is the fraction of its energy carried
by the lowest r% of modes: high eta means it varies smoothly across the
embedding. The one `SpectralReport` holds the graph's facts once and each
quantity's coefficients and eta by name.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import MetricConfig
from .errors import InputError, NumericalError, numerical_failures
from .ndmath import symmetric_eig


@dataclass
class SpectralReport:
    k: int
    r_percent: float
    component_sizes: list     # the graph's connected components, largest first
    eigenvalues: np.ndarray   # the graph's Laplacian spectrum, ascending
    coefficients: dict        # quantity name -> its coefficients, aligned with eigenvalues
    eta: dict                 # quantity name -> its eta, in the caller's order


def squared_distances(x: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances of the rows of x, unclipped.

    Raises NumericalError when one is not finite, as when the coordinates
    are so large that their squares overflow.
    """
    # in C order numpy computes x @ x.T as one mirrored triangle, so d2 == d2.T exactly
    x = np.ascontiguousarray(x, dtype=np.float64)
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
    order of each component's lowest node (`component_sizes` counts them)."""
    labels = np.full(adjacency.shape[0], -1)
    while (unlabelled := np.flatnonzero(labels < 0)).size:
        reached = frontier = np.arange(labels.size) == unlabelled[0]
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        labels[reached] = labels.max() + 1
    return labels


def component_sizes(adjacency: np.ndarray) -> list[int]:
    """Sizes of the graph's connected components, largest first."""
    return sorted(np.bincount(component_labels(adjacency)).tolist(), reverse=True)


def spectrum(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a
    Laplacian matrix, as `symmetric_eig` returns them."""
    lap = np.asarray(lap, dtype=np.float64)
    row_sums = np.abs(lap.sum(axis=1)).max() if lap.size else 0.0
    if row_sums > 1e-10 * max(1.0, float(np.abs(lap).max())):
        raise InputError(f"spectrum: rows must sum to zero (max |row sum| = {row_sums:.3e})")
    return symmetric_eig(lap)


def project(eigenvectors: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Spectral coefficients alpha_i = v_i . p of a signal on the graph."""
    p = np.asarray(p, dtype=np.float64).ravel()
    if p.shape[0] != eigenvectors.shape[0]:
        raise InputError(
            f"project: signal length {p.shape[0]} != node count {eigenvectors.shape[0]}")
    return eigenvectors.T @ p


def eta(coefficients: np.ndarray, r_percent: float) -> float:
    """Energy fraction in the lowest-r% modes (mode count, not eigenvalue mass).

    Coefficients arrive in ascending-eigenvalue order (as `project` returns
    them), so the low set is simply the first ceil(r * n / 100) of them;
    ties keep the solver's return order. `MetricConfig` holds r's range.
    """
    alpha2 = np.asarray(coefficients, dtype=np.float64) ** 2
    total = alpha2.sum()
    if total <= 0.0:
        raise InputError("eta is undefined for a zero-energy signal")
    m = int(np.ceil(r_percent * alpha2.shape[0] / 100.0))
    return float(alpha2[:m].sum() / total)


def interpretability_report(points: np.ndarray, quantities: dict,
                            cfg: MetricConfig) -> SpectralReport:
    """Score each named quantity over one kNN graph, built with `cfg.k`
    neighbours and scored at `cfg.r_percent`; the section checked both when
    it was built.

    `quantities` maps name -> length-n array evaluated at the embedded
    points. Disconnected graphs are allowed but warned about: extra zero
    modes inflate eta for component-indicator signals. A quantity so large
    that its energy (the sum of its squares, which its squared coefficients
    sum to) overflows raises NumericalError, naming it, once the graph is
    built but before that warning, the eigensolve, or any numpy warning.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    for name, q in quantities.items():
        q = np.asarray(q, dtype=np.float64).ravel()
        if q.shape[0] != n:
            raise InputError(f"quantity {name!r} has length {q.size}, expected {n}")
        if not np.all(np.isfinite(q)):
            raise InputError(f"quantity {name!r} has non-finite values")
    adjacency = build_knn(points, cfg.k)
    for name, q in quantities.items():  # the energy that eta divides by
        with numerical_failures(f"energy of quantity {name!r}"):
            np.square(q, dtype=np.float64).sum()
    sizes = component_sizes(adjacency)
    if len(sizes) > 1:
        warnings.warn(f"kNN graph is disconnected (component sizes {sizes}); "
                      "eta may be inflated for component-aligned signals")
    eigenvalues, eigenvectors = spectrum(laplacian(adjacency))
    coefficients, etas = {}, {}
    for name, q in quantities.items():  # the same energy, rounded differently, may overflow
        with numerical_failures(f"eta of quantity {name!r}"):
            coefficients[name] = project(eigenvectors, q)
            etas[name] = eta(coefficients[name], cfg.r_percent)
    return SpectralReport(
        k=int(cfg.k), r_percent=float(cfg.r_percent), component_sizes=sizes,
        eigenvalues=eigenvalues, coefficients=coefficients, eta=etas)
