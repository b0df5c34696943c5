"""Graph-spectral smoothness metric over latent embeddings.

A kNN graph is built on the embedded points, the unnormalized Laplacian
L = D - A is eigendecomposed, and a physical quantity evaluated at each
point is projected onto the eigenbasis. The score eta is the fraction of
the signal's energy carried by the lowest r% of modes: high eta means the
quantity varies smoothly across the embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ndmath import symmetric_eig


@dataclass
class KnnGraph:
    n: int
    k: int
    adjacency: np.ndarray  # (n, n) symmetric 0/1, zero diagonal
    degrees: np.ndarray    # (n,)

    def component_sizes(self) -> list:
        """Connected-component sizes, largest first (BFS on the adjacency)."""
        seen = np.zeros(self.n, dtype=bool)
        sizes = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            count = 0
            while stack:
                u = stack.pop()
                count += 1
                for v in np.nonzero(self.adjacency[u])[0]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(int(v))
            sizes.append(count)
        return sorted(sizes, reverse=True)


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


def build_knn(points: np.ndarray, k: int) -> KnnGraph:
    """kNN graph with union symmetrization and index-order tie breaking.

    Edge (i, j) exists iff j is among i's k nearest Euclidean neighbors or
    vice versa; self-edges are excluded. Duplicate points are fine (distance
    ties resolve by ascending index).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    if not np.all(np.isfinite(points)):
        raise InputError("build_knn: points must be finite")
    if k < 1:
        raise InputError(f"build_knn: k must be >= 1, got {k}")
    if k >= n:
        raise InputError(f"build_knn: k={k} must be smaller than the number of points n={n}")
    sq = np.sum(points**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.fill_diagonal(d2, np.inf)
    adjacency = np.zeros((n, n))
    order = np.argsort(d2, axis=1, kind="stable")  # stable: equal distances -> lower index first
    rows = np.repeat(np.arange(n), k)
    adjacency[rows, order[:, :k].ravel()] = 1.0
    adjacency = np.maximum(adjacency, adjacency.T)
    return KnnGraph(n=n, k=k, adjacency=adjacency, degrees=adjacency.sum(axis=1))


def laplacian(g: KnnGraph) -> np.ndarray:
    """Unnormalized Laplacian L = D - A; every row sums to zero."""
    return np.diag(g.degrees) - g.adjacency


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
    graph = build_knn(points, k)
    n_components = len(graph.component_sizes())
    if n_components > 1:
        warnings.warn(f"kNN graph is disconnected ({n_components} components); "
                      "eta may be inflated for component-aligned signals")
    spec = spectrum(laplacian(graph))
    reports = []
    for name, q in quantities.items():
        coeff = project(spec, np.asarray(q, dtype=np.float64).ravel())
        reports.append(SpectralReport(
            quantity_name=name, coefficients=coeff,
            eta=eta(coeff, r_percent),
            r_percent=float(r_percent), k=int(k), n_components=n_components,
            eigenvalues=spec.eigenvalues))
    return reports
