"""Classical embedding baselines: Torgerson MDS and Isomap.

Both are deterministic spectral methods. Isomap replaces Euclidean
distances with shortest-path (geodesic) distances over a kNN graph before
applying classical MDS, so it unrolls curved manifolds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ndmath import symmetric_eig
from .spectral import build_knn


@dataclass
class DistanceMatrix:
    d: np.ndarray  # (n, n) symmetric, nonnegative, zero diagonal

    def __post_init__(self):
        m = np.asarray(self.d, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"DistanceMatrix must be square, got {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-10 * max(1.0, float(np.abs(m).max() if m.size else 0.0)):
            raise InputError("DistanceMatrix must be symmetric")
        if np.any(np.diag(m) != 0.0):
            raise InputError("DistanceMatrix diagonal must be zero")
        if m.size and m.min() < 0.0:
            raise InputError("DistanceMatrix entries must be nonnegative")
        self.d = m

    @property
    def n(self) -> int:
        return self.d.shape[0]


@dataclass
class Embedding2D:
    points: np.ndarray  # (n, dim)
    method: str


def euclidean_distances(x: np.ndarray) -> DistanceMatrix:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    sq = np.sum(x**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    d = np.sqrt(d2)
    return DistanceMatrix(0.5 * (d + d.T))


def stress(d: DistanceMatrix, points: np.ndarray) -> float:
    """Raw stress: sum over pairs of squared distance mismatch (diagnostic only)."""
    rec = euclidean_distances(points).d
    diff = d.d - rec
    return float(np.sum(np.triu(diff, 1) ** 2))


def classical_mds(d: DistanceMatrix, dim: int, method: str = "mds") -> Embedding2D:
    """Torgerson's classical MDS: double-center the squared distances,
    eigendecompose, and scale the top eigenvectors.

    Exact for Euclidean distance matrices. If fewer than `dim` positive
    eigenvalues exist, missing coordinates are zero-padded with a warning.
    """
    if dim < 1:
        raise InputError(f"classical_mds: dim must be >= 1, got {dim}")
    n = d.n
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * (j @ (d.d**2) @ j)
    b = 0.5 * (b + b.T)
    w, v = symmetric_eig(b)
    w, v = w[::-1], v[:, ::-1]  # descending
    tiny = 1e-12 * max(float(np.abs(w).max()) if w.size else 0.0, 1e-300)
    n_pos = int(np.sum(w > tiny))
    use = min(dim, n_pos)
    if use < dim:
        warnings.warn(f"classical_mds: only {n_pos} positive eigenvalues for dim={dim}; "
                      "padding remaining coordinates with zeros")
    points = np.zeros((n, dim))
    if use > 0:
        points[:, :use] = v[:, :use] * np.sqrt(w[:use])
    return Embedding2D(points=points, method=method)


def geodesic_distances(points: np.ndarray, k: int) -> DistanceMatrix:
    """All-pairs shortest paths over the Euclidean-weighted kNN graph.

    Raises on a disconnected graph, naming the component sizes.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    graph = build_knn(points, k)
    sizes = graph.component_sizes()
    if len(sizes) > 1:
        raise InputError(f"isomap: kNN graph is disconnected (component sizes {sizes}); "
                         "increase k")
    # Floyd-Warshall over the edge weights (inf off-graph): pass `via` relaxes
    # every pair through that node. Its own row and column are fixed points of
    # the pass, so updating in place is exact and keeps the matrix symmetric.
    g = np.where(graph.adjacency > 0.0, euclidean_distances(points).d, np.inf)
    np.fill_diagonal(g, 0.0)
    for via in range(n):
        np.minimum(g, g[:, via, None] + g[None, via, :], out=g)
    return DistanceMatrix(g)


def isomap(points: np.ndarray, k: int, dim: int) -> Embedding2D:
    """Classical MDS on geodesic distances over the kNN graph."""
    emb = classical_mds(geodesic_distances(points, k), dim, method="isomap")
    return emb
