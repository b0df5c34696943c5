"""Classical embedding baselines: Torgerson MDS and Isomap.

Both are deterministic spectral methods. Isomap replaces Euclidean
distances with shortest-path (geodesic) distances over a kNN graph before
applying classical MDS, so it unrolls curved manifolds. MDS of points with
coordinates (`coordinate_mds`) solves the smaller Gram matrix of the
centred rows instead of the (n, n) double-centred one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, numerical_failures
from .ndmath import sign_columns, symmetric_eig
from .spectral import build_knn, component_sizes, squared_distances


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


def euclidean_distances(x: np.ndarray) -> DistanceMatrix:
    d2 = np.maximum(squared_distances(np.atleast_2d(x)), 0.0)
    np.fill_diagonal(d2, 0.0)
    return DistanceMatrix(np.sqrt(d2))


def stress(d: DistanceMatrix, points: np.ndarray) -> float:
    """Raw stress: sum over pairs of squared distance mismatch (diagnostic only)."""
    rec = np.sqrt(np.maximum(squared_distances(points), 0.0))
    return float(np.sum(np.triu(d.d - rec, 1) ** 2))


def _check_dim(dim: int, n: int) -> None:
    """An embedding of n points has between 1 and n coordinates."""
    if not 1 <= dim <= n:
        raise InputError(f"dim must be between 1 and the number of points ({n}), got {dim}")


def _leading_eigenpairs(gram: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Up to `dim` largest eigenpairs of a Gram matrix, descending, keeping
    only positive eigenvalues. Warns when fewer than `dim` remain; the caller
    pads the missing coordinates with zeros."""
    w, v = symmetric_eig(gram)
    w, v = w[::-1], v[:, ::-1]  # descending
    tiny = 1e-12 * max(float(np.abs(w).max()) if w.size else 0.0, 1e-300)
    n_pos = int(np.sum(w > tiny))
    if n_pos < dim:
        warnings.warn(f"classical MDS: only {n_pos} positive eigenvalues for dim={dim}; "
                      "padding remaining coordinates with zeros")
    use = min(dim, n_pos)
    return w[:use], v[:, :use]


def _padded(coords: np.ndarray, dim: int) -> Embedding2D:
    points = np.zeros((coords.shape[0], dim))
    points[:, :coords.shape[1]] = coords
    return Embedding2D(points=points)


def classical_mds(d: DistanceMatrix, dim: int) -> Embedding2D:
    """Torgerson's classical MDS: double-center the squared distances,
    eigendecompose, and scale the top eigenvectors.

    Exact for Euclidean distance matrices. If fewer than `dim` positive
    eigenvalues exist, missing coordinates are zero-padded with a warning.
    For points with coordinates, `coordinate_mds` gives the same embedding
    from a smaller eigenproblem.
    """
    _check_dim(dim, d.n)
    # J D^2 J with J = I - 11^T/n: centre the rows, then the columns
    b = d.d**2
    b -= b.mean(axis=1, keepdims=True)
    b -= b.mean(axis=0, keepdims=True)
    b *= -0.5
    w, v = _leading_eigenpairs(b, dim)
    return _padded(v * np.sqrt(w), dim)


def coordinate_mds(x: np.ndarray, dim: int) -> Embedding2D:
    """Classical MDS of the Euclidean distances between the rows of x,
    computed from the coordinates (Gower 1966).

    The double-centred Gram matrix of those distances is Xc Xc^T for the
    centred rows Xc, so its top eigenpairs are the principal components of
    Xc: this solves the smaller of Xc^T Xc (p, p) and Xc Xc^T (n, n).
    Each column is signed by `ndmath.sign_columns`, the rule `classical_mds`
    inherits from `symmetric_eig`, and missing coordinates are zero-padded
    with the same warning. Coordinates so large that the Gram product
    overflows raise NumericalError before numpy can warn.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, p = x.shape
    _check_dim(dim, n)
    with numerical_failures("coordinate_mds"):
        xc = x - x.mean(axis=0)
        if p <= n:
            _, v = _leading_eigenpairs(xc.T @ xc, dim)
            coords = xc @ v
        else:
            w, v = _leading_eigenpairs(xc @ xc.T, dim)
            coords = v * np.sqrt(w)
    return _padded(sign_columns(coords), dim)


def geodesic_distances(points: np.ndarray, k: int) -> DistanceMatrix:
    """All-pairs shortest paths over the Euclidean-weighted kNN graph.

    Raises on a disconnected graph, naming the component sizes.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    adjacency = build_knn(points, k)
    sizes = component_sizes(adjacency)
    if len(sizes) > 1:
        raise InputError(f"isomap: kNN graph is disconnected (component sizes {sizes}); "
                         "increase k")
    # Floyd-Warshall over the edge weights (inf off-graph): pass `via` relaxes
    # every pair through that node. Its own row and column are fixed points of
    # the pass, so updating in place is exact and keeps the matrix symmetric.
    g = np.where(adjacency > 0.0, euclidean_distances(points).d, np.inf)
    np.fill_diagonal(g, 0.0)
    for via in range(n):
        np.minimum(g, g[:, via, None] + g[None, via, :], out=g)
    return DistanceMatrix(g)


def isomap(points: np.ndarray, k: int, dim: int) -> Embedding2D:
    """Classical MDS on geodesic distances over the kNN graph."""
    _check_dim(dim, len(np.atleast_2d(points)))  # before the (n, n) geodesics
    return classical_mds(geodesic_distances(points, k), dim)
