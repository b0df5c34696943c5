"""Output checks: independent numpy references for what the workloads produce.

Each check returns None when the output is right and a one-line reason when
it is not. None of them calls into gmvlab, so a defect in the program cannot
hide in its own reference.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EIG_TOL = 1e-8        # eigenvalues and eta against numpy.linalg.eigh
MDS_TOL = 1e-8        # coordinates against an eigh-based classical MDS, relative
GEODESIC_TOL = 1e-10  # geodesics against Floyd-Warshall, relative


def read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_columns(path, prefix: str) -> np.ndarray:
    """Float matrix of the columns whose names start with `prefix`, in order."""
    header, rows = read_csv(path)
    cols = [j for j, name in enumerate(header) if name.startswith(prefix)]
    return np.array([[float(r[j]) for j in cols] for r in rows])


def read_named(path, names) -> np.ndarray:
    header, rows = read_csv(path)
    cols = [header.index(name) for name in names]
    return np.array([[float(r[j]) for j in cols] for r in rows])


def knn_adjacency(points: np.ndarray, k: int) -> np.ndarray:
    """Union-symmetrised kNN adjacency, ties to the lower index."""
    sq = np.sum(points**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.fill_diagonal(d2, np.inf)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    a = np.zeros_like(d2)
    a[np.repeat(np.arange(len(points)), k), nearest.ravel()] = 1.0
    return np.maximum(a, a.T)


def is_connected(adjacency: np.ndarray) -> bool:
    reached = np.zeros(len(adjacency), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | (adjacency[reached].sum(axis=0) > 0)
        if grown.sum() == reached.sum():
            return bool(reached.all())
        reached = grown


def check_metric(embeddings_csv, quantities_csv, report_csv, spectrum_csv, columns, k: int,
                 r_percent: float) -> str | None:
    """eta and the dumped eigenvalues against eigh of the same kNN Laplacian.

    When the cutoff falls inside a (near-)degenerate eigenspace, the split of
    that eigenspace is basis-dependent, so eta is only required to lie
    between the energy strictly below the eigenspace and the energy up to
    its top.
    """
    points = read_columns(embeddings_csv, "mu_")
    q = read_named(quantities_csv, columns)
    a = knn_adjacency(points, k)
    w, v = np.linalg.eigh(np.diag(a.sum(axis=1)) - a)
    scale = max(1.0, float(np.abs(w).max()))

    header, rows = read_csv(spectrum_csv)
    for name in columns:
        lam = np.array([float(r[2]) for r in rows if r[0] == name])
        if lam.shape != w.shape:
            return f"spectrum for {name}: {lam.size} eigenvalues, expected {w.size}"
        err = float(np.abs(lam - w).max())
        if err > EIG_TOL * scale:
            return f"spectrum for {name}: eigenvalues off eigh by {err:.3e}"

    header, rows = read_csv(report_csv)
    eta_of = {r[0]: float(r[header.index("eta")]) for r in rows}
    n = len(w)
    m = math.ceil(r_percent * n / 100.0)
    lo = int(np.searchsorted(w, w[m - 1] - EIG_TOL * scale, side="left"))
    hi = int(np.searchsorted(w, w[m - 1] + EIG_TOL * scale, side="right"))
    for j, name in enumerate(columns):
        energy = (v.T @ q[:, j]) ** 2
        cum = np.concatenate([[0.0], np.cumsum(energy)]) / energy.sum()
        got = eta_of.get(name)
        if got is None:
            return f"report has no eta for {name}"
        if hi == m:  # the cutoff separates two distinct eigenvalues
            if abs(got - cum[m]) > EIG_TOL:
                return f"eta[{name}] = {got!r}, eigh reference {cum[m]!r}"
        elif not (cum[lo] - EIG_TOL <= got <= cum[hi] + EIG_TOL):
            return (f"eta[{name}] = {got!r} outside the degenerate-cutoff range "
                    f"[{cum[lo]!r}, {cum[hi]!r}]")
    return None


def mds_reference(d2: np.ndarray, dim: int) -> np.ndarray:
    """Classical MDS of squared distances via eigh, top `dim` coordinates."""
    n = len(d2)
    j = np.eye(n) - 1.0 / n
    b = -0.5 * (j @ d2 @ j)
    w, v = np.linalg.eigh(0.5 * (b + b.T))
    w, v = w[::-1][:dim], v[:, ::-1][:, :dim]
    return v * np.sqrt(np.maximum(w, 0.0))


def compare_up_to_sign(got: np.ndarray, ref: np.ndarray, what: str) -> str | None:
    if got.shape != ref.shape:
        return f"{what}: shape {got.shape}, expected {ref.shape}"
    scale = max(1.0, float(np.abs(ref).max()))
    for c in range(ref.shape[1]):
        err = min(np.abs(got[:, c] - ref[:, c]).max(), np.abs(got[:, c] + ref[:, c]).max())
        if err > MDS_TOL * scale:
            return f"{what}: column {c + 1} off the eigh reference by {err:.3e}"
    return None


def check_mds(dataset_csv, mds_csv, dim: int = 2) -> str | None:
    x = read_columns(dataset_csv, "rho_")
    sq = np.sum(x**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    np.fill_diagonal(d2, 0.0)
    return compare_up_to_sign(read_columns(mds_csv, "mu_"), mds_reference(d2, dim), "mds")


def floyd_warshall(points: np.ndarray, k: int) -> np.ndarray:
    a = knn_adjacency(points, k)
    diff = points[:, None, :] - points[None, :, :]
    g = np.where(a > 0, np.sqrt(np.sum(diff**2, axis=2)), np.inf)
    np.fill_diagonal(g, 0.0)
    for m in range(len(points)):
        g = np.minimum(g, g[:, m:m + 1] + g[m:m + 1, :])
    return g


def check_isomap(points: np.ndarray, k: int, embedding: np.ndarray,
                 geodesics: np.ndarray | None) -> str | None:
    """Geodesics (when the run captured them) and the embedding they give."""
    ref = floyd_warshall(points, k)
    if geodesics is not None:
        err = float(np.abs(geodesics - ref).max())
        if not err <= GEODESIC_TOL * max(1.0, float(ref.max())):
            return f"geodesics off Floyd-Warshall by {err:.3e}"
    return compare_up_to_sign(embedding, mds_reference(ref**2, embedding.shape[1]), "isomap")
