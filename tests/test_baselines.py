"""Classical MDS and Isomap baselines."""

import numpy as np
import pytest

from gmvlab.baselines import (
    DistanceMatrix,
    classical_mds,
    euclidean_distances,
    geodesic_distances,
    isomap,
    stress,
)
from gmvlab.errors import InputError
from gmvlab.spectral import build_knn, component_labels


def test_distance_matrix_validation():
    with pytest.raises(InputError):
        DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(InputError):
        DistanceMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(InputError):
        DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative


def test_identical_points_embed_at_zero():
    d = DistanceMatrix(np.zeros((5, 5)))
    with pytest.warns(UserWarning, match="positive eigenvalues"):
        emb = classical_mds(d, 2)
    assert np.array_equal(emb.points, np.zeros((5, 2)))


def test_three_collinear_points_recover_distances():
    d = euclidean_distances(np.array([[0.0], [1.0], [3.0]]))
    with pytest.warns(UserWarning, match="positive eigenvalues"):
        emb = classical_mds(d, 2)  # rank 1 configuration: second axis padded
    rec = euclidean_distances(emb.points).d
    assert np.abs(rec - d.d).max() < 1e-8
    assert np.abs(emb.points[:, 1]).max() < 1e-8


def test_exact_euclidean_case_reproduces_all_distances():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2))
    d = euclidean_distances(x)
    emb = classical_mds(d, 2)
    rec = euclidean_distances(emb.points).d
    assert np.abs(rec - d.d).max() < 1e-8
    assert stress(d, emb.points) < 1e-14


def test_mds_components_ordered_by_spread():
    rng = np.random.default_rng(1)
    x = np.column_stack([rng.standard_normal(60) * 10.0, rng.standard_normal(60)])
    emb = classical_mds(euclidean_distances(x), 2)
    assert emb.points[:, 0].var() > emb.points[:, 1].var()


def test_mds_deterministic():
    x = np.random.default_rng(2).standard_normal((30, 3))
    a = classical_mds(euclidean_distances(x), 2)
    b = classical_mds(euclidean_distances(x), 2)
    assert np.array_equal(a.points, b.points)


# ----------------------------------------------------------------- isomap

def test_isomap_on_line_matches_mds():
    x = np.linspace(0, 5, 20)[:, None]
    geo = geodesic_distances(x, 2)
    assert np.abs(geo.d - euclidean_distances(x).d).max() < 1e-12
    emb_iso = isomap(x, k=2, dim=1)
    emb_mds = classical_mds(euclidean_distances(x), 1)
    assert np.abs(np.abs(emb_iso.points) - np.abs(emb_mds.points)).max() < 1e-8


def test_two_hop_geodesic():
    x = np.array([[0.0], [1.0], [2.0]])
    geo = geodesic_distances(x, 1)
    assert geo.d[0, 2] == pytest.approx(2.0, abs=1e-12)


def test_isomap_unrolls_quarter_circle():
    t = np.linspace(0.0, np.pi / 2, 100)
    points = np.column_stack([np.cos(t), np.sin(t)])
    emb = isomap(points, k=5, dim=2)
    coord = emb.points[:, 0]
    diffs = np.diff(coord)
    assert np.all(diffs > 0) or np.all(diffs < 0)  # monotone in arc length


def test_isomap_geodesics_dominate_euclidean_and_triangle_inequality():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, np.pi, 40))
    points = np.column_stack([np.cos(t), np.sin(t)])
    geo = geodesic_distances(points, 4).d
    euc = euclidean_distances(points).d
    assert np.all(geo >= euc - 1e-10)
    n = len(points)
    for i in range(0, n, 7):
        for j in range(0, n, 7):
            for m in range(0, n, 7):
                assert geo[i, j] <= geo[i, m] + geo[m, j] + 1e-9


def bellman_ford_all_pairs(adjacency, weights):
    """Independent oracle: relax every edge until no distance shrinks."""
    n = len(adjacency)
    edges = [(u, v, weights[u, v]) for u in range(n) for v in range(n) if adjacency[u, v]]
    dist = np.full((n, n), np.inf)
    for s in range(n):
        dist[s, s] = 0.0
        for _ in range(n - 1):
            changed = False
            for u, v, w in edges:
                if dist[s, u] + w < dist[s, v]:
                    dist[s, v] = dist[s, u] + w
                    changed = True
            if not changed:
                break
    return dist


def test_geodesics_match_bellman_ford_on_random_knn_graph():
    points = np.random.default_rng(12).standard_normal((30, 3))
    adjacency = build_knn(points, 4)
    assert np.bincount(component_labels(adjacency)).tolist() == [30]
    weights = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    expected = bellman_ford_all_pairs(adjacency, weights)
    assert np.abs(geodesic_distances(points, 4).d - expected).max() < 1e-12


def test_isomap_disconnected_graph_reports_component_sizes():
    points = np.vstack([np.zeros((5, 2)), np.full((7, 2), 100.0)])
    with pytest.raises(InputError, match=r"\[7, 5\]"):
        isomap(points, k=2, dim=2)


def test_isomap_complete_graph_equals_mds_up_to_sign():
    x = np.random.default_rng(4).standard_normal((15, 2))
    emb_iso = isomap(x, k=14, dim=2)
    emb_mds = classical_mds(euclidean_distances(x), 2)
    for j in range(2):
        a, b = emb_iso.points[:, j], emb_mds.points[:, j]
        assert min(np.abs(a - b).max(), np.abs(a + b).max()) < 1e-8
