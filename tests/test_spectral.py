"""Graph metric: kNN construction, Laplacian spectra, projections, eta."""

import numpy as np
import pytest

from gmvlab.config import MetricConfig
from gmvlab.errors import InputError, NumericalError
from gmvlab.spectral import (
    build_knn,
    component_labels,
    component_sizes,
    eta,
    interpretability_report,
    laplacian,
    project,
    spectrum,
)


def brute_force_eta(points, quantity, k, r_percent):
    """Independent first-principles pipeline: explicit double loops and LAPACK."""
    n = len(points)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            dist[i, j] = np.sqrt(np.sum((points[i] - points[j]) ** 2))
    adj = np.zeros((n, n))
    for i in range(n):
        order = sorted(range(n), key=lambda j: (dist[i, j], j))
        order = [j for j in order if j != i][:k]
        for j in order:
            adj[i, j] = 1.0
            adj[j, i] = 1.0
    lap = np.diag(adj.sum(axis=1)) - adj
    w, v = np.linalg.eigh(lap)
    alpha = v.T @ quantity
    m = int(np.ceil(r_percent * n / 100.0))
    return float(np.sum(alpha[:m] ** 2) / np.sum(alpha**2))


# -------------------------------------------------------------- build_knn

def test_collinear_points_k1_chain():
    points = np.array([[0.0], [1.0], [2.0]])
    adj = build_knn(points, 1)
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    assert np.array_equal(adj, expected)


def test_k_equals_n_minus_1_gives_complete_graph():
    points = np.random.default_rng(0).standard_normal((6, 2))
    adj = build_knn(points, 5)
    assert np.array_equal(adj, np.ones((6, 6)) - np.eye(6))


def test_matches_brute_force_double_loop():
    rng = np.random.default_rng(1)
    # a shuffled integer grid: at k=6 the cut falls inside a group of equal
    # distances (sqrt 2 inside the grid, sqrt 5 at its corners)
    grid = np.argwhere(np.ones((12, 12))).astype(float)[rng.permutation(144)]
    for points, k in [(rng.standard_normal((200, 2)), 10), (grid, 6)]:
        n = len(points)
        adj = np.zeros((n, n))
        for i in range(n):
            d = np.sqrt(np.sum((points - points[i]) ** 2, axis=1))
            order = sorted(range(n), key=lambda j: (d[j], j))
            for j in [j for j in order if j != i][:k]:
                adj[i, j] = 1.0
                adj[j, i] = 1.0
        assert np.array_equal(build_knn(points, k), adj)


def test_duplicate_points_tie_break_by_index():
    points = np.zeros((4, 2))  # all identical: neighbors are the lowest indices
    adj = build_knn(points, 1)
    # each node picks node 0 (node 0 picks node 1); union symmetrizes
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = 1
    expected[0, 2] = expected[2, 0] = 1
    expected[0, 3] = expected[3, 0] = 1
    assert np.array_equal(adj, expected)


def test_degree_at_least_k():
    points = np.random.default_rng(3).standard_normal((50, 3))
    adj = build_knn(points, 4)
    assert adj.sum(axis=1).min() >= 4
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)


def test_k_out_of_range_rejected():
    points = np.zeros((4, 2))
    with pytest.raises(InputError):
        build_knn(points, 4)
    with pytest.raises(InputError):
        build_knn(points, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_rejected(bad):
    # an input error (exit 1), not the distance overflow's numerical failure (exit 2)
    points = np.random.default_rng(0).standard_normal((5, 2))
    points[2, 1] = bad
    with pytest.raises(InputError, match="build_knn: points must be finite"):
        build_knn(points, 2)


# -------------------------------------------------------------- laplacian

def test_path_graph_laplacian_explicit():
    lap = laplacian(build_knn(np.array([[0.0], [1.0], [2.0]]), 1))
    assert np.array_equal(lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))
    assert np.allclose(lap.sum(axis=1), 0.0)


def test_edgeless_graph_laplacian_is_zero():
    assert np.array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))


def test_complete_k4_eigenvalues():
    adj = build_knn(np.random.default_rng(0).standard_normal((4, 2)), 3)
    w, _ = np.linalg.eigh(laplacian(adj))
    assert np.allclose(np.sort(w), [0.0, 4.0, 4.0, 4.0], atol=1e-12)


# ------------------------------------------------------- component labels

def closure_labels(adj):
    """Independent oracle: boolean transitive closure (Warshall), then each
    node's component numbered by the rank of its lowest reachable node."""
    n = len(adj)
    reach = (adj > 0) | np.eye(n, dtype=bool)
    for m in range(n):
        reach |= reach[:, m, None] & reach[None, m, :]
    lowest = reach.argmax(axis=1)
    return np.searchsorted(np.unique(lowest), lowest)


def test_component_labels_match_transitive_closure():
    rng = np.random.default_rng(10)
    graphs = []
    for n in (1, 2, 7, 30, 60):
        for density in (0.0, 0.5 / n, 1.5 / n, 4.0 / n):  # sparse: many isolated nodes
            upper = np.triu(rng.random((n, n)) < density, 1)
            graphs.append((upper | upper.T).astype(float))
    # a long path in shuffled node order, whole and cut in two
    n, order = 300, rng.permutation(300)
    path = np.zeros((n, n))
    path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = 1.0
    cut = path.copy()
    cut[order[99], order[100]] = cut[order[100], order[99]] = 0.0
    for adj in graphs + [path, cut]:
        assert np.array_equal(component_labels(adj), closure_labels(adj))
    assert np.array_equal(component_labels(np.zeros((5, 5))), np.arange(5))
    assert component_sizes(cut) == [200, 100]  # largest first


# --------------------------------------------------------------- spectrum

def test_path3_spectrum():
    adj = build_knn(np.array([[0.0], [1.0], [2.0]]), 1)
    w, v = spectrum(laplacian(adj))
    assert np.allclose(w, [0.0, 1.0, 3.0], atol=1e-12)
    # constant vector spans the zero eigenspace on a connected graph
    v0 = v[:, 0]
    assert np.allclose(np.abs(v0), 1.0 / np.sqrt(3.0), atol=1e-12)


def test_two_disconnected_edges_zero_multiplicity():
    points = np.array([[0.0], [0.1], [100.0], [100.1]])
    adj = build_knn(points, 1)
    assert np.bincount(component_labels(adj)).tolist() == [2, 2]
    w, _ = spectrum(laplacian(adj))
    assert np.sum(np.abs(w) < 1e-10) == 2


def test_spectrum_reconstructs_laplacian():
    points = np.random.default_rng(5).standard_normal((100, 2))
    lap = laplacian(build_knn(points, 6))
    w, v = spectrum(lap)
    recon = v @ np.diag(w) @ v.T
    assert np.abs(recon - lap).max() < 1e-8
    assert w.min() >= -1e-10


def test_spectrum_rejects_nonzero_row_sums():
    with pytest.raises(InputError):
        spectrum(np.array([[1.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------- project

def test_project_eigenvector_is_one_hot():
    adj = build_knn(np.random.default_rng(2).standard_normal((20, 2)), 3)
    _, v = spectrum(laplacian(adj))
    alpha = project(v, v[:, 7])
    expected = np.zeros(20)
    expected[7] = 1.0
    assert np.allclose(alpha, expected, atol=1e-10)


def test_project_zero_signal():
    adj = build_knn(np.random.default_rng(2).standard_normal((10, 2)), 2)
    _, v = spectrum(laplacian(adj))
    assert np.array_equal(project(v, np.zeros(10)), np.zeros(10))


def test_project_round_trip_and_parseval():
    rng = np.random.default_rng(4)
    adj = build_knn(rng.standard_normal((50, 2)), 5)
    _, v = spectrum(laplacian(adj))
    p = rng.standard_normal(50)
    alpha = project(v, p)
    assert np.abs(v @ alpha - p).max() < 1e-8
    assert abs(np.sum(alpha**2) - np.sum(p**2)) < 1e-8


def test_project_length_mismatch():
    adj = build_knn(np.random.default_rng(2).standard_normal((10, 2)), 2)
    _, v = spectrum(laplacian(adj))
    with pytest.raises(InputError):
        project(v, np.ones(9))


# -------------------------------------------------------------------- eta

def test_constant_signal_eta_one():
    adj = build_knn(np.random.default_rng(0).standard_normal((30, 2)), 4)
    assert np.bincount(component_labels(adj)).tolist() == [30]
    _, v = spectrum(laplacian(adj))
    alpha = project(v, np.full(30, 2.5))
    assert eta(alpha, 100.0 / 30.0) == pytest.approx(1.0, abs=1e-12)


def test_highest_mode_eta_zero():
    adj = build_knn(np.random.default_rng(1).standard_normal((25, 2)), 4)
    _, v = spectrum(laplacian(adj))
    alpha = project(v, v[:, -1])
    assert eta(alpha, 20.0) == pytest.approx(0.0, abs=1e-12)


def test_r_100_gives_one():
    adj = build_knn(np.random.default_rng(1).standard_normal((25, 2)), 4)
    _, v = spectrum(laplacian(adj))
    alpha = project(v, np.random.default_rng(2).standard_normal(25))
    assert eta(alpha, 100.0) == pytest.approx(1.0, abs=1e-15)


def test_eta_monotone_in_r():
    rng = np.random.default_rng(6)
    adj = build_knn(rng.standard_normal((40, 2)), 5)
    _, v = spectrum(laplacian(adj))
    alpha = project(v, rng.standard_normal(40))
    values = [eta(alpha, r) for r in np.linspace(1, 100, 25)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_eta_rejects_zero_energy_and_bad_r():
    with pytest.raises(InputError):
        eta(np.zeros(5), 20.0)
    # the range of r is the metric section's rule, applied where the report starts
    points = np.random.default_rng(0).standard_normal((5, 2))
    for r in (0.0, 120.0):
        message = rf"^metric.r_percent must be in \(0, 100\], got {r}$"
        with pytest.raises(InputError, match=message):
            interpretability_report(points, {"q": points[:, 0]}, MetricConfig(k=2, r_percent=r))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_report_rejects_a_non_finite_quantity_naming_it(bad):
    points = np.random.default_rng(9).standard_normal((20, 2))
    q = points[:, 0].copy()
    q[3] = bad
    with pytest.raises(InputError, match="quantity 'q' has non-finite values"):
        interpretability_report(points, {"x": points[:, 1], "q": q}, MetricConfig(k=4))


def test_eta_low_set_is_the_ceiling_of_r_percent_of_the_modes():
    assert eta(np.ones(128), 20.0) == 26 / 128
    assert eta(np.ones(10), 1.0) == 1 / 10


# -------------------------------------------------- whole-report pipeline

def test_isometry_invariance():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((60, 2))
    theta = 0.83
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = points @ rot.T + np.array([3.0, -1.5])
    q = rng.standard_normal(60)
    a1, a2 = build_knn(points, 6), build_knn(moved, 6)
    assert np.array_equal(a1, a2)
    (_, v1), (_, v2) = spectrum(laplacian(a1)), spectrum(laplacian(a2))
    e1 = eta(project(v1, q), 20.0)
    e2 = eta(project(v2, q), 20.0)
    assert abs(e1 - e2) < 1e-9


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
@pytest.mark.parametrize("n,k,r", [(8, 2, 30.0), (10, 3, 20.0), (12, 4, 25.0)])
def test_brute_force_equivalence_small(n, k, r):
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 2))
    q = rng.standard_normal(n)
    report = interpretability_report(points, {"q": q}, MetricConfig(k=k, r_percent=r))
    assert report.eta["q"] == pytest.approx(brute_force_eta(points, q, k, r), abs=1e-10)


def test_report_constant_quantity():
    points = np.random.default_rng(8).standard_normal((40, 2))
    report = interpretability_report(points, {"c": np.full(40, 7.0)},
                                     MetricConfig(k=5, r_percent=10.0))
    assert report.eta["c"] == pytest.approx(1.0, abs=1e-10)
    assert report.component_sizes == [40]
    assert report.k == 5
    assert report.r_percent == 10.0


def test_report_holds_the_graph_once_and_each_quantity_by_name():
    rng = np.random.default_rng(11)
    points = rng.standard_normal((30, 2))
    quantities = {"y": points[:, 1], "x": points[:, 0], "noise": rng.standard_normal(30)}
    report = interpretability_report(points, quantities, MetricConfig(k=5, r_percent=30.0))
    w, v = spectrum(laplacian(build_knn(points, 5)))
    assert np.array_equal(report.eigenvalues, w)
    assert list(report.coefficients) == list(report.eta) == ["y", "x", "noise"]
    for name, q in quantities.items():
        assert np.array_equal(report.coefficients[name], project(v, q))
        assert report.eta[name] == eta(project(v, q), 30.0)


def test_report_smooth_coordinate_field_high_eta():
    gx, gy = np.meshgrid(np.linspace(0, 1, 12), np.linspace(0, 1, 12))
    points = np.column_stack([gx.ravel(), gy.ravel()])
    report = interpretability_report(points, {"x": points[:, 0]}, MetricConfig(k=4))
    assert report.eta["x"] > 0.95


def test_report_noise_eta_near_r_fraction():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((120, 2))
    vals = []
    for _ in range(10):
        q = rng.standard_normal(120)
        vals.append(interpretability_report(points, {"q": q}, MetricConfig(k=8)).eta["q"])
    assert abs(np.mean(vals) - 0.2) < 0.06


def test_report_warns_on_disconnected_graph():
    points = np.vstack([np.random.default_rng(0).standard_normal((10, 2)),
                        np.random.default_rng(1).standard_normal((10, 2)) + 100.0])
    with pytest.warns(UserWarning, match=r"disconnected \(component sizes \[10, 10\]\)"):
        report = interpretability_report(points, {"q": points[:, 0]}, MetricConfig(k=3))
    assert report.component_sizes == [10, 10]


def overflowing_points():
    """Six finite points whose squared distances overflow to inf and NaN."""
    return np.random.default_rng(10).standard_normal((6, 2)) * 1e160


def test_build_knn_rejects_overflowing_distances():
    # a NaN distance would make a point its own neighbour, a self-loop in the graph
    with pytest.raises(NumericalError, match="not finite"):
        build_knn(overflowing_points(), 2)


def test_report_rejects_overflowing_distances():
    points = overflowing_points()
    with pytest.raises(NumericalError, match="not finite"):
        interpretability_report(points, {"q": points[:, 0]}, MetricConfig(k=2))
