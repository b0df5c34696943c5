"""Symmetric eigensolver contract tests."""

import numpy as np
import pytest

from gmvlab.errors import InputError, NumericalError
from gmvlab.ndmath import symmetric_eig


def test_identity_matrix():
    w, v = symmetric_eig(np.eye(5))
    assert np.allclose(w, np.ones(5))
    assert np.allclose(v.T @ v, np.eye(5), atol=1e-12)


def test_diagonal_matrix_sorted_with_axis_eigenvectors():
    w, v = symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    # eigenvectors are signed unit axes in sorted order
    expected_axes = [1, 2, 0]
    for i, ax in enumerate(expected_axes):
        assert abs(abs(v[ax, i]) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_random_20x20_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((20, 20))
    m = m + m.T
    w, v = symmetric_eig(m)
    assert np.abs(v @ np.diag(w) @ v.T - m).max() < 1e-8
    assert np.abs(v.T @ v - np.eye(20)).max() < 1e-8
    assert np.all(np.diff(w) >= 0)
    # eigenpair residual
    assert np.abs(m @ v - v * w[None, :]).max() < 1e-8


def test_asymmetric_input_rejected():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        symmetric_eig(m)


def test_tiny_asymmetry_below_tolerance_accepted():
    m = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    w, v = symmetric_eig(m)
    assert np.allclose(np.sort(w), [-1.0, 3.0], atol=1e-10)


def test_one_by_one_and_empty():
    w, v = symmetric_eig(np.array([[4.0]]))
    assert w[0] == 4.0 and v[0, 0] == 1.0
    w, v = symmetric_eig(np.zeros((0, 0)))
    assert w.size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_a_numerical_failure(bad):
    m = np.eye(4)
    m[1, 2] = m[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        symmetric_eig(m)


def test_overflowing_symmetrization_raises_before_numpy_warns():
    # m + m.T overflows at 2e308: numpy warned and LAPACK returned [nan, nan]
    # with identity eigenvectors
    with pytest.raises(NumericalError, match="^symmetric_eig: overflow encountered in add$"):
        symmetric_eig(np.array([[1e308, 1.0], [1.0, 2.0]]))


def test_non_finite_eigenvalue_of_a_finite_matrix_is_a_numerical_failure():
    # the top eigenvalue is 60 * 8e306, which LAPACK returns as inf with no
    # floating-point flag raised
    with pytest.raises(NumericalError, match="^symmetric_eig: LAPACK returned a non-finite "):
        symmetric_eig(np.full((60, 60), 8e306))


def test_lapack_failure_is_a_numerical_failure(monkeypatch):
    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NumericalError, match="did not converge"):
        symmetric_eig(np.eye(3))


@pytest.mark.parametrize("seed", range(3))
def test_sign_convention_and_repeat_calls_byte_identical(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((30, 30))
    m = m + m.T
    w, v = symmetric_eig(m)
    cols = np.arange(30)
    assert np.all(v[np.argmax(np.abs(v), axis=0), cols] > 0.0)
    w2, v2 = symmetric_eig(m.copy())
    assert w.tobytes() == w2.tobytes() and v.tobytes() == v2.tobytes()


def test_degenerate_eigenspace_gives_orthonormal_columns():
    # eigenvalue 2 with multiplicity 3 and eigenvalue -1 twice, in a random basis
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = q @ np.diag([2.0, -1.0, 2.0, 5.0, 2.0, -1.0]) @ q.T
    w, v = symmetric_eig(m)
    assert np.allclose(w, [-1.0, -1.0, 2.0, 2.0, 2.0, 5.0], atol=1e-12)
    assert np.abs(v.T @ v - np.eye(6)).max() < 1e-12
    assert np.abs(m @ v - v * w[None, :]).max() < 1e-12
