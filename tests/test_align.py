"""Affine latent-to-parameter fitting."""

import numpy as np
import pytest

from gmvlab.align import fit_affine
from gmvlab.errors import InputError


def test_identity_fit():
    z = np.random.default_rng(0).standard_normal((50, 2))
    report = fit_affine(z, z.copy())
    assert np.abs(report.a - np.eye(2)).max() < 1e-10
    assert np.abs(report.c).max() < 1e-10
    assert np.abs(report.z0).max() < 1e-8
    assert report.residual_rms < 1e-12
    assert np.allclose(report.r_squared, 1.0)


def test_inverse_scaling_recovered():
    z = np.random.default_rng(1).standard_normal((40, 2))
    report = fit_affine(2.0 * z, z)
    assert np.abs(report.a - 0.5 * np.eye(2)).max() < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_construct_then_recover(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((200, 2))
    w = rng.standard_normal((2, 2))
    t = rng.standard_normal(2)
    b = z @ w.T + t
    report = fit_affine(z, b)
    assert np.abs(report.a - w).max() < 1e-8
    assert np.abs(report.c - t).max() < 1e-8
    assert report.residual_rms < 1e-10


def test_normal_equation_orthogonality():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((120, 2))
    b = z @ rng.standard_normal((3, 2)).T + rng.standard_normal(3) + 0.3 * rng.standard_normal((120, 3))
    report = fit_affine(z, b)
    z_aug = np.hstack([z, np.ones((120, 1))])
    residual = b - (z @ report.a.T + report.c)
    assert np.abs(z_aug.T @ residual).max() < 1e-8


def test_affine_equivariance_of_predictions():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((80, 2))
    b = np.column_stack([np.sin(z[:, 0]), z.sum(axis=1)])
    base = fit_affine(z, b)
    pre = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
    shift = rng.standard_normal(2)
    z2 = z @ pre.T + shift
    other = fit_affine(z2, b)
    assert abs(base.residual_rms - other.residual_rms) < 1e-8
    assert np.abs(base.fitted - other.fitted).max() < 1e-8


def test_z0_maps_to_origin():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((60, 2))
    b = z @ np.array([[1.0, 2.0], [0.5, -1.0]]).T + np.array([3.0, -4.0])
    report = fit_affine(z, b)
    assert report.z0 is not None
    assert np.abs(report.a @ report.z0 + report.c).max() < 1e-8


def test_z0_absent_when_targets_not_square():
    z = np.random.default_rng(8).standard_normal((30, 2))
    report = fit_affine(z, z[:, :1])
    assert report.z0 is None


def test_fitted_predictions_reproduce_reported_residual():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((100, 2))
    b = z @ rng.standard_normal((2, 2)).T + rng.standard_normal((100, 2))
    report = fit_affine(z, b)
    predicted = z @ report.a.T + report.c
    assert np.abs(report.fitted - predicted).max() < 1e-12
    residual = b - predicted
    assert np.sqrt(np.mean(residual**2)) == pytest.approx(report.residual_rms, rel=1e-12)


def test_rank_deficient_design_rejected_with_rank():
    z = np.tile([[1.0, 2.0]], (30, 1))  # all points identical: rank 1 design
    with pytest.raises(InputError, match="rank 1"):
        fit_affine(z, np.random.default_rng(0).standard_normal((30, 2)))


def test_minimum_sample_count_enforced_and_overfit_warning():
    z = np.random.default_rng(11).standard_normal((3, 2))
    with pytest.raises(InputError):
        fit_affine(z, z)
    z = np.random.default_rng(12).standard_normal((5, 2))
    with pytest.warns(UserWarning, match="overfit"):
        fit_affine(z, z)


@pytest.mark.parametrize("bad,name", [("z", "embeddings z"), ("b", "targets b")])
def test_non_finite_input_rejected_naming_it(bad, name):
    rng = np.random.default_rng(13)
    arrays = {"z": rng.standard_normal((40, 2)), "b": rng.standard_normal((40, 2))}
    arrays[bad][7, 1] = np.nan if bad == "z" else np.inf
    with pytest.raises(InputError, match=f"{name} contain non-finite values"):
        fit_affine(arrays["z"], arrays["b"])
