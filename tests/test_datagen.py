"""Reaction dataset: RHS values, integrator accuracy, labels, splits, CSV."""

import numpy as np
import pytest

from gmvlab import datagen
from gmvlab.datagen import (
    LABEL_REACTIVE,
    LABEL_STABLE,
    Dataset,
    generate,
    integrate,
    label,
    params_from_xi,
    reaction_rhs,
    split_sizes,
)
from gmvlab.config import DatasetConfig
from gmvlab.errors import InputError, NumericalError


KAPPA = DatasetConfig.kappa


def test_rhs_at_zero_is_alpha():
    p = params_from_xi(0.3, -0.2)
    rate = reaction_rhs(0.0, p["alpha"], p["gamma"], KAPPA)
    assert rate == pytest.approx(p["alpha"], abs=0, rel=1e-15)


def test_rhs_at_one_is_minus_gamma():
    p = params_from_xi(-1.0, 0.5)
    rate = reaction_rhs(1.0, p["alpha"], p["gamma"], KAPPA)
    assert rate == pytest.approx(-p["gamma"], abs=0, rel=1e-15)


def test_rhs_hand_evaluation():
    # alpha=1.1, gamma=0.011, kappa=1 at rho=0.5:
    # 1.1*0.5 - 0.011*0.5 - 0.5*0.25 = 0.4195
    assert reaction_rhs(0.5, 1.1, 0.011, 1.0) == pytest.approx(0.4195, abs=1e-15)


def test_param_formulas_at_zero_xi():
    p = params_from_xi(0.0, 0.0)
    assert p["alpha"] == pytest.approx(1.1)
    assert p["gamma"] == pytest.approx(0.011)
    assert (p["xi1"], p["xi2"]) == (0.0, 0.0)


def test_param_formulas_are_elementwise():
    xi1, xi2 = np.array([-1.0, 0.0, 2.0]), np.array([0.5, 0.0, -3.0])
    p = params_from_xi(xi1, xi2)
    for i in range(3):
        one = params_from_xi(xi1[i], xi2[i])
        assert all(p[name][i] == one[name] for name in p)


def test_degenerate_zero_rhs_gives_constant_trajectory():
    rho = integrate(0.0, 0.0, DatasetConfig(kappa=0.0, steps=50, horizon=50.0))
    assert rho.shape == (1, 50)
    assert np.array_equal(rho[0], np.full(50, datagen.RHO0))


def test_initial_value_exact():
    p = params_from_xi(np.array([0.7, -2.0]), np.array([-0.3, 1.5]))
    rho = integrate(p["alpha"], p["gamma"], DatasetConfig())
    assert rho.shape == (2, DatasetConfig.steps)
    assert np.all(rho[:, 0] == datagen.RHO0)


def test_integrate_matches_fine_step_reference():
    p = params_from_xi(0.0, 0.0)
    coarse = integrate(p["alpha"], p["gamma"],
                       DatasetConfig(kappa=KAPPA, steps=50, horizon=50.0, substeps=10))
    fine = integrate(p["alpha"], p["gamma"],
                     DatasetConfig(kappa=KAPPA, steps=50, horizon=50.0, substeps=1000))
    assert abs(coarse[0, -1] - fine[0, -1]) < 1e-6


def test_integrate_validates_arguments():
    p = params_from_xi(0.0, 0.0)
    bad = [{"steps": 1}, {"horizon": 0.0}, {"horizon": -5.0}, {"substeps": 0}]
    for kwargs in bad:
        with pytest.raises(InputError):
            integrate(p["alpha"], p["gamma"], DatasetConfig(**kwargs))
    for kwargs in [{"steps": 1}, {"horizon": -5.0}, {"substeps": 0}]:
        with pytest.raises(InputError):
            generate(DatasetConfig(seed=1, n_samples=20, **kwargs))


@pytest.mark.parametrize("setting, cause", [
    ({"kappa": 1e308}, "overflow encountered in multiply"),
    ({"horizon": 1e300}, "overflow encountered in square"),
], ids=["kappa", "horizon"])
def test_integration_blow_up_is_one_error_naming_its_step(setting, cause):
    # the loop raises numpy's overflow where it happens: no warning comes first
    # (one would fail here as an error), and the step is the stored one
    p = params_from_xi(0.0, 0.0)
    with pytest.raises(NumericalError) as info:
        integrate(p["alpha"], p["gamma"], DatasetConfig(**setting))
    assert str(info.value) == f"integration at step 1: {cause}"


@pytest.mark.parametrize("name", ["alpha", "gamma"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_integrate_rejects_non_finite_rates(name, value):
    # a nan would pass through the loop without raising an overflow or invalid flag
    p = params_from_xi(0.0, 0.0) | {name: value}
    with pytest.raises(InputError, match="alpha and gamma must be finite"):
        integrate(p["alpha"], p["gamma"], DatasetConfig())


def test_label_thresholding():
    assert label(np.full(50, 0.89)[-1]) == LABEL_REACTIVE
    assert label(np.linspace(0.89, 0.05, 50)[-1]) == LABEL_STABLE
    terminal = np.array([0.89, 0.05, 0.5, 0.51])
    assert label(terminal).tolist() == [LABEL_REACTIVE, LABEL_STABLE, LABEL_STABLE, LABEL_REACTIVE]


def test_generate_is_deterministic():
    a = generate(DatasetConfig(seed=123, n_samples=32))
    b = generate(DatasetConfig(seed=123, n_samples=32))
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.label, b.label)
    assert np.array_equal(a.split, b.split)
    c = generate(DatasetConfig(seed=124, n_samples=32))
    assert not np.array_equal(a.rho[0], c.rho[0])


def test_smaller_dataset_is_the_first_rows_of_a_larger_one():
    # row i depends only on the seed and i; only the split depends on n
    small = generate(DatasetConfig(seed=3, n_samples=200))
    large = generate(DatasetConfig(seed=3, n_samples=1280))
    assert small.rho.tobytes() == large.rho[:200].tobytes()
    for name, values in small.params.items():
        assert values.tobytes() == large.params[name][:200].tobytes(), name
    assert np.array_equal(small.label, large.label[:200])


def test_split_sizes_follow_80_10_10():
    assert split_sizes(1280) == (1024, 128, 128)
    assert split_sizes(10) == (8, 1, 1)


def test_generate_split_partitions_indices():
    # every row has exactly one split name, and each split has its 80/10/10 size
    ds = generate(DatasetConfig(seed=5, n_samples=100))
    assert ds.split.shape == (100,) and ds.split.dtype.kind == "U"
    assert np.isin(ds.split, datagen.SPLIT_NAMES).all()
    sizes = tuple(int(np.count_nonzero(ds.split == name)) for name in datagen.SPLIT_NAMES)
    assert sizes == split_sizes(100)


@pytest.mark.parametrize("n", [10, 200, 1280])
def test_split_rows_follow_the_sorted_permutation_rule(n):
    # the rule the split was defined by: a permutation drawn from the last spawned stream,
    # whose consecutive slices of the 80/10/10 sizes, sorted, are each split's row indices
    seed = 4
    perm = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed).spawn(n + 1)[n])).permutation(n)
    bounds = np.cumsum((0, *split_sizes(n)))
    ds = generate(DatasetConfig(seed=seed, n_samples=n))
    for name, a, b in zip(datagen.SPLIT_NAMES, bounds[:-1], bounds[1:]):
        rows = np.sort(perm[a:b])
        assert np.array_equal(np.flatnonzero(ds.split == name), rows), name


def test_generate_rejects_tiny_n():
    with pytest.raises(InputError):
        generate(DatasetConfig(seed=0, n_samples=5))


def test_generated_coverage_stays_physical():
    ds = generate(DatasetConfig(seed=11, n_samples=128))
    rho = ds.rho
    assert rho.min() >= 0.0
    assert rho.max() <= 1.0 + 1e-9


def test_generate_produces_both_labels():
    ds = generate(DatasetConfig(seed=2, n_samples=200))
    labels = set(ds.label)
    assert labels == {LABEL_STABLE, LABEL_REACTIVE}


def test_labels_stable_under_grid_refinement_small():
    n = 200
    ds = generate(DatasetConfig(seed=7, n_samples=n, substeps=10))
    # same draws, 10x finer integration grid
    fine = generate(DatasetConfig(seed=7, n_samples=n, substeps=100))
    flips = sum(1 for a, b in zip(ds.label, fine.label) if a != b)
    assert flips / n <= 0.005


def test_csv_roundtrip(tmp_path):
    ds = generate(DatasetConfig(seed=9, n_samples=20))
    path = tmp_path / "data.csv"
    datagen.save_csv(ds, path)
    back = datagen.load_csv(path)
    assert isinstance(back, Dataset)
    assert np.array_equal(ds.rho, back.rho)
    assert list(back.params) == ["xi1", "xi2", "alpha", "gamma"]
    for name in ds.params:
        assert np.array_equal(ds.params[name], back.params[name])
    assert np.array_equal(ds.label, back.label)
    assert np.array_equal(ds.split, back.split)


def test_csv_bytes_identical_for_same_seed(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    datagen.save_csv(generate(DatasetConfig(seed=3, n_samples=16)), p1)
    datagen.save_csv(generate(DatasetConfig(seed=3, n_samples=16)), p2)
    assert p1.read_bytes() == p2.read_bytes()
