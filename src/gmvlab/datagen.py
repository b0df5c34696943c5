"""Surface-reaction bifurcation dataset.

A scalar coverage variable rho evolves under

    d(rho)/dt = alpha * (1 - rho) - gamma * rho - kappa * rho * (1 - rho)**2

from rho(0) = 0.89, with alpha = 0.1 + exp(0.05 * xi1) and
gamma = 0.001 + 0.01 * exp(0.05 * xi2) drawn from standard-normal xi.
Near the default parameters the system is bistable and the initial value
sits close to the separatrix, so sampled parameters split trajectories
into a low-equilibrium ("stable") and a high-equilibrium ("reactive")
family; the terminal value against a threshold gives the class label.

Randomness uses numpy's PCG64 generator (ziggurat normal sampling); each
trajectory draws from its own SeedSequence-spawned stream, so row i depends
only on the seed and i: an n-row dataset is the first n rows of any larger
one at the same seed, and only the train/val/test split depends on n.
`generate` and `integrate` take a `config.DatasetConfig`, which holds the
range rules and checks them when it is built.

A `Dataset` is a set of columns: the (n, steps) coverage matrix, one (n,)
array per parameter draw, the (n,) labels and the (n,) split names; the
mask `dataset.split == name` selects a split's rows.
`save_csv` and `load_csv` map them onto a `gmvlab.tables` table, one row
per trajectory: sample_id, coverage, parameter draw, label, split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .config import DatasetConfig
from .errors import InputError, NumericalError

RHO0 = 0.89

LABEL_STABLE = "stable"
LABEL_REACTIVE = "reactive"

SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train / val / test
SPLIT_NAMES = ("train", "val", "test")
_PARAM_NAMES = ("xi1", "xi2", "alpha", "gamma")  # stored per row; kappa is not


@dataclass
class Dataset:
    rho: np.ndarray  # (n, steps) coverage
    params: dict  # name in _PARAM_NAMES -> (n,) draws
    label: np.ndarray  # (n,) LABEL_STABLE or LABEL_REACTIVE
    split: np.ndarray  # (n,) a name in SPLIT_NAMES

    def __len__(self):
        return self.rho.shape[0]


def reaction_rhs(rho, alpha, gamma, kappa):
    """Reaction rate at coverage rho; elementwise over arrays."""
    return alpha * (1.0 - rho) - gamma * rho - kappa * rho * (1.0 - rho) ** 2


def params_from_xi(xi1, xi2) -> dict:
    """The parameter draw for standard-normal xi1, xi2 as {xi1, xi2, alpha, gamma}; elementwise."""
    xi1, xi2 = np.asarray(xi1, dtype=np.float64), np.asarray(xi2, dtype=np.float64)
    return {"xi1": xi1, "xi2": xi2,
            "alpha": 0.1 + np.exp(0.05 * xi1), "gamma": 0.001 + 0.01 * np.exp(0.05 * xi2)}


def integrate(alpha, gamma, cfg: DatasetConfig) -> np.ndarray:
    """Classic RK4 on a uniform grid, vectorized over m parameter draws.

    Integrates `cfg.substeps` internal stages per stored interval; returns
    the (m, cfg.steps) array of stored samples starting at RHO0. `alpha` and
    `gamma` must be finite (InputError). The loop runs with numpy's overflow
    and invalid-operation errors raised, so a blow-up is raised before numpy
    can warn, as one `NumericalError("integration at step i: <cause>")` naming
    the stored step it was integrating towards.
    """
    kappa, steps, substeps = cfg.kappa, cfg.steps, cfg.substeps
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    if not (np.isfinite(alpha).all() and np.isfinite(gamma).all()):
        raise InputError("integrate: alpha and gamma must be finite")  # a nan raises no flag
    m = alpha.shape[0]

    h = cfg.horizon / (steps - 1) / substeps
    out = np.empty((m, steps))
    rho = np.full(m, RHO0)
    out[:, 0] = rho
    try:
        with np.errstate(over="raise", invalid="raise"):
            for i in range(1, steps):
                for _ in range(substeps):
                    k1 = reaction_rhs(rho, alpha, gamma, kappa)
                    k2 = reaction_rhs(rho + 0.5 * h * k1, alpha, gamma, kappa)
                    k3 = reaction_rhs(rho + 0.5 * h * k2, alpha, gamma, kappa)
                    k4 = reaction_rhs(rho + h * k3, alpha, gamma, kappa)
                    rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out[:, i] = rho
    except FloatingPointError as e:
        raise NumericalError(f"integration at step {i}: {e}") from e
    return out


def label(terminal, threshold: float = DatasetConfig.label_threshold) -> np.ndarray:
    """Reactive where the terminal coverage exceeds the threshold; elementwise."""
    return np.where(np.asarray(terminal) > threshold, LABEL_REACTIVE, LABEL_STABLE)


def split_sizes(n: int) -> tuple[int, int, int]:
    """80/10/10 split with floor rounding; the remainder goes to test."""
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * n))
    return n_train, n_val, n - n_train - n_val


def generate(cfg: DatasetConfig) -> Dataset:
    """Sample cfg.n_samples parameter draws, integrate, label, and split train/val/test."""
    n = cfg.n_samples
    children = np.random.SeedSequence(cfg.seed).spawn(n + 1)
    xi = np.empty((n, 2))
    for i in range(n):
        xi[i] = np.random.Generator(np.random.PCG64(children[i])).standard_normal(2)
    params = params_from_xi(xi[:, 0], xi[:, 1])
    rho = integrate(params["alpha"], params["gamma"], cfg)
    if rho.min() < 0.0 or rho.max() > 1.0 + 1e-9:
        raise NumericalError(
            f"generated coverage out of [0, 1]: min={rho.min():.6g} max={rho.max():.6g}"
        )

    # the permutation's first n_train rows are train, the next n_val val, the rest test
    perm = np.random.Generator(np.random.PCG64(children[n])).permutation(n)
    split = np.repeat(SPLIT_NAMES, split_sizes(n))[np.argsort(perm)]
    return Dataset(rho=rho, params=params, label=label(rho[:, -1], cfg.label_threshold),
                   split=split)


def save_csv(dataset: Dataset, path) -> None:
    """One row per trajectory: sample_id, rho_0..rho_{S-1}, xi1, xi2, alpha, gamma, label, split."""
    rho = dataset.rho
    columns = {"sample_id": range(len(dataset))}
    columns |= {f"rho_{j}": rho[:, j] for j in range(rho.shape[1])}
    columns |= {name: dataset.params[name] for name in _PARAM_NAMES}
    columns |= {"label": dataset.label, "split": dataset.split}
    tables.write_table(path, columns)


def load_csv(path) -> Dataset:
    """Inverse of save_csv."""
    table = tables.Table(path, floats=_PARAM_NAMES, blocks=("rho_",), text=("label", "split"))
    for i, sid in enumerate(table.sample_ids):
        if sid != i:
            raise InputError(f"{path}, line {i + 2}: sample_id {sid}, expected {i}")
    text = {}
    for name, allowed in (("split", SPLIT_NAMES), ("label", (LABEL_STABLE, LABEL_REACTIVE))):
        text[name] = np.array(table.text[name])
        unknown = np.flatnonzero(~np.isin(text[name], allowed))
        if unknown.size:
            raise InputError(f"{path}, line {unknown[0] + 2}: unknown {name} "
                             f"{str(text[name][unknown[0]])!r}")
    return Dataset(rho=table.blocks["rho_"], params=dict(zip(_PARAM_NAMES, table.floats.T)),
                   **text)
