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
trajectory draws from its own SeedSequence-spawned stream, so serial and
parallel generation produce identical datasets.

`save_csv` and `load_csv` map the dataset onto a `gmvlab.tables` table,
one row per trajectory: sample_id, coverage, parameter draw, label, split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tables
from .errors import InputError, NumericalError

RHO0 = 0.89
DEFAULT_KAPPA = 10.0
DEFAULT_STEPS = 50
DEFAULT_HORIZON = 50.0
DEFAULT_SUBSTEPS = 10
DEFAULT_THRESHOLD = 0.5

LABEL_STABLE = "stable"
LABEL_REACTIVE = "reactive"

SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train / val / test
SPLIT_NAMES = ("train", "val", "test")
_PARAM_NAMES = ("xi1", "xi2", "alpha", "gamma")  # stored per row; kappa is not


@dataclass(frozen=True)
class ReactionParams:
    xi1: float
    xi2: float
    alpha: float
    gamma: float
    kappa: float = DEFAULT_KAPPA

    @classmethod
    def from_xi(cls, xi1: float, xi2: float, kappa: float = DEFAULT_KAPPA) -> "ReactionParams":
        alpha = 0.1 + np.exp(0.05 * xi1)
        gamma = 0.001 + 0.01 * np.exp(0.05 * xi2)
        return cls(xi1=float(xi1), xi2=float(xi2), alpha=float(alpha), gamma=float(gamma), kappa=float(kappa))


@dataclass
class Trajectory:
    rho: np.ndarray  # (steps,)
    params: ReactionParams
    label: str | None = None


@dataclass
class Dataset:
    trajectories: list
    split: dict  # name -> np.ndarray of indices

    def __len__(self):
        return len(self.trajectories)

    def matrix(self, split: str | None = None) -> np.ndarray:
        """Stacked rho values, (n, steps); optionally restricted to a split."""
        rows = range(len(self)) if split is None else self.split[split]
        return np.stack([self.trajectories[i].rho for i in rows])

    def labels(self, split: str | None = None) -> list:
        rows = range(len(self)) if split is None else self.split[split]
        return [self.trajectories[i].label for i in rows]

    def split_names(self) -> np.ndarray:
        """Each row's split name, in row order."""
        names = np.empty(len(self), dtype=object)
        for name, idx in self.split.items():
            names[idx] = name
        return names


def reaction_rhs(rho, p: ReactionParams):
    """Reaction rate at coverage rho; elementwise over arrays."""
    return p.alpha * (1.0 - rho) - p.gamma * rho - p.kappa * rho * (1.0 - rho) ** 2


def _rk4_paths(alpha, gamma, kappa, steps: int, horizon: float, substeps: int) -> np.ndarray:
    """Classic RK4 on a uniform grid, vectorized over trajectories.

    Integrates `substeps` internal stages per stored interval; returns the
    (m, steps) array of stored samples starting at RHO0.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    m = alpha.shape[0]

    def f(r):
        return alpha * (1.0 - r) - gamma * r - kappa * r * (1.0 - r) ** 2

    h = horizon / (steps - 1) / substeps
    out = np.empty((m, steps))
    rho = np.full(m, RHO0)
    out[:, 0] = rho
    for i in range(1, steps):
        for _ in range(substeps):
            k1 = f(rho)
            k2 = f(rho + 0.5 * h * k1)
            k3 = f(rho + 0.5 * h * k2)
            k4 = f(rho + h * k3)
            rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(rho)):
            raise NumericalError(f"integration produced non-finite state at step {i}")
        out[:, i] = rho
    return out


def integrate(p: ReactionParams, steps: int = DEFAULT_STEPS, horizon: float = DEFAULT_HORIZON,
              substeps: int = DEFAULT_SUBSTEPS) -> Trajectory:
    """Integrate one parameter draw; returns an unlabeled Trajectory."""
    if steps < 2:
        raise InputError(f"integrate needs steps >= 2, got {steps}")
    if horizon <= 0:
        raise InputError(f"integrate needs horizon > 0, got {horizon}")
    rho = _rk4_paths(p.alpha, p.gamma, p.kappa, steps, horizon, substeps)[0]
    return Trajectory(rho=rho, params=p)


def label(t: Trajectory, threshold: float = DEFAULT_THRESHOLD) -> str:
    """Reactive iff the terminal coverage exceeds the threshold."""
    return LABEL_REACTIVE if t.rho[-1] > threshold else LABEL_STABLE


def split_sizes(n: int) -> tuple[int, int, int]:
    """80/10/10 split with floor rounding; the remainder goes to test."""
    n_train = int(np.floor(SPLIT_FRACTIONS[0] * n))
    n_val = int(np.floor(SPLIT_FRACTIONS[1] * n))
    return n_train, n_val, n - n_train - n_val


def generate(seed: int, n: int = 1280, steps: int = DEFAULT_STEPS, horizon: float = DEFAULT_HORIZON,
             label_threshold: float = DEFAULT_THRESHOLD, kappa: float = DEFAULT_KAPPA,
             substeps: int = DEFAULT_SUBSTEPS) -> Dataset:
    """Sample n parameter draws, integrate, label, and split train/val/test."""
    if n < 10:
        raise InputError(f"generate needs n >= 10, got {n}")
    children = np.random.SeedSequence(seed).spawn(n + 1)
    xi = np.empty((n, 2))
    for i in range(n):
        xi[i] = np.random.Generator(np.random.PCG64(children[i])).standard_normal(2)
    params = [ReactionParams.from_xi(xi[i, 0], xi[i, 1], kappa=kappa) for i in range(n)]
    alpha = np.array([p.alpha for p in params])
    gamma = np.array([p.gamma for p in params])
    rho = _rk4_paths(alpha, gamma, kappa, steps, horizon, substeps)
    if rho.min() < 0.0 or rho.max() > 1.0 + 1e-9:
        raise NumericalError(
            f"generated coverage out of [0, 1]: min={rho.min():.6g} max={rho.max():.6g}"
        )
    trajectories = []
    for i in range(n):
        t = Trajectory(rho=rho[i], params=params[i])
        t.label = label(t, threshold=label_threshold)
        trajectories.append(t)

    split_rng = np.random.Generator(np.random.PCG64(children[n]))
    perm = split_rng.permutation(n)
    n_train, n_val, n_test = split_sizes(n)
    split = {
        "train": np.sort(perm[:n_train]),
        "val": np.sort(perm[n_train:n_train + n_val]),
        "test": np.sort(perm[n_train + n_val:]),
    }
    return Dataset(trajectories=trajectories, split=split)


def save_csv(dataset: Dataset, path) -> None:
    """One row per trajectory: sample_id, rho_0..rho_{S-1}, xi1, xi2, alpha, gamma, label, split."""
    rho = dataset.matrix()
    params = [t.params for t in dataset.trajectories]
    columns = {"sample_id": range(len(dataset))}
    columns |= {f"rho_{j}": rho[:, j] for j in range(rho.shape[1])}
    columns |= {name: [float(getattr(p, name)) for p in params] for name in _PARAM_NAMES}
    columns |= {"label": dataset.labels(), "split": dataset.split_names()}
    tables.write_table(path, columns)


def load_csv(path, kappa: float = DEFAULT_KAPPA) -> Dataset:
    """Inverse of save_csv. The kappa column is not stored; pass it if non-default."""
    table = tables.Table(path)
    for i, sid in enumerate(table.sample_ids()):
        if sid != i:
            raise InputError(f"{path}, line {i + 2}: sample_id {sid}, expected {i}")
    rho = table.block("rho_")
    if rho is None:
        raise InputError(f"{path}: no rho_* columns found")
    params = table.floats(_PARAM_NAMES)
    splits, labels = np.array(table.column("split")), np.array(table.column("label"))
    del table  # free the cells before the per-row objects below take memory among them
    unknown = np.flatnonzero(~np.isin(splits, SPLIT_NAMES))
    if unknown.size:
        raise InputError(f"{path}, line {unknown[0] + 2}: unknown split {splits[unknown[0]]!r}")
    trajectories = [Trajectory(rho=r, params=ReactionParams(*p, kappa=kappa), label=lab)
                    for r, p, lab in zip(rho, params.tolist(), labels.tolist())]
    split = {name: np.flatnonzero(splits == name) for name in SPLIT_NAMES}
    return Dataset(trajectories=trajectories, split=split)
