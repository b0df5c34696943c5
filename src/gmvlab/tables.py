"""Shared CSV schemas: embeddings, training history, metric reports, samples.

Every file carries a header row and a sample_id key column; floats are
written with 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InputError


def fmt(x) -> str:
    return format(float(x), ".17g")


def write_embeddings_csv(path, sample_ids, splits, mu, var=None, gamma=None,
                         hard_labels=None, true_labels=None) -> None:
    """Embedding table: sample_id, split, mu_*, [var_*], [gamma_*], [hard_label], [true_label]."""
    mu = np.atleast_2d(mu)
    n, d = mu.shape
    header = ["sample_id", "split"] + [f"mu_{j + 1}" for j in range(d)]
    if var is not None:
        header += [f"var_{j + 1}" for j in range(d)]
    if gamma is not None:
        header += [f"gamma_{c + 1}" for c in range(np.atleast_2d(gamma).shape[1])]
    if hard_labels is not None:
        header.append("hard_label")
    if true_labels is not None:
        header.append("true_label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [str(sample_ids[i]), str(splits[i])] + [fmt(v) for v in mu[i]]
            if var is not None:
                row += [fmt(v) for v in var[i]]
            if gamma is not None:
                row += [fmt(v) for v in gamma[i]]
            if hard_labels is not None:
                row.append(str(hard_labels[i]))
            if true_labels is not None:
                row.append(str(true_labels[i]))
            writer.writerow(row)


def read_embeddings_csv(path) -> dict:
    """Read any embedding-shaped table; returns sample_ids, splits, mu and
    whatever optional columns are present."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if "sample_id" not in header:
        raise InputError(f"{path}: missing sample_id column")
    idx = {name: j for j, name in enumerate(header)}
    mu_cols = sorted((name for name in header if name.startswith("mu_")),
                     key=lambda s: int(s.split("_")[1]))
    if not mu_cols:
        raise InputError(f"{path}: no mu_* columns found")
    var_cols = sorted((name for name in header if name.startswith("var_")),
                      key=lambda s: int(s.split("_")[1]))
    gamma_cols = sorted((name for name in header if name.startswith("gamma_")),
                        key=lambda s: int(s.split("_")[1]))
    out = {
        "sample_ids": [int(r[idx["sample_id"]]) for r in rows],
        "splits": [r[idx["split"]] for r in rows] if "split" in idx else None,
        "mu": np.array([[float(r[idx[c]]) for c in mu_cols] for r in rows]),
        "var": np.array([[float(r[idx[c]]) for c in var_cols] for r in rows]) if var_cols else None,
        "gamma": np.array([[float(r[idx[c]]) for c in gamma_cols] for r in rows]) if gamma_cols else None,
        "hard_labels": [r[idx["hard_label"]] for r in rows] if "hard_label" in idx else None,
        "true_labels": [r[idx["true_label"]] for r in rows] if "true_label" in idx else None,
    }
    return out


def write_history_csv(path, history) -> None:
    """Per-epoch objective terms plus mixture parameters."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if len(history) == 0:
            writer.writerow(["epoch", "recon", "cluster_kl", "posterior_entropy",
                             "categorical_term", "reg", "total_loss"])
            return
        k, d = history.means[0].shape
        header = ["epoch", "recon", "cluster_kl", "posterior_entropy", "categorical_term",
                  "reg", "total_loss"]
        header += [f"pi_{c + 1}" for c in range(k)]
        header += [f"mean_{c + 1}_{j + 1}" for c in range(k) for j in range(d)]
        header += [f"var_{c + 1}_{j + 1}" for c in range(k) for j in range(d)]
        writer.writerow(header)
        for e, terms in enumerate(history.terms):
            row = [str(e)] + [fmt(v) for v in (terms.recon, terms.cluster_kl,
                                               terms.posterior_entropy, terms.categorical_term,
                                               terms.reg, terms.total_loss)]
            row += [fmt(v) for v in history.pi[e]]
            row += [fmt(v) for v in history.means[e].ravel()]
            row += [fmt(v) for v in history.variances[e].ravel()]
            writer.writerow(row)


def read_quantities_csv(path, columns=None) -> tuple[list, dict]:
    """Numeric per-sample quantities keyed by sample_id.

    Returns (sample_ids, {name: array}). Picks `columns` when given,
    otherwise every numeric column that is not an identifier, a rho_* curve
    value, or a label/split tag.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if "sample_id" not in header:
        raise InputError(f"{path}: missing sample_id column")
    idx = {name: j for j, name in enumerate(header)}
    skip = {"sample_id", "label", "split", "hard_label", "true_label"}
    if columns is None:
        columns = [name for name in header
                   if name not in skip and not name.startswith("rho_")]
        columns = [c for c in columns if rows and _is_float(rows[0][idx[c]])]
    else:
        missing = [c for c in columns if c not in idx]
        if missing:
            raise InputError(f"{path}: requested quantity columns not found: {missing}")
    sample_ids = [int(r[idx["sample_id"]]) for r in rows]
    quantities = {c: np.array([float(r[idx[c]]) for r in rows]) for c in columns}
    return sample_ids, quantities


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_report_csv(path, reports) -> None:
    """Spectral metric reports: quantity, k, r, eta, n_components."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "k", "r_percent", "eta", "n_components"])
        for rep in reports:
            writer.writerow([rep.quantity_name, str(rep.k), fmt(rep.r_percent),
                             fmt(rep.eta), str(rep.n_components)])


def write_spectrum_csv(path, reports) -> None:
    """Optional full dump: one row per (quantity, mode)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "mode", "eigenvalue", "alpha"])
        for rep in reports:
            for i, (lam, a) in enumerate(zip(rep.eigenvalues, rep.coefficients)):
                writer.writerow([rep.quantity_name, str(i), fmt(lam), fmt(a)])


def write_samples_csv(path, curves, clusters) -> None:
    """Generated trajectories: sample_id, rho_*, cluster."""
    curves = np.atleast_2d(curves)
    steps = curves.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id"] + [f"rho_{j}" for j in range(steps)] + ["cluster"])
        for i in range(curves.shape[0]):
            writer.writerow([str(i)] + [fmt(v) for v in curves[i]] + [str(int(clusters[i]))])
