"""The package's one CSV layer: every table it reads or writes goes through here.

`write_table` writes a header and equal-length columns, floats with 17
significant digits so files round-trip exactly. `Table` reads one back and
validates what its callers take from it, raising InputError that names the
file, and the line and column where one applies. Embeddings, history,
report, spectrum and samples tables are mapped onto them here; the dataset
in `datagen` and the aligned coordinates in the CLI.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InputError


def fmt(x) -> str:
    return format(float(x), ".17g")


def _cell(v) -> str:
    return fmt(v) if isinstance(v, float) else str(v)


def write_table(path, columns: dict) -> None:
    """Write a header of the column names, then one row per position of the
    equal-length columns: floats through `fmt`, everything else through `str`."""
    cells = [map(_cell, col) for col in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


class Table:
    """A CSV file with a header row and at least one data row, of the header's width."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as e:
            raise InputError(f"{path}: not a readable CSV file ({e})") from None
        if len(rows) < 2:
            raise InputError(f"{path}: needs a header row and at least one data row")
        self.header = rows.pop(0)
        self.rows = rows
        width = len(self.header)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise InputError(f"{path}, line {i + 2}: {len(row)} cells, header has {width}")
        self._index = {name: j for j, name in enumerate(self.header)}

    def _at(self, i: int, name: str) -> str:
        return f"{self.path}, line {i + 2}, column {name!r}"

    def _col(self, name: str) -> int:
        if name not in self._index:
            raise InputError(f"{self.path}: missing column {name!r}")
        return self._index[name]

    def column(self, name: str) -> list:
        """The named column's cells as strings."""
        j = self._col(name)
        return [row[j] for row in self.rows]

    def floats(self, names) -> np.ndarray:
        """The named columns as an (n_rows, len(names)) float64 array of finite numbers."""
        idx = [self._col(name) for name in names]
        values = np.empty((len(self.rows), len(idx)))
        for k, j in enumerate(idx):  # one column at a time keeps the temporary lists small
            cells = [row[j] for row in self.rows]
            try:
                values[:, k] = np.array(cells, dtype=np.float64)
            except ValueError:
                i = next(i for i, cell in enumerate(cells) if not _is_float(cell))
                raise InputError(f"{self._at(i, names[k])}: not a number {cells[i]!r}") from None
        if not np.isfinite(values).all():
            i, k = np.argwhere(~np.isfinite(values))[0]
            raise InputError(f"{self._at(i, names[k])}: non-finite value "
                             f"{self.rows[i][idx[k]]!r}")
        return values

    def block(self, prefix: str) -> np.ndarray | None:
        """Columns `prefix`1, `prefix`2, ... as one float array in numeric order of
        their suffixes; None when the file has no such column."""
        names = [name for name in self.header if name.startswith(prefix)]
        for name in names:
            if not name[len(prefix):].isdecimal():
                raise InputError(f"{self.path}: column {name!r} is not {prefix}<number>")
        return self.floats(sorted(names, key=lambda n: int(n[len(prefix):]))) if names else None

    def sample_ids(self) -> list:
        """The sample_id column as distinct integers, in row order."""
        line_of = {}
        for i, cell in enumerate(self.column("sample_id")):
            try:
                sid = int(cell)
            except ValueError:
                raise InputError(f"{self._at(i, 'sample_id')}: not an integer {cell!r}") from None
            if sid in line_of:
                raise InputError(f"{self._at(i, 'sample_id')}: {sid} repeats line {line_of[sid]}")
            line_of[sid] = i + 2
        return list(line_of)


def write_embeddings_csv(path, sample_ids, splits, mu, var=None, gamma=None,
                         hard_labels=None, true_labels=None) -> None:
    """Embedding table: sample_id, split, mu_*, [var_*], [gamma_*], [hard_label], [true_label]."""
    columns = {"sample_id": sample_ids, "split": splits} | _numbered("mu_", mu)
    if var is not None:
        columns |= _numbered("var_", var)
    if gamma is not None:
        columns |= _numbered("gamma_", gamma)
    if hard_labels is not None:
        columns["hard_label"] = hard_labels
    if true_labels is not None:
        columns["true_label"] = true_labels
    write_table(path, columns)


def _numbered(prefix: str, block) -> dict:
    block = np.atleast_2d(block)
    return {f"{prefix}{j + 1}": block[:, j] for j in range(block.shape[1])}


def read_embeddings_csv(path) -> dict:
    """Read any embedding-shaped table; returns sample_ids, splits, mu and
    whatever optional columns are present."""
    table = Table(path)
    mu = table.block("mu_")
    if mu is None:
        raise InputError(f"{path}: no mu_* columns found")
    return {
        "sample_ids": table.sample_ids(),
        "splits": table.column("split") if "split" in table.header else None,
        "mu": mu,
        "var": table.block("var_"),
        "gamma": table.block("gamma_"),
        "hard_labels": table.column("hard_label") if "hard_label" in table.header else None,
        "true_labels": table.column("true_label") if "true_label" in table.header else None,
    }


def write_history_csv(path, history) -> None:
    """Per-epoch objective terms plus mixture parameters."""
    terms = ("recon", "cluster_kl", "posterior_entropy", "categorical_term", "reg", "total_loss")
    columns = {"epoch": range(len(history))} | {
        name: [float(getattr(t, name)) for t in history.terms] for name in terms}
    if len(history):
        k, d = history.means[0].shape
        means, variances = np.array(history.means), np.array(history.variances)
        columns |= _numbered("pi_", np.array(history.pi))
        columns |= {f"mean_{c + 1}_{j + 1}": means[:, c, j] for c in range(k) for j in range(d)}
        columns |= {f"var_{c + 1}_{j + 1}": variances[:, c, j]
                    for c in range(k) for j in range(d)}
    write_table(path, columns)


def read_quantities_csv(path, columns=None) -> tuple[list, dict]:
    """Numeric per-sample quantities keyed by sample_id.

    Returns (sample_ids, {name: array}). Picks `columns` when given,
    otherwise every column whose first row parses as a float and that is
    not an identifier, a rho_* curve value, or a label/split tag.
    """
    table = Table(path)
    if columns is None:
        skip = {"sample_id", "label", "split", "hard_label", "true_label"}
        columns = [name for name, cell in zip(table.header, table.rows[0])
                   if name not in skip and not name.startswith("rho_") and _is_float(cell)]
        if not columns:
            raise InputError(f"{path}: no numeric quantity columns")
    values = table.floats(columns)
    return table.sample_ids(), {name: values[:, j] for j, name in enumerate(columns)}


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_report_csv(path, reports) -> None:
    """Spectral metric reports: quantity, k, r, eta, n_components."""
    write_table(path, {
        "quantity": [rep.quantity_name for rep in reports],
        "k": [rep.k for rep in reports],
        "r_percent": [rep.r_percent for rep in reports],
        "eta": [rep.eta for rep in reports],
        "n_components": [rep.n_components for rep in reports],
    })


def write_spectrum_csv(path, reports) -> None:
    """Optional full dump: one row per (quantity, mode)."""
    write_table(path, {
        "quantity": [rep.quantity_name for rep in reports for _ in rep.eigenvalues],
        "mode": [i for rep in reports for i in range(len(rep.eigenvalues))],
        "eigenvalue": [v for rep in reports for v in rep.eigenvalues],
        "alpha": [v for rep in reports for v in rep.coefficients],
    })


def write_samples_csv(path, curves, clusters) -> None:
    """Generated trajectories: sample_id, rho_*, cluster."""
    curves = np.atleast_2d(curves)
    columns = {"sample_id": range(curves.shape[0])}
    columns |= {f"rho_{j}": curves[:, j] for j in range(curves.shape[1])}
    columns["cluster"] = [int(c) for c in clusters]
    write_table(path, columns)
