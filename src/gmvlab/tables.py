"""The package's one CSV layer: every table it reads or writes goes through here.

`write_table` writes a header and equal-length columns, floats with 17
significant digits so files round-trip exactly, in the bytes `csv.writer`
would write. `Table` streams one back and keeps only the columns its caller
declares: numeric ones as float64 blocks, text ones as strings. It takes
`csv.reader` rows a chunk at a time and drops every other cell as it passes,
so a read holds about 8 B per numeric cell plus one chunk of text, not one
Python string (about 70 B) per cell of the file. It checks only what it
keeps, so a command checks only the columns it reads (`metric` and `align`:
`sample_id` and `mu_*` of an embeddings file), and raises InputError for the
first defect in file order, naming the file, and the line and column where
one applies: a declared column or numbered block that the header lacks comes
before any row. What a caller checks of the values it is given comes after
the whole file, such as `datagen.load_csv`'s sample_id order and its label
and split names. A read gives back what was declared as plain attributes.
Embeddings, history, report, spectrum and samples tables are mapped onto
them here; the dataset in `datagen` and the aligned coordinates in the CLI.
"""

from __future__ import annotations

import csv
import math
import re
from itertools import islice

import numpy as np

from .errors import InputError


def fmt(x) -> str:
    return format(float(x), ".17g")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text: str) -> str:
    """`text` as `csv.writer`'s default dialect (QUOTE_MINIMAL) writes a field."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(v) -> str:
    if isinstance(v, float):
        return fmt(v)
    return _quoted(v) if isinstance(v, str) else str(v)


def _cells(col):
    """A column's cells as field text; a float64 array is formatted in one pass,
    to the same text `_cell` gives each of its entries."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64:
        return map("{:.17g}".format, col.tolist())
    return map(_cell, col)


_ROWS_PER_CHUNK = 64  # rows formatted or parsed at a time, so few Python objects are alive at once


def _lines(rows, n_columns: int) -> str:
    """One or more rows of field text as CSV lines ending in CRLF. As
    `csv.writer` does, a row whose only field is empty is written as '""'."""
    lines = map(",".join, rows)
    if n_columns == 1:
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


def write_table(path, columns: dict) -> None:
    """Write a header of the column names, then one row per position of the
    equal-length columns: floats through `fmt`, everything else through `str`,
    and `str` values quoted where `csv.writer` would quote them."""
    cols = list(columns.values())
    n = len(cols[0]) if cols else 0
    if any(len(col) != n for col in cols):
        raise ValueError(f"write_table: column lengths differ: {[len(c) for c in cols]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([map(_cell, columns)], len(cols)))
        for start in range(0, n, _ROWS_PER_CHUNK):
            stop = start + _ROWS_PER_CHUNK
            fh.write(_lines(zip(*(_cells(col[start:stop]) for col in cols)), len(cols)))


def _check_distinct(names, what: str) -> None:
    """Raise InputError naming the first of `names` that repeats an earlier one."""
    seen = set()
    for name in names:
        if name in seen:
            raise InputError(f"{what} {name!r} appears twice")
        seen.add(name)


class Table:
    """The declared columns of a CSV file with a header row of distinct names
    and at least one data row, every row of the header's width.

    `floats` names the columns kept as finite float64 numbers; each must
    exist. It may instead be a function of (header, first data row) that
    returns those names. `blocks` gives prefixes: the columns `prefix`1,
    `prefix`2, ... are kept as one float64 block, in order of their distinct
    numbers, and each prefix must match a column. `text` names the columns
    kept as strings; each must exist, and a `sample_id` column must hold
    distinct integers. Every other column is dropped as the file streams.
    The header is checked against all of these before any data row is.

    The read leaves `float_names`, the `floats` as an (n, m) array in their
    order, `blocks` as {prefix: (n, k) array}, `text` as {name: list of
    strings} of the text columns other than `sample_id`, and, when that is
    declared, `sample_ids` as a list of ints in row order.
    """

    def __init__(self, path, floats=(), blocks=(), text=()):
        self.path = path
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                self.header = next(reader, [])
                _check_distinct(self.header, f"{path}: column")
                rows = list(islice(reader, _ROWS_PER_CHUNK))
                if not rows:
                    raise InputError(f"{path}: needs a header row and at least one data row")
                if callable(floats):
                    self._check_width(rows[0], 0)
                    floats = floats(self.header, rows[0])
                self._declare(floats, blocks, text)
                n = 0
                while rows:
                    self._take(rows, n)
                    n += len(rows)
                    rows = list(islice(reader, _ROWS_PER_CHUNK))
        except (csv.Error, UnicodeDecodeError) as e:
            raise InputError(f"{path}: not a readable CSV file ({e})") from None
        self.blocks = {key: np.concatenate(parts) for key, parts in self._parts.items()}
        self.floats = self.blocks.pop(None)
        if self._id is not None:
            self.sample_ids = list(self._line_of)
        del self._parts

    def _declare(self, floats, blocks, text) -> None:
        """Resolve the declared columns against the header."""
        index = {name: j for j, name in enumerate(self.header)}
        self.float_names = list(floats)
        for name in [*self.float_names, *text]:
            if name not in index:
                raise InputError(f"{self.path}: missing column {name!r}")
        groups = {None: [index[name] for name in self.float_names]}  # None: the named floats
        for prefix in blocks:
            numbered = {}  # number -> the column that has it
            for name in (name for name in self.header if name.startswith(prefix)):
                if not name[len(prefix):].isdecimal():
                    raise InputError(f"{self.path}: column {name!r} is not {prefix}<number>")
                first = numbered.setdefault(int(name[len(prefix):]), name)
                if first != name:
                    raise InputError(f"{self.path}: column {name!r} repeats number "
                                     f"{int(name[len(prefix):])} of {first!r}")
            if not numbered:
                raise InputError(f"{self.path}: no {prefix}* columns found")
            groups[prefix] = [index[numbered[number]] for number in sorted(numbered)]
        self._groups = groups
        self._parts = {key: [] for key in groups}
        self.text = {name: [] for name in text if name != "sample_id"}
        self._text = [(index[name], cells) for name, cells in self.text.items()]
        self._id = index["sample_id"] if "sample_id" in text else None
        self._line_of = {}  # sample_id -> its line
        # the checks of a row in header order: (position, whether it is the sample_id check)
        checks = {(j, False) for idx in groups.values() for j in idx}
        self._checks = sorted(checks | ({(self._id, True)} if self._id is not None else set()))

    def _at(self, i: int, name: str) -> str:
        return f"{self.path}, line {i + 2}, column {name!r}"

    def _check_width(self, row, i: int) -> None:
        if len(row) != len(self.header):
            raise InputError(f"{self.path}, line {i + 2}: {len(row)} cells, "
                             f"header has {len(self.header)}")

    def _take(self, rows, start: int) -> None:
        """Keep the declared cells of data rows start, start+1, ...; a chunk
        with any defect is rescanned row by row to name the first."""
        width = len(self.header)
        try:
            if any(len(row) != width for row in rows):
                raise ValueError
            parsed = {}
            for key, idx in self._groups.items():
                cells = [row[j] for row in rows for j in idx]
                block = np.array(cells, dtype=np.float64).reshape(len(rows), len(idx))
                if not np.isfinite(block).all():
                    raise ValueError
                parsed[key] = block
            if self._id is not None:
                ids = {int(row[self._id]): i + 2 for i, row in enumerate(rows, start)}
                if len(ids) < len(rows) or not ids.keys().isdisjoint(self._line_of):
                    raise ValueError
        except ValueError:
            self._raise_first_defect(rows, start)
        for key, block in parsed.items():
            self._parts[key].append(block)
        if self._id is not None:
            self._line_of |= ids
        for j, cells in self._text:
            cells.extend(row[j] for row in rows)

    def _raise_first_defect(self, rows, start: int):
        line_of = dict(self._line_of)
        for i, row in enumerate(rows, start):
            self._check_width(row, i)
            for j, is_id in self._checks:
                cell, name = row[j], self.header[j]
                if is_id:
                    try:
                        sid = int(cell)
                    except ValueError:
                        raise InputError(f"{self._at(i, name)}: not an integer {cell!r}") from None
                    if sid in line_of:
                        raise InputError(f"{self._at(i, name)}: {sid} repeats line {line_of[sid]}")
                    line_of[sid] = i + 2
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise InputError(f"{self._at(i, name)}: not a number {cell!r}") from None
                if not math.isfinite(value):
                    raise InputError(f"{self._at(i, name)}: non-finite value {cell!r}")
        raise AssertionError(f"{self.path}: rows from line {start + 2} failed to parse "
                             "but no cell is at fault")


def write_embeddings_csv(path, sample_ids, splits, mu, var=None, gamma=None,
                         hard_labels=None, true_labels=None) -> None:
    """Embedding table: sample_id, split, mu_*, [var_*], [gamma_*], [hard_label], [true_label]."""
    columns = {"sample_id": sample_ids, "split": splits} | _numbered("mu", mu)
    if var is not None:
        columns |= _numbered("var", var)
    if gamma is not None:
        columns |= _numbered("gamma", gamma)
    if hard_labels is not None:
        columns["hard_label"] = hard_labels
    if true_labels is not None:
        columns["true_label"] = true_labels
    write_table(path, columns)


def _numbered(name: str, block) -> dict:
    """The columns of an array with one row per table row: `name` for a 1-d
    array, else `name_i`, `name_i_j`, ... for each entry of a row, with
    1-based indices in C order."""
    block = np.asarray(block)
    return {"_".join([name, *(str(i + 1) for i in index)]): block[(slice(None), *index)]
            for index in np.ndindex(block.shape[1:])}


def read_embeddings_csv(path) -> tuple[list, np.ndarray]:
    """The columns `metric` and `align` join on: returns (sample_ids, mu),
    mu the (n, d) block of the mu_* columns. Only these are checked; any
    other column (var_*, gamma_*, split, labels) is dropped unchecked."""
    table = Table(path, blocks=("mu_",), text=("sample_id",))
    return table.sample_ids, table.blocks["mu_"]


def write_history_csv(path, history: dict) -> None:
    """The per-epoch history `train` returns: epoch, then each array's columns
    (see `_numbered`), e.g. total_loss, pi_1, mean_1_2."""
    columns = {"epoch": range(len(next(iter(history.values()))))}
    for name, values in history.items():
        columns |= _numbered(name, values)
    write_table(path, columns)


def read_quantities_csv(path, columns=None) -> tuple[list, dict]:
    """Numeric per-sample quantities keyed by sample_id.

    Returns (sample_ids, {name: array}). Picks `columns` when given, each
    named once, otherwise every column whose first row parses as a float and
    that is not an identifier, a rho_* curve value, or a label/split tag.
    """
    def numeric(header, first_row):
        skip = {"sample_id", "label", "split", "hard_label", "true_label"}
        names = [name for name, cell in zip(header, first_row)
                 if name not in skip and not name.startswith("rho_") and _is_float(cell)]
        if not names:
            raise InputError(f"{path}: no numeric quantity columns")
        return names

    if columns is not None:
        _check_distinct(columns, f"{path}: requested column")
    table = Table(path, floats=numeric if columns is None else columns, text=("sample_id",))
    return table.sample_ids, dict(zip(table.float_names, table.floats.T))


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_report_csv(path, report) -> None:
    """A `SpectralReport`, one row per quantity: quantity, k, r_percent, eta, n_components."""
    n = len(report.eta)
    write_table(path, {
        "quantity": list(report.eta),
        "k": [report.k] * n,
        "r_percent": np.full(n, report.r_percent),
        "eta": np.fromiter(report.eta.values(), np.float64, n),
        "n_components": [len(report.component_sizes)] * n,
    })


def write_spectrum_csv(path, report) -> None:
    """A `SpectralReport`'s full dump: one row per (quantity, mode)."""
    modes = range(len(report.eigenvalues))
    write_table(path, {
        "quantity": [name for name in report.coefficients for _ in modes],
        "mode": [i for _ in report.coefficients for i in modes],
        "eigenvalue": np.tile(report.eigenvalues, len(report.coefficients)),
        "alpha": np.ravel(list(report.coefficients.values())),
    })


def write_samples_csv(path, curves, clusters) -> None:
    """Generated trajectories: sample_id, rho_*, cluster."""
    curves = np.atleast_2d(curves)
    columns = {"sample_id": range(curves.shape[0])}
    columns |= {f"rho_{j}": curves[:, j] for j in range(curves.shape[1])}
    columns["cluster"] = [int(c) for c in clusters]
    write_table(path, columns)
