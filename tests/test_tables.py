"""CSV schema helpers: exact float round-trips, optional columns, validated reads."""

import contextlib
import csv
import io
import json
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gmvlab import datagen
from gmvlab.cli import main
from gmvlab.config import DatasetConfig, ModelConfig, load_config
from gmvlab.errors import InputError
from gmvlab.gmvae import ElboTerms, GmVae, save_checkpoint
from gmvlab.spectral import SpectralReport
from gmvlab.tables import (
    Table,
    fmt,
    read_embeddings_csv,
    read_quantities_csv,
    write_embeddings_csv,
    write_history_csv,
    write_report_csv,
    write_samples_csv,
    write_spectrum_csv,
    write_table,
)


def test_fmt_is_17_significant_digits_round_trip():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(100) * 10.0 ** rng.integers(-12, 12, 100):
        assert float(fmt(x)) == x


def test_write_table_bytes_match_the_per_cell_path(tmp_path):
    rng = np.random.default_rng(2)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1.5, 0.1, np.inf]
    # 150 rows: the writer formats a few dozen rows at a time, so chunks end mid-table
    spread = rng.standard_normal(142) * 10.0 ** rng.integers(-300, 300, 142)
    floats = np.concatenate([special, spread])
    n = floats.size
    columns = {
        "float64_array": floats,
        "strided_view": np.column_stack([floats, floats[::-1]])[:, 1],
        "python_floats": floats.tolist(),
        "numpy_scalars": list(floats),
        "ints": list(range(n)),
        "int_array": np.arange(n) - 3,
        "strings": [f"s{i}" for i in range(n)],
        # cells csv.writer quotes: the delimiter, the quote character, CR and LF
        "quoted, \"header\"": (["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "", '"', ",", "\r\n"]
                               * n)[:n],
        "label_array": np.array(["stable", "re,active"] * (n // 2)),
        "float32_array": rng.standard_normal(n).astype(np.float32),
    }

    def per_cell(v):  # the one-cell-at-a-time rule write_table documents
        return format(float(v), ".17g") if isinstance(v, float) else str(v)

    def csv_writer_bytes(columns):
        want = tmp_path / "want.csv"
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(zip(*[[per_cell(v) for v in col] for col in columns.values()]))
        return want.read_bytes()

    path = tmp_path / "t.csv"
    write_table(path, columns)
    assert path.read_bytes() == csv_writer_bytes(columns)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "-0" and rows[3][0] == "4.9406564584124654e-324"
    assert [row[-1] for row in rows[1:]] == [str(v) for v in columns["float32_array"]]
    assert [row[-3] for row in rows[1:]] == columns["quoted, \"header\""]
    # one column: csv.writer writes a row whose only cell is empty as ""
    for one in ({"only": ["x", "", "y,z", ""]}, {"": ["", "a"]}, {"empty": []}):
        write_table(path, one)
        assert path.read_bytes() == csv_writer_bytes(one)
    with pytest.raises(ValueError, match="lengths differ"):
        write_table(tmp_path / "ragged.csv", {"a": floats, "b": floats[1:]})


def test_embeddings_round_trip_full_schema(tmp_path):
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((5, 2))
    var = rng.uniform(0.1, 1.0, (5, 2))
    gamma = rng.dirichlet(np.ones(3), size=5)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, list(range(5)), ["train"] * 5, mu, var=var, gamma=gamma,
                         hard_labels=[0, 1, 2, 0, 1], true_labels=["a"] * 5)
    back = Table(path, blocks=("mu_", "var_", "gamma_"), text=("split", "hard_label", "true_label"))
    assert back.sample_ids == [0, 1, 2, 3, 4]
    assert np.array_equal(back.blocks["mu_"], mu)
    assert np.array_equal(back.blocks["var_"], var)
    assert np.array_equal(back.blocks["gamma_"], gamma)
    assert back.text == {"split": ["train"] * 5, "hard_label": ["0", "1", "2", "0", "1"],
                         "true_label": ["a"] * 5}
    assert back.floats.shape == (5, 0)
    sample_ids, back_mu = read_embeddings_csv(path)
    assert sample_ids == [0, 1, 2, 3, 4] and np.array_equal(back_mu, mu)


def test_embeddings_minimal_schema(tmp_path):
    mu = np.zeros((3, 2))
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, [7, 8, 9], ["test"] * 3, mu)
    back = Table(path, blocks=("mu_",))
    assert back.sample_ids == [7, 8, 9] and back.text == {}
    assert list(back.blocks) == ["mu_"]
    assert back.header == ["sample_id", "split", "mu_1", "mu_2"]
    for prefix in ("var_", "gamma_"):
        with pytest.raises(InputError, match=rf"no {prefix}\* columns found"):
            Table(path, blocks=("mu_", prefix))


def test_read_embeddings_checks_only_sample_id_and_mu(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("sample_id,split,mu_1,var_1,var_explained,true_label\n"
                    "4,nowhere,1.5,nan,x,\n"
                    "2,test,-2.0,inf,,stable\n")
    sample_ids, mu = read_embeddings_csv(path)
    assert sample_ids == [4, 2]
    assert mu.tolist() == [[1.5], [-2.0]]


def test_read_embeddings_requires_mu(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,split\n0,train\n")
    with pytest.raises(InputError, match="mu_"):
        read_embeddings_csv(path)


def test_numbered_block_is_ordered_by_number_not_by_position(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("sample_id,mu_10,mu_2,mu_1\n0,10.0,2.0,1.0\n")
    assert read_embeddings_csv(path)[1].tolist() == [[1.0, 2.0, 10.0]]


@pytest.mark.parametrize("read, message", [
    (lambda path: Table(path, floats=["a", "b"]), "missing column 'b'"),
    (lambda path: Table(path, floats=["a"], text=["b"]), "missing column 'b'"),
    (lambda path: Table(path, floats=["a"], blocks=["v_"]), r"no v_\* columns found"),
    (read_embeddings_csv, r"no mu_\* columns found"),
    (datagen.load_csv, r"no rho_\* columns found"),
], ids=["float", "text", "block", "embeddings-mu", "dataset-rho"])
def test_a_missing_declared_column_is_the_first_defect(tmp_path, read, message):
    # the header comes before every cell, so its defects are reported first: line 2
    # has a sample_id that is not an integer and a non-finite float
    path = tmp_path / "t.csv"
    path.write_text("sample_id,a,xi1,xi2,alpha,gamma,label,split\n"
                    "x,nan,0,0,1,1,stable,train\n")
    with pytest.raises(InputError, match=message):
        read(path)


@pytest.mark.parametrize("prefix", ["mu_", "rho_"])
def test_numbered_columns_with_one_number_raise_naming_both(tmp_path, prefix):
    path = tmp_path / "twice.csv"
    path.write_text(f"sample_id,{prefix}1,{prefix}2,{prefix}01\n0,1.0,2.0,3.0\n")
    with pytest.raises(InputError, match=f"column '{prefix}01' repeats number 1 of '{prefix}1'"):
        Table(path, blocks=(prefix,))


@pytest.mark.parametrize("content", [b"", b"sample_id,mu_1\n", b"\xff\xfe\x00\x81\n",
                                     b"sample_id,mu_1\n0," + b"9" * 200_000 + b"\n"],
                         ids=["empty", "header-only", "binary", "oversized-cell"])
def test_unreadable_file_raises_input_error_naming_it(tmp_path, content):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(InputError, match="bad.csv"):
        read_embeddings_csv(path)


def test_every_table_is_keyed_by_sample_id(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,mu_1\n0,1.0\n")
    with pytest.raises(InputError, match="missing column 'sample_id'"):
        Table(path, blocks=("mu_",))


def test_the_header_is_checked_before_any_row_is_read(tmp_path):
    # line 3's cell is past csv's field limit; the header, which lacks mu_*, comes first
    path = tmp_path / "emb.csv"
    path.write_bytes(b"sample_id,split\n0,train\n1," + b"9" * 200_000 + b"\n")
    with pytest.raises(InputError, match=r"no mu_\* columns found"):
        read_embeddings_csv(path)


def test_quantities_auto_column_selection(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text(
        "sample_id,rho_0,rho_1,alpha,gamma,label,split,hard_label,true_label\n"
        "0,0.89,0.9,1.1,0.011,reactive,train,1,reactive\n"
        "1,0.89,0.8,1.2,0.012,stable,test,0,stable\n"
    )
    ids, quantities = read_quantities_csv(path)
    assert ids == [0, 1]
    assert set(quantities) == {"alpha", "gamma"}
    assert np.array_equal(quantities["alpha"], [1.1, 1.2])


@pytest.mark.parametrize("rows, line", [(["0,1.0,x", "1,2.0,3"], 2), (["1,2.0,3", "0,1.0,x"], 3)],
                         ids=["text-first", "number-first"])
def test_default_quantities_follow_from_the_header_not_the_rows(tmp_path, rows, line):
    # every column but the key, the tags and rho_* is a quantity, whatever row comes first
    path = tmp_path / "q.csv"
    path.write_text("sample_id,a,note\n" + "\n".join(rows) + "\n")
    with pytest.raises(InputError, match=f"line {line}, column 'note': not a number 'x'"):
        read_quantities_csv(path)
    ids, quantities = read_quantities_csv(path, columns=["a"])
    assert ids == [int(row[0]) for row in rows] and list(quantities) == ["a"]


def test_quantities_missing_requested_column(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("sample_id,alpha\n0,1.0\n")
    with pytest.raises(InputError, match="pressure"):
        read_quantities_csv(path, columns=["pressure"])
    path.write_text("sample_id,rho_0,label\n0,0.5,stable\n")
    with pytest.raises(InputError, match="no quantity columns"):
        read_quantities_csv(path)


def _read_columns(path):
    """A written table as {name: list of cells}, read with csv.reader: the
    history, report and spectrum tables have no sample_id, so `Table` does
    not read them."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _floats(columns, names):
    return np.array([columns[name] for name in names], dtype=np.float64).T


def test_history_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    history = {name: rng.standard_normal(3) for name in ElboTerms.COLUMNS}
    history |= {"pi": rng.dirichlet(np.ones(2), size=3), "mean": rng.standard_normal((3, 2, 3)),
                "var": rng.uniform(0.1, 1.0, (3, 2, 3))}
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    names = {prefix: [f"{prefix}_{c + 1}_{j + 1}" for c in range(2) for j in range(3)]
             for prefix in ("mean", "var")}
    columns = _read_columns(path)
    assert columns["epoch"] == ["0", "1", "2"]
    assert np.array_equal(_floats(columns, ElboTerms.COLUMNS),
                          np.column_stack([history[name] for name in ElboTerms.COLUMNS]))
    assert np.array_equal(_floats(columns, ["pi_1", "pi_2"]), history["pi"])
    assert np.array_equal(_floats(columns, names["mean"]), np.reshape(history["mean"], (3, 6)))
    assert np.array_equal(_floats(columns, names["var"]), np.reshape(history["var"], (3, 6)))
    assert list(columns) == ["epoch", *ElboTerms.COLUMNS, "pi_1", "pi_2", *names["mean"],
                             *names["var"]]


def _report():
    rng = np.random.default_rng(3)
    names = ("alpha", "gamma")
    return SpectralReport(k=3, r_percent=20.0, component_sizes=[4],
                          eigenvalues=np.sort(rng.uniform(0.0, 4.0, 4)),
                          coefficients={name: rng.standard_normal(4) for name in names},
                          eta={name: rng.uniform() for name in names})


def test_report_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "report.csv"
    write_report_csv(path, report)
    columns = _read_columns(path)
    assert columns["quantity"] == ["alpha", "gamma"]
    assert np.array_equal(_floats(columns, ["k", "r_percent", "eta", "n_components"]),
                          [[3, 20.0, report.eta[name], 1] for name in ("alpha", "gamma")])


def test_spectrum_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, report)
    columns = _read_columns(path)
    assert columns["quantity"] == ["alpha"] * 4 + ["gamma"] * 4
    assert columns["mode"] == ["0", "1", "2", "3"] * 2
    values = _floats(columns, ["eigenvalue", "alpha"])
    for i, name in enumerate(("alpha", "gamma")):
        assert np.array_equal(values[4 * i:4 * i + 4, 0], report.eigenvalues)
        assert np.array_equal(values[4 * i:4 * i + 4, 1], report.coefficients[name])


def test_samples_round_trip(tmp_path):
    curves = np.random.default_rng(4).uniform(0.0, 1.0, (5, 7))
    clusters = np.array([0, 1, 1, 0, 1])
    path = tmp_path / "samples.csv"
    write_samples_csv(path, curves, clusters)
    table = Table(path, blocks=["rho_"], text=["cluster"])
    assert table.sample_ids == [0, 1, 2, 3, 4]
    assert np.array_equal(table.blocks["rho_"], curves)
    assert table.text == {"cluster": ["0", "1", "1", "0", "1"]}


# the float columns each CSV kind's "scale" mutation multiplies by a power of ten,
# and the readers of each kind
_SCALED = {"dataset": "rho_", "embeddings": "mu_", "quantities": "q"}
_READERS = {"dataset": (read_quantities_csv, datagen.load_csv),
            "embeddings": (read_quantities_csv, read_embeddings_csv),
            "quantities": (read_quantities_csv,)}


def _mutated(text, draw, scaled):
    """`text` truncated at a random byte, with a random cell replaced by random
    text, with a column dropped, or with every cell of the columns whose names
    start with `scaled` multiplied by 1, 2, 4 or 8 times 10**k."""
    rows = [line.split(",") for line in text.splitlines()]
    how = draw(st.sampled_from(["truncate", "replace-cell", "drop-column", "scale"]))
    if how == "truncate":
        data = text.encode()
        return data[:draw(st.integers(0, len(data)))]
    if how == "replace-cell":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] = draw(st.text(st.characters(codec="utf-8"), max_size=6))
    elif how == "drop-column":
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows = [row[:j] + row[j + 1:] for row in rows]
    else:  # 0.0 and inf at the ends
        factor = float(f"{draw(st.sampled_from([1, 2, 4, 8]))}e{draw(st.integers(-330, 330))}")
        columns = [j for j, name in enumerate(rows[0]) if name.startswith(scaled)]
        for row in rows[1:]:
            for j in columns:
                row[j] = repr(float(row[j]) * factor)
    return ("\n".join(",".join(row) for row in rows) + "\n").encode()


# every size key is set here, small: a mutated config may drop a line, and the
# default that would replace it (20000 epochs, 1280 rows) runs for minutes
_CONFIG = """[dataset]
n_samples = 10
steps = 5
substeps = 10
horizon = 5.0
seed = 0
[model]
latent_dim = 2
n_clusters = 2
hidden_dims = 4
[training]
epochs = 2
batch_size = 4
[metric]
k = 3
"""
_SIZE_KEYS = ("n_samples", "steps", "substeps", "latent_dim", "n_clusters", "hidden_dims",
              "epochs", "batch_size")
# what a size key is set to: never a large value
_SIZES = ["-1", "0", "1", "2", "3", "11", "", "x", "1.5", "1e3", "2, 2", "3,"]
_VALUES = ["1e308", "-1e308", "5e-324", "1e-308", "0", "-0", "nan", "inf", "-1", "1" + "0" * 400]


def _mutated_config(draw):
    """`_CONFIG` with a value replaced, or a line other than a size key's dropped
    or replaced by random text."""
    lines = _CONFIG.splitlines()
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    other = [i for i, line in enumerate(lines) if line.split(" =")[0] not in _SIZE_KEYS]
    how = draw(st.sampled_from(["replace-value", "drop-line", "replace-line"]))
    text = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=6)
    if how == "replace-value":
        i = draw(st.sampled_from(keyed))
        key = lines[i].split(" =")[0]
        value = draw(st.sampled_from(_SIZES) if key in _SIZE_KEYS
                     else st.one_of(st.sampled_from(_VALUES), text))
        lines[i] = f"{key} = {value}"
    elif how == "drop-line":
        del lines[draw(st.sampled_from(other))]
    else:
        lines[draw(st.sampled_from(other))] = draw(text)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("valid")
    config = directory / "config.ini"
    config.write_text(_CONFIG)
    dataset, embeddings = directory / "dataset.csv", directory / "embeddings.csv"
    quantities = directory / "quantities.csv"
    small = load_config(config).dataset
    datagen.save_csv(datagen.generate(small), dataset)
    rng = np.random.default_rng(5)
    n = small.n_samples
    write_embeddings_csv(embeddings, list(range(n)), ["train"] * n, rng.standard_normal((n, 2)),
                         var=rng.uniform(0.1, 1.0, (n, 2)),
                         gamma=rng.dirichlet(np.ones(2), size=n), hard_labels=[0, 1] * (n // 2),
                         true_labels=["a", "b"] * (n // 2))
    write_table(quantities, {"sample_id": range(n), "q1": rng.standard_normal(n),
                             "q2": rng.uniform(0.0, 1.0, n)})
    checkpoint = directory / "checkpoint.json"
    model = GmVae.init(small.steps, ModelConfig(hidden_dims=(4,)), np.random.default_rng(6))
    save_checkpoint(model, checkpoint, config={})
    return directory, {"dataset": dataset.read_text(), "embeddings": embeddings.read_text(),
                       "quantities": quantities.read_text(), "checkpoint": checkpoint.read_text()}


# the program's own diagnostics, each shown next to a result it qualifies, as when a
# mutated 10-point embedding's kNN graph splits, coverage scaled towards zero leaves
# MDS fewer positive eigenvalues than coordinates, or a quoted cell that runs to the
# end of the file leaves align 4 rows. A numpy warning is never one of them
_PROGRAM_WARNINGS = ("warning: kNN graph is disconnected", "warning: classical MDS: only ",
                     "warning: fit_affine: only ", "warning: cluster ")


def _exits_cleanly(argv, allowed_warnings=()):
    """Run `main(argv)` under the exit-code contract: a code of 0, 1 or 2 and no
    exception; a failure is exactly one stderr line, and a success prints no
    warning but those starting with one of `allowed_warnings` (numpy's shown as
    the CLI shows it, not raised)."""
    stderr = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings()):
        warnings.simplefilter("always")
        code = main(argv)
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert len(lines) == 1, (argv, lines)
    else:
        assert not [line for line in lines if line.startswith("warning:")
                    and not line.startswith(allowed_warnings)], (argv, lines)


def _commands(kind, path, directory, out):
    """The commands that read a file of `kind` at `path`, the others valid."""
    d = {name: str(directory / name) for name in
         ("config.ini", "dataset.csv", "embeddings.csv", "quantities.csv", "checkpoint.json")}
    if kind == "config":
        return [["generate", "--config", path, "--out", f"{out}/data.csv"],
                ["train", "--config", path, "--dataset", d["dataset.csv"], "--out", f"{out}/run",
                 "--quiet"],
                ["metric", "--config", path, "--embeddings", d["embeddings.csv"],
                 "--quantities", d["quantities.csv"], "--out", f"{out}/report.csv"]]
    embeddings = path if kind == "embeddings" else d["embeddings.csv"]
    quantities = path if kind != "embeddings" else d["quantities.csv"]
    commands = [["metric", "--embeddings", embeddings, "--quantities", quantities, "--k", "3",
                 "--out", f"{out}/report.csv"],
                ["align", "--embeddings", embeddings, "--params", quantities,
                 "--out", f"{out}/align"]]
    if kind == "dataset":
        commands += [["baseline", "--method", "mds", "--dataset", path, "--out", f"{out}/b.csv"],
                     ["baseline", "--method", "isomap", "--k", "3", "--dataset", path,
                      "--out", f"{out}/b.csv"],
                     ["train", "--config", d["config.ini"], "--dataset", path,
                      "--out", f"{out}/run", "--quiet"],
                     ["embed", "--checkpoint", d["checkpoint.json"], "--dataset", path,
                      "--out", f"{out}/emb.csv"]]
    return commands


@seed(36)
@settings(max_examples=150, deadline=None, database=None)
@given(kind=st.sampled_from(["dataset", "embeddings", "quantities", "config"]), data=st.data())
def test_mutated_inputs_exit_cleanly_through_the_cli(valid_files, kind, data):
    # a reader of a mutated file loads it or raises an InputError naming it, and
    # each command that reads it keeps the exit-code contract at the CLI boundary
    directory, texts = valid_files
    path = directory / ("mutated.ini" if kind == "config" else "mutated.csv")
    if kind == "config":
        path.write_bytes(_mutated_config(data.draw))
    else:
        path.write_bytes(_mutated(texts[kind], data.draw, _SCALED[kind]))
        for reader in _READERS[kind]:
            try:
                reader(path)
            except InputError as e:
                assert str(path) in str(e)
    with tempfile.TemporaryDirectory() as out:
        for argv in _commands(kind, str(path), directory, out):
            _exits_cleanly(argv, allowed_warnings=_PROGRAM_WARNINGS)


# what a checkpoint's numbers are set to. Layer widths and latent_dim are never
# mutated: a huge one would allocate for minutes rather than fail
_EXTREMES = [1e308, -1e308, 5e-324, 1e-308, 10**400, -10**400, "1.0", [1.0]]


def _number_paths(node, path=()):
    """The key and index path of every number in a checkpoint payload but its sizes."""
    if isinstance(node, dict):
        return [p for key, value in node.items() if key not in ("layer_dims", "latent_dim")
                for p in _number_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _number_paths(value, path + (i,))]
    return [path] if isinstance(node, (int, float)) else []


@seed(14)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_mutated_checkpoints_exit_cleanly_through_the_cli(valid_files, data):
    # the exit-code contract at the CLI boundary (see `_exits_cleanly`)
    directory, texts = valid_files
    payload = json.loads(texts["checkpoint"])
    for *keys, last in data.draw(st.lists(st.sampled_from(_number_paths(payload)),
                                          min_size=1, max_size=2, unique=True)):
        node = payload
        for key in keys:
            node = node[key]
        node[last] = data.draw(st.sampled_from(_EXTREMES))
    checkpoint = directory / "mutated.json"
    checkpoint.write_text(json.dumps(payload))
    embed = ["embed", "--dataset", str(directory / "dataset.csv")]
    for argv in (embed, ["sample", "--count", "5"]):
        _exits_cleanly([*argv, "--checkpoint", str(checkpoint),
                        "--out", str(directory / "out.csv")])


def test_reading_a_dataset_peaks_at_a_small_multiple_of_its_floats(tmp_path):
    # the README's 1280-row dataset: 50 coverage columns and 4 parameters kept as
    # float64, three text columns; a reader that first held every cell as a
    # Python string peaked at 11.4 times the float block
    path = tmp_path / "data.csv"
    datagen.save_csv(datagen.generate(DatasetConfig(seed=0)), path)
    tracemalloc.start()
    try:
        dataset = datagen.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats = dataset.rho.nbytes + sum(v.nbytes for v in dataset.params.values())
    assert dataset.rho.shape == (1280, 50)
    assert peak < 4 * floats, (peak, floats)


# the schema the oracle test reads: header order, with one column that no caller keeps
_ORACLE_HEADER = ["sample_id", "v_2", "a", "skip", "v_1", "tag", "b", "v_10"]
_ORACLE_FLOATS = ["b", "a"]
_ORACLE_BLOCK = ["v_1", "v_2", "v_10"]


def _oracle(path):
    """csv.reader and float(): the kept arrays, or (line, column) of the first
    defect in file order."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if not rows:
        return None
    seen = set()
    for line, row in enumerate(rows, 2):
        for name, cell in zip(header, row):
            if name == "sample_id":
                try:
                    sid = int(cell)
                except ValueError:
                    return line, name
                if sid in seen:
                    return line, name
                seen.add(sid)
            elif name in _ORACLE_FLOATS or name in _ORACLE_BLOCK:
                try:
                    value = float(cell)
                except ValueError:
                    return line, name
                if not np.isfinite(value):
                    return line, name

    def column(name):
        return [row[header.index(name)] for row in rows]

    return {"ids": [int(c) for c in column("sample_id")], "tag": column("tag"),
            "floats": np.array([[float(c) for c in column(name)] for name in _ORACLE_FLOATS]).T,
            "block": np.array([[float(c) for c in column(name)] for name in _ORACLE_BLOCK]).T}


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.sampled_from([0, 1, 63, 64, 65, 129]), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_streamed_read_matches_a_csv_reader_oracle(tmp_path_factory, n, seed, data):
    # 64 rows are parsed at a time: 63, 64, 65 and 129 rows end a chunk early,
    # exactly, just after, and one row into a third chunk
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 300, (n, 5))
    rows = [[str(i), fmt(v[0]), fmt(v[1]), f"x{i},{rng.integers(9)}", fmt(v[2]), f"t{i}",
             fmt(v[3]), fmt(v[4])] for i, v in enumerate(values)]
    if n:  # one corrupted cell, in any chunk, row and column
        chunk = data.draw(st.integers(0, (n - 1) // 64))
        i = chunk * 64 + data.draw(st.integers(0, min(63, n - 1 - chunk * 64)))
        j = data.draw(st.integers(0, len(_ORACLE_HEADER) - 1))
        bad = ["abc", "", "nan", "-inf", "1e400", "0x1", "7", "1_000"]
        if j == 0:  # a sample_id: also a float, or another row's id
            bad = ["abc", "", "2.5", "1_000", rows[data.draw(st.integers(0, n - 1))][0]]
        rows[i][j] = data.draw(st.sampled_from(bad))
    path = tmp_path_factory.mktemp("oracle") / "t.csv"
    write_table(path, dict(zip(_ORACLE_HEADER, map(list, zip(*rows))))
                if n else {name: [] for name in _ORACLE_HEADER})
    want = _oracle(path)
    try:
        table = Table(path, floats=_ORACLE_FLOATS, blocks=["v_"], text=["tag"])
    except InputError as e:
        assert not isinstance(want, dict), e
        assert str(path) in str(e)
        if want is not None:
            line, name = want
            assert f"line {line}, column {name!r}" in str(e), (want, e)
        return
    assert isinstance(want, dict), want
    assert table.sample_ids == want["ids"] and table.text == {"tag": want["tag"]}
    assert table.floats.tobytes() == want["floats"].tobytes()
    assert table.blocks["v_"].tobytes() == want["block"].tobytes()


@pytest.mark.parametrize("defects, first", [
    ({(3, "sample_id"): "2.5", (3, "a"): "abc"}, (3, "sample_id")),    # same row: header order
    ({(3, "v_10"): "nan", (5, "b"): "x"}, (3, "v_10")),                # the earlier row
    ({(80, "a"): "x", (100, "sample_id"): "0"}, (80, "a")),            # a later chunk
    ({(2, "b"): "inf", (90, "v_1"): "x"}, (2, "b")),                   # the first chunk
], ids=["one-row", "two-rows", "later-chunk", "two-chunks"])
def test_the_first_defect_in_file_order_is_reported(tmp_path, defects, first):
    rows = [[str(i), "1", "2", "s", "3", "t", "4", "5"] for i in range(129)]
    for (line, name), cell in defects.items():
        rows[line - 2][_ORACLE_HEADER.index(name)] = cell
    path = tmp_path / "t.csv"
    write_table(path, dict(zip(_ORACLE_HEADER, map(list, zip(*rows)))))
    assert _oracle(path) == first
    with pytest.raises(InputError, match=f"line {first[0]}, column '{first[1]}'"):
        Table(path, floats=_ORACLE_FLOATS, blocks=["v_"], text=["tag"])
