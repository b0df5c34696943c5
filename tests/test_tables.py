"""CSV schema helpers: exact float round-trips, optional columns, validated reads."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmvlab import datagen
from gmvlab.config import DatasetConfig
from gmvlab.errors import InputError
from gmvlab.gmvae import ElboTerms
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
    back = Table(path, blocks=("mu_", "var_", "gamma_"),
                 text=("sample_id", "split", "hard_label", "true_label"))
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
    back = Table(path, blocks=("mu_",), text=("sample_id",))
    assert back.sample_ids == [7, 8, 9] and back.text == {}
    assert list(back.blocks) == ["mu_"]
    assert back.header == ["sample_id", "split", "mu_1", "mu_2"]
    for prefix in ("var_", "gamma_"):
        with pytest.raises(InputError, match=rf"no {prefix}\* columns found"):
            Table(path, blocks=("mu_", prefix), text=("sample_id",))


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
    (lambda path: Table(path, floats=["a", "b"], text=["sample_id"]), "missing column 'b'"),
    (lambda path: Table(path, floats=["a"], text=["sample_id", "b"]), "missing column 'b'"),
    (lambda path: Table(path, floats=["a"], blocks=["v_"], text=["sample_id"]),
     r"no v_\* columns found"),
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


def test_quantities_auto_column_selection(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text(
        "sample_id,rho_0,rho_1,alpha,gamma,label,split\n"
        "0,0.89,0.9,1.1,0.011,reactive,train\n"
        "1,0.89,0.8,1.2,0.012,stable,test\n"
    )
    ids, quantities = read_quantities_csv(path)
    assert ids == [0, 1]
    assert set(quantities) == {"alpha", "gamma"}
    assert np.array_equal(quantities["alpha"], [1.1, 1.2])


def test_quantities_missing_requested_column(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("sample_id,alpha\n0,1.0\n")
    with pytest.raises(InputError, match="pressure"):
        read_quantities_csv(path, columns=["pressure"])


def test_history_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    history = {name: rng.standard_normal(3) for name in ElboTerms.COLUMNS}
    history |= {"pi": rng.dirichlet(np.ones(2), size=3), "mean": rng.standard_normal((3, 2, 3)),
                "var": rng.uniform(0.1, 1.0, (3, 2, 3))}
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    names = {prefix: [f"{prefix}_{c + 1}_{j + 1}" for c in range(2) for j in range(3)]
             for prefix in ("mean", "var")}
    table = Table(path, floats=[*ElboTerms.COLUMNS, *names["mean"], *names["var"]],
                  blocks=["pi_"], text=["epoch"])
    assert table.text == {"epoch": ["0", "1", "2"]}
    terms, mean, var = np.split(table.floats, [len(ElboTerms.COLUMNS), -6], axis=1)
    assert np.array_equal(terms, np.column_stack([history[name] for name in ElboTerms.COLUMNS]))
    assert np.array_equal(table.blocks["pi_"], history["pi"])
    assert np.array_equal(mean, np.reshape(history["mean"], (3, 6)))
    assert np.array_equal(var, np.reshape(history["var"], (3, 6)))
    assert table.header == ["epoch", *ElboTerms.COLUMNS, "pi_1", "pi_2", *names["mean"],
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
    table = Table(path, floats=["k", "r_percent", "eta", "n_components"], text=["quantity"])
    assert table.text == {"quantity": ["alpha", "gamma"]}
    assert np.array_equal(table.floats,
                          [[3, 20.0, report.eta[name], 1] for name in ("alpha", "gamma")])


def test_spectrum_round_trip(tmp_path):
    report = _report()
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, report)
    table = Table(path, floats=["eigenvalue", "alpha"], text=["quantity", "mode"])
    assert table.text == {"quantity": ["alpha"] * 4 + ["gamma"] * 4,
                          "mode": ["0", "1", "2", "3"] * 2}
    values = table.floats
    for i, name in enumerate(("alpha", "gamma")):
        assert np.array_equal(values[4 * i:4 * i + 4, 0], report.eigenvalues)
        assert np.array_equal(values[4 * i:4 * i + 4, 1], report.coefficients[name])


def test_samples_round_trip(tmp_path):
    curves = np.random.default_rng(4).uniform(0.0, 1.0, (5, 7))
    clusters = np.array([0, 1, 1, 0, 1])
    path = tmp_path / "samples.csv"
    write_samples_csv(path, curves, clusters)
    table = Table(path, blocks=["rho_"], text=["sample_id", "cluster"])
    assert table.sample_ids == [0, 1, 2, 3, 4]
    assert np.array_equal(table.blocks["rho_"], curves)
    assert table.text == {"cluster": ["0", "1", "1", "0", "1"]}


def _mutated(text, draw):
    """`text` truncated at a random byte, with a random cell replaced by random
    text, or with a column dropped."""
    rows = [line.split(",") for line in text.splitlines()]
    how = draw(st.sampled_from(["truncate", "replace-cell", "drop-column"]))
    if how == "truncate":
        data = text.encode()
        return data[:draw(st.integers(0, len(data)))]
    if how == "replace-cell":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] = draw(st.text(st.characters(codec="utf-8"), max_size=6))
    else:
        j = draw(st.integers(0, len(rows[0]) - 1))
        rows = [row[:j] + row[j + 1:] for row in rows]
    return ("\n".join(",".join(row) for row in rows) + "\n").encode()


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("valid")
    dataset, embeddings = directory / "dataset.csv", directory / "embeddings.csv"
    small = DatasetConfig(seed=0, n_samples=10, steps=5, horizon=5.0)
    datagen.save_csv(datagen.generate(small), dataset)
    rng = np.random.default_rng(5)
    write_embeddings_csv(embeddings, list(range(4)), ["train"] * 4, rng.standard_normal((4, 2)),
                         var=rng.uniform(0.1, 1.0, (4, 2)),
                         gamma=rng.dirichlet(np.ones(2), size=4), hard_labels=[0, 1, 0, 1],
                         true_labels=["a", "b", "a", "b"])
    return directory, {"dataset": dataset.read_text(), "embeddings": embeddings.read_text()}


@settings(max_examples=100, deadline=None, database=None)
@given(kind=st.sampled_from(["dataset", "embeddings"]), data=st.data())
def test_mutated_files_load_or_raise_input_error(valid_files, kind, data):
    directory, texts = valid_files
    path = directory / "mutated.csv"
    path.write_bytes(_mutated(texts[kind], data.draw))
    for reader in (read_quantities_csv,
                   datagen.load_csv if kind == "dataset" else read_embeddings_csv):
        try:
            reader(path)
        except InputError as e:
            assert str(path) in str(e)


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
        table = Table(path, floats=_ORACLE_FLOATS, blocks=["v_"], text=["sample_id", "tag"])
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
        Table(path, floats=_ORACLE_FLOATS, blocks=["v_"], text=["sample_id", "tag"])
