"""CSV schema helpers: exact float round-trips, optional columns, validated reads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmvlab import datagen
from gmvlab.errors import InputError
from gmvlab.gmvae import ElboTerms, GmmParams, TrainHistory
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
)


def test_fmt_is_17_significant_digits_round_trip():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(100) * 10.0 ** rng.integers(-12, 12, 100):
        assert float(fmt(x)) == x


def test_embeddings_round_trip_full_schema(tmp_path):
    rng = np.random.default_rng(1)
    mu = rng.standard_normal((5, 2))
    var = rng.uniform(0.1, 1.0, (5, 2))
    gamma = rng.dirichlet(np.ones(3), size=5)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, list(range(5)), ["train"] * 5, mu, var=var, gamma=gamma,
                         hard_labels=[0, 1, 2, 0, 1], true_labels=["a"] * 5)
    back = read_embeddings_csv(path)
    assert back["sample_ids"] == [0, 1, 2, 3, 4]
    assert np.array_equal(back["mu"], mu)
    assert np.array_equal(back["var"], var)
    assert np.array_equal(back["gamma"], gamma)
    assert back["hard_labels"] == ["0", "1", "2", "0", "1"]
    assert back["true_labels"] == ["a"] * 5


def test_embeddings_minimal_schema(tmp_path):
    mu = np.zeros((3, 2))
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, [7, 8, 9], ["test"] * 3, mu)
    back = read_embeddings_csv(path)
    assert back["sample_ids"] == [7, 8, 9]
    assert back["var"] is None and back["gamma"] is None
    assert back["hard_labels"] is None


def test_read_embeddings_requires_mu(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_id,split\n0,train\n")
    with pytest.raises(InputError, match="mu_"):
        read_embeddings_csv(path)


def test_numbered_block_is_ordered_by_number_not_by_position(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("sample_id,mu_10,mu_2,mu_1\n0,10.0,2.0,1.0\n")
    assert read_embeddings_csv(path)["mu"].tolist() == [[1.0, 2.0, 10.0]]


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
    history = TrainHistory()
    for _ in range(3):
        history.append(ElboTerms(*rng.standard_normal(5)),
                       GmmParams(pi=rng.dirichlet(np.ones(2)), means=rng.standard_normal((2, 3)),
                                 variances=rng.uniform(0.1, 1.0, (2, 3))))
    path = tmp_path / "history.csv"
    write_history_csv(path, history)
    table = Table(path)
    assert table.column("epoch") == ["0", "1", "2"]
    terms = table.floats(["recon", "cluster_kl", "posterior_entropy", "categorical_term",
                          "reg", "total_loss"])
    assert np.array_equal(terms, [[*vars(t).values(), t.total_loss] for t in history.terms])
    assert np.array_equal(table.block("pi_"), history.pi)
    for prefix, snapshots in (("mean", history.means), ("var", history.variances)):
        names = [f"{prefix}_{c + 1}_{j + 1}" for c in range(2) for j in range(3)]
        assert np.array_equal(table.floats(names), np.reshape(snapshots, (3, 6)))


def _reports():
    rng = np.random.default_rng(3)
    eig = np.sort(rng.uniform(0.0, 4.0, 4))
    return [SpectralReport(quantity_name=name, coefficients=rng.standard_normal(4),
                           eta=rng.uniform(), r_percent=20.0, k=3, n_components=1,
                           eigenvalues=eig) for name in ("alpha", "gamma")]


def test_report_round_trip(tmp_path):
    reports = _reports()
    path = tmp_path / "report.csv"
    write_report_csv(path, reports)
    table = Table(path)
    assert table.column("quantity") == ["alpha", "gamma"]
    assert np.array_equal(table.floats(["k", "r_percent", "eta", "n_components"]),
                          [[r.k, r.r_percent, r.eta, r.n_components] for r in reports])


def test_spectrum_round_trip(tmp_path):
    reports = _reports()
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, reports)
    table = Table(path)
    assert table.column("quantity") == ["alpha"] * 4 + ["gamma"] * 4
    assert table.column("mode") == ["0", "1", "2", "3"] * 2
    values = table.floats(["eigenvalue", "alpha"])
    for i, rep in enumerate(reports):
        assert np.array_equal(values[4 * i:4 * i + 4, 0], rep.eigenvalues)
        assert np.array_equal(values[4 * i:4 * i + 4, 1], rep.coefficients)


def test_samples_round_trip(tmp_path):
    curves = np.random.default_rng(4).uniform(0.0, 1.0, (5, 7))
    clusters = np.array([0, 1, 1, 0, 1])
    path = tmp_path / "samples.csv"
    write_samples_csv(path, curves, clusters)
    table = Table(path)
    assert table.sample_ids() == [0, 1, 2, 3, 4]
    assert np.array_equal(table.block("rho_"), curves)
    assert table.column("cluster") == ["0", "1", "1", "0", "1"]


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
    datagen.save_csv(datagen.generate(seed=0, n=10, steps=5, horizon=5.0), dataset)
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
