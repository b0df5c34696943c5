"""End-to-end CLI runs over a small configuration."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gmvlab
from gmvlab import datagen
from gmvlab.cli import _join_on_sample_id, _same_file, main
from gmvlab.config import RunConfig
from gmvlab.errors import InputError
from gmvlab.gmvae import embed_dataset, load_checkpoint, permutation_accuracy
from gmvlab.tables import Table, read_embeddings_csv, write_embeddings_csv, write_table


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.ini"
    path.write_text(
        "[dataset]\nn_samples = 80\nseed = 3\n"
        "[model]\nhidden_dims = 12, 6\n"
        "[training]\nepochs = 120\nbatch_size = 16\nseed = 5\n"
    )
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_ini):
    """One generate + train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("run")
    data = root / "data.csv"
    out = root / "train"
    assert main(["generate", "--config", small_ini, "--out", str(data)]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["train", "--config", small_ini, "--dataset", str(data),
                     "--out", str(out), "--quiet"]) == 0
    return {"root": root, "data": data, "train": out, "ini": small_ini,
            "train_stdout": stdout.getvalue()}


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_generate_writes_expected_rows_and_split(workdir):
    header, rows = read_rows(workdir["data"])
    assert len(rows) == 80
    assert header[0] == "sample_id"
    assert header[1] == "rho_0"
    assert header[-2:] == ["label", "split"]
    splits = [r[-1] for r in rows]
    assert splits.count("train") == 64
    assert splits.count("val") == 8
    assert splits.count("test") == 8


def test_generate_same_seed_is_byte_identical(workdir, tmp_path):
    other = tmp_path / "again.csv"
    assert main(["generate", "--config", workdir["ini"], "--out", str(other)]) == 0
    assert other.read_bytes() == workdir["data"].read_bytes()


def test_generate_seed_flag_changes_output(workdir, tmp_path):
    other = tmp_path / "seeded.csv"
    assert main(["generate", "--config", workdir["ini"], "--seed", "99",
                 "--out", str(other)]) == 0
    assert other.read_bytes() != workdir["data"].read_bytes()


def test_train_outputs_exist_and_parse(workdir):
    out = workdir["train"]
    assert (out / "checkpoint.json").is_file()
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["format"] == "gmvlab-checkpoint-v1"
    header, rows = read_rows(out / "history.csv")
    assert len(rows) == 120
    assert "pi_1" in header and "total_loss" in header
    emb = Table(out / "embeddings.csv", blocks=("mu_", "gamma_"), text=("split",))
    assert emb.blocks["mu_"].shape == (80, 2)
    assert emb.blocks["gamma_"].shape == (80, 2)
    assert set(emb.text["split"]) == {"train", "val", "test"}


def test_train_accuracy_line_matches_the_reloaded_checkpoint(workdir):
    model, _ = load_checkpoint(workdir["train"] / "checkpoint.json")
    dataset = datagen.load_csv(workdir["data"])
    test = dataset.split == "test"
    acc, mapping = permutation_accuracy(embed_dataset(model, dataset.rho[test])[2].argmax(axis=1),
                                        dataset.label[test])
    line = f"test clustering accuracy (best permutation): {acc:.4f} via {mapping}\n"
    assert line in workdir["train_stdout"]


def test_train_with_an_empty_test_split_skips_the_accuracy(workdir, tmp_path, capsys):
    lines = workdir["data"].read_text().splitlines(keepends=True)
    data = tmp_path / "no_test.csv"
    data.write_text("".join(line.replace(",test\n", ",val\n") for line in lines))
    ini = tmp_path / "short.ini"
    ini.write_text("[model]\nhidden_dims = 12, 6\n[training]\nepochs = 2\nbatch_size = 16\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(ini), "--dataset", str(data), "--out", str(out),
                 "--quiet"]) == 0
    stdout = capsys.readouterr().out
    assert "test split is empty: no clustering accuracy" in stdout
    assert "test clustering accuracy" not in stdout
    for name in ("checkpoint.json", "history.csv", "embeddings.csv"):
        assert (out / name).is_file()


def test_embed_matches_train_export(workdir, tmp_path):
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(workdir["train"] / "checkpoint.json"),
                 "--dataset", str(workdir["data"]), "--out", str(out)]) == 0
    assert out.read_bytes() == (workdir["train"] / "embeddings.csv").read_bytes()


def test_embed_with_overflowing_encoder_variance_gives_exit_2(workdir, tmp_path, capsys):
    ckpt = json.loads((workdir["train"] / "checkpoint.json").read_text())
    bias = ckpt["encoder"]["biases"][-1]
    d = ckpt["latent_dim"]
    bias[d:] = [800.0] * d  # the log-variance half of the encoder output: exp(800) overflows
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(ckpt))
    out = tmp_path / "emb.csv"
    assert main(["embed", "--checkpoint", str(bad), "--dataset", str(workdir["data"]),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: encoder "), err
    assert err.count("\n") == 1, err
    assert not out.exists()


_TINY_VARIANCE = "error: checkpoint {path}: cluster variances too small: 1 / variance overflows"
_TINY_DECODER_VAR = ("error: checkpoint {path}: model.decoder_var must be > 0 with a finite "
                     "reciprocal, got 5e-324")
_HUGE_WEIGHTS = ("error: checkpoint {path}: mixture weights must form a simplex, "
                 "got [1.e+308 1.e+308]")


@pytest.mark.parametrize("edits, embed_line, sample_line", [
    pytest.param({("gmm", "variances", 0, 0): 5e-324}, _TINY_VARIANCE, _TINY_VARIANCE,
                 id="variance-reciprocal"),
    pytest.param({("gmm", "variances", 0, 0): 1e-308},
                 "numerical failure: E-step: overflow encountered in divide", None,
                 id="variance-e-step"),
    pytest.param({("gmm", "means", 0, 0): -1e308},
                 "numerical failure: E-step: overflow encountered in multiply", None,
                 id="mean-e-step"),
    pytest.param({("gmm", "pi", 0): 1e308, ("gmm", "pi", 1): 1e308}, _HUGE_WEIGHTS, _HUGE_WEIGHTS,
                 id="weights-sum"),
    pytest.param({("decoder_var",): 5e-324}, _TINY_DECODER_VAR, _TINY_DECODER_VAR,
                 id="decoder-var-reciprocal"),
    pytest.param({("encoder", "weights", 0, 0, j): 1e308 for j in range(3)},
                 "numerical failure: encoder: overflow encountered in dot", None,
                 id="encoder-overflow"),
    pytest.param({("gmm", "means", 0, 0): 1e308, ("decoder", "weights", 0, 0, 0): 1e308},
                 "numerical failure: E-step: overflow encountered in multiply",
                 "numerical failure: decoder: overflow encountered in dot",
                 id="decoder-overflow"),
])
def test_checkpoint_that_overflows_fails_with_one_line(workdir, tmp_path, capsys, edits,
                                                       embed_line, sample_line):
    # each checkpoint made embed or sample print a numpy warning, and then most
    # wrote their output from overflowed intermediates and exited 0; now a value
    # is rejected at load or its overflow raised before numpy can warn. A None is
    # a success with nothing on stderr (sample runs neither the encoder nor the E-step)
    ckpt = json.loads((workdir["train"] / "checkpoint.json").read_text())
    for (*keys, last), value in edits.items():
        node = ckpt
        for key in keys:
            node = node[key]
        node[last] = value
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(ckpt))
    emb, gen = tmp_path / "emb.csv", tmp_path / "gen.csv"
    embed = ["embed", "--dataset", str(workdir["data"]), "--out", str(emb)]
    sample = ["sample", "--count", "12", "--cluster", "0", "--out", str(gen)]
    for argv, line in ((embed, embed_line), (sample, sample_line)):
        code = main([argv[0], "--checkpoint", str(bad), *argv[1:]])
        err = capsys.readouterr().err.splitlines()
        if line is None:
            assert (code, err) == (0, []), argv[0]
        else:
            assert (code, err) == (1 if line.startswith("error") else 2,
                                   [line.format(path=bad)]), argv[0]
    assert not emb.exists()


def test_sample_conditional_and_empty(workdir, tmp_path):
    out = tmp_path / "gen.csv"
    assert main(["sample", "--checkpoint", str(workdir["train"] / "checkpoint.json"),
                 "--count", "12", "--cluster", "1", "--seed", "2", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert len(rows) == 12
    assert all(r[-1] == "1" for r in rows)
    assert header[-1] == "cluster"
    empty = tmp_path / "empty.csv"
    assert main(["sample", "--checkpoint", str(workdir["train"] / "checkpoint.json"),
                 "--count", "0", "--out", str(empty)]) == 0
    header, rows = read_rows(empty)
    assert rows == []
    assert header[1] == "rho_0"


def test_sample_bad_cluster_exit_code(workdir, tmp_path, capsys):
    # and a negative --count, which argparse's int type lets through
    for flags, message in ((["--count", "3", "--cluster", "9"],
                            "cluster index 9 out of range for K=2"),
                           (["--count", "-1"], "count must be >= 0, got -1")):
        code = main(["sample", "--checkpoint", str(workdir["train"] / "checkpoint.json"),
                     *flags, "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_metric_builds_and_solves_the_graph_once(workdir, tmp_path, monkeypatch):
    import gmvlab.spectral as spectral

    calls = []
    real_knn, real_eig = spectral.build_knn, spectral.symmetric_eig
    monkeypatch.setattr(spectral, "build_knn",
                        lambda *a, **kw: calls.append("knn") or real_knn(*a, **kw))
    monkeypatch.setattr(spectral, "symmetric_eig",
                        lambda *a, **kw: calls.append("eig") or real_eig(*a, **kw))
    emb_csv = workdir["train"] / "embeddings.csv"
    spectrum_out = tmp_path / "spectrum.csv"
    assert main(["metric", "--embeddings", str(emb_csv), "--quantities", str(workdir["data"]),
                 "--columns", "alpha", "gamma", "--k", "6", "--out", str(tmp_path / "r.csv"),
                 "--spectrum-out", str(spectrum_out)]) == 0
    assert calls == ["knn", "eig"]
    _, srows = read_rows(spectrum_out)
    adj = real_knn(read_embeddings_csv(emb_csv)[1], 6)
    lap = np.diag(adj.sum(axis=1)) - adj
    for name in ("alpha", "gamma"):
        got = np.array([float(r[2]) for r in srows if r[0] == name])
        assert np.abs(got - np.linalg.eigvalsh(lap)).max() < 1e-10


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_metric_on_trained_embeddings(workdir, tmp_path):
    out = tmp_path / "report.csv"
    spectrum_out = tmp_path / "spectrum.csv"
    code = main(["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--quantities", str(workdir["data"]), "--columns", "alpha", "gamma",
                 "--k", "6", "--r", "20", "--out", str(out),
                 "--spectrum-out", str(spectrum_out)])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["quantity", "k", "r_percent", "eta", "n_components"]
    assert [r[0] for r in rows] == ["alpha", "gamma"]
    for r in rows:
        assert 0.0 <= float(r[3]) <= 1.0
    sheader, srows = read_rows(spectrum_out)
    assert len(srows) == 2 * 80
    # eta values are deterministic: a second run reproduces the report exactly
    again = tmp_path / "report2.csv"
    assert main(["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--quantities", str(workdir["data"]), "--columns", "alpha", "gamma",
                 "--k", "6", "--r", "20", "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_metric_constant_quantity_eta_one(workdir, tmp_path):
    # fabricate a quantities file with a constant column
    qpath = tmp_path / "quant.csv"
    with open(qpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "const"])
        for i in range(80):
            writer.writerow([str(i), "5.0"])
    out = tmp_path / "report.csv"
    assert main(["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--quantities", str(qpath), "--k", "6", "--r", "20",
                 "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-10)


def _metric_inputs(tmp_path, points):
    """Embeddings and quantities CSVs for the given (n, 2) points."""
    emb, quant = tmp_path / "points.csv", tmp_path / "quant.csv"
    write_embeddings_csv(emb, range(len(points)), ["train"] * len(points), points)
    write_table(quant, {"sample_id": range(len(points)), "q": points[:, 0]})
    return ["metric", "--embeddings", str(emb), "--quantities", str(quant), "--k", "2",
            "--out", str(tmp_path / "report.csv")]


@pytest.mark.filterwarnings("default:kNN graph is disconnected")
def test_metric_warning_is_one_line_without_source(tmp_path, capsys):
    points = np.vstack([np.zeros((4, 2)), np.full((4, 2), 100.0)])
    points[:, 0] += np.arange(8)
    shown_by = warnings.showwarning
    assert main(_metric_inputs(tmp_path, points)) == 0
    err = capsys.readouterr().err
    assert "warning: kNN graph is disconnected (component sizes [" in err
    assert ".py:" not in err
    assert warnings.showwarning is shown_by  # an in-process caller keeps its own display


def test_metric_on_overflowing_embeddings_gives_exit_2(tmp_path, capsys):
    points = np.random.default_rng(10).standard_normal((6, 2)) * 1e160
    assert main(_metric_inputs(tmp_path, points)) == 2
    assert "numerical failure: pairwise squared distances are not finite" in \
        capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_metric_quantity_whose_squares_overflow_gives_exit_2(tmp_path, capsys):
    # the squares of a quantity of 1e200 overflow, and so would its squared spectral
    # coefficients: once two warnings and eta = nan with exit 0, now raised as the
    # energy of the quantity, before numpy can warn
    points = np.random.default_rng(10).standard_normal((12, 2))
    argv = _metric_inputs(tmp_path, points)
    values = points[:, 0].copy()
    values[3] = 1e200
    write_table(tmp_path / "quant.csv", {"sample_id": range(12), "q": values})
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: energy of quantity 'q': overflow encountered in square"]
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.filterwarnings("default:kNN graph is disconnected")
def test_metric_quantity_that_overflows_on_a_disconnected_graph_gives_one_line(tmp_path,
                                                                                capsys):
    # the quantity's energy fails once the Laplacian is solved and before the
    # disconnected-graph warning, so the failure is all stderr says
    points = np.vstack([np.zeros((4, 2)), np.full((4, 2), 100.0)])
    points[:, 0] += np.arange(8)
    argv = _metric_inputs(tmp_path, points)
    values = points[:, 0].copy()
    values[3] = 1e200
    write_table(tmp_path / "quant.csv", {"sample_id": range(8), "q": values})
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: energy of quantity 'q': overflow encountered in square"]
    assert not (tmp_path / "report.csv").exists()


def test_align_parameter_whose_squares_overflow_gives_exit_2(workdir, tmp_path, capsys):
    # a target of 1e200 squares past the largest double in the residual sums:
    # once three warnings, r_squared = nan and exit 0
    emb = workdir["train"] / "embeddings.csv"
    sample_ids, mu = read_embeddings_csv(emb)
    params = tmp_path / "params.csv"
    xi1 = mu[:, 0] + 2.0 * mu[:, 1]
    xi1[0] = 1e200
    write_table(params, {"sample_id": sample_ids, "xi1": xi1})
    out = tmp_path / "align"
    assert main(["align", "--embeddings", str(emb), "--params", str(params),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: fit_affine: overflow encountered in square"]
    assert not out.exists()


@pytest.mark.parametrize("command, flag, columns", [
    ("metric", "--quantities", ["alpha", "alpha"]),
    ("align", "--params", ["xi1", "xi2", "xi1"]),
])
def test_column_requested_twice_gives_exit_1(workdir, tmp_path, capsys, command, flag, columns):
    out = tmp_path / "out"
    assert main([command, "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 flag, str(workdir["data"]), "--columns", *columns, "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {workdir['data']}: requested column {columns[-1]!r} appears twice\n"
    assert not out.exists()


def test_metric_misaligned_ids_fail(workdir, tmp_path):
    qpath = tmp_path / "short.csv"
    with open(qpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "alpha"])
        writer.writerow(["0", "1.0"])  # only one row: ids 1.. missing
    code = main(["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--quantities", str(qpath), "--out", str(tmp_path / "r.csv")])
    assert code == 1


def _with_unread_columns_spoiled(path, out):
    """A copy of an embeddings file with an extra var_explained column and a
    nan in line 4's var_1, columns that metric and align do not read."""
    header, rows = read_rows(path)
    rows[2][header.index("var_1")] = "nan"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["var_explained"])
        writer.writerows(row + ["0.5"] for row in rows)
    return out


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_metric_and_align_ignore_the_embedding_columns_they_do_not_read(workdir, tmp_path):
    clean = workdir["train"] / "embeddings.csv"
    spoiled = _with_unread_columns_spoiled(clean, tmp_path / "spoiled.csv")
    outputs = []
    for emb in (clean, spoiled):
        run = tmp_path / emb.stem
        run.mkdir()
        assert main(["metric", "--embeddings", str(emb), "--quantities", str(workdir["data"]),
                     "--columns", "alpha", "gamma", "--k", "6", "--out", str(run / "r.csv"),
                     "--spectrum-out", str(run / "s.csv")]) == 0
        assert main(["align", "--embeddings", str(emb), "--params", str(workdir["data"]),
                     "--columns", "xi1", "xi2", "--out", str(run / "align")]) == 0
        outputs.append([(run / name).read_bytes() for name in
                        ("r.csv", "s.csv", "align/align_report.json", "align/transformed.csv")])
    assert outputs[0] == outputs[1]


def test_join_follows_sample_ids_of_a_reordered_subset(workdir, tmp_path):
    # the test split's rows only, last first: each quantity comes back at the
    # row whose sample_id names it, not at its position in the dataset
    header, rows = read_rows(workdir["data"])
    col = {name: header.index(name) for name in ("sample_id", "alpha", "gamma", "split")}
    test_rows = [row for row in rows if row[col["split"]] == "test"][::-1]
    ids = [int(row[col["sample_id"]]) for row in test_rows]
    assert ids != sorted(ids) and len(ids) == 8
    emb = tmp_path / "test_only.csv"
    mu = np.arange(2.0 * len(ids)).reshape(-1, 2)
    write_embeddings_csv(emb, ids, ["test"] * len(ids), mu)
    sample_ids, got_mu, values = _join_on_sample_id(emb, workdir["data"], ["gamma", "alpha"])
    assert sample_ids == ids
    assert np.array_equal(got_mu, mu)
    assert list(values) == ["gamma", "alpha"]
    for name in values:
        assert values[name].tolist() == [float(row[col[name]]) for row in test_rows]


def test_baseline_mds_deterministic_and_schema(workdir, tmp_path):
    out1, out2 = tmp_path / "mds1.csv", tmp_path / "mds2.csv"
    assert main(["baseline", "--method", "mds", "--dataset", str(workdir["data"]),
                 "--out", str(out1)]) == 0
    assert main(["baseline", "--method", "mds", "--dataset", str(workdir["data"]),
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    emb = Table(out1, blocks=("mu_",), text=("true_label",))
    assert emb.blocks["mu_"].shape == (80, 2)
    assert len(emb.text["true_label"]) == 80


def test_baseline_isomap_runs(workdir, tmp_path, capsys):
    out = tmp_path / "iso.csv"
    # the two trajectory families are far apart: k=10 cannot connect them
    assert main(["baseline", "--method", "isomap", "--dataset", str(workdir["data"]),
                 "--k", "10", "--out", str(out)]) == 1
    assert "component sizes" in capsys.readouterr().err
    assert not out.exists()  # no partial output on validation failure
    assert main(["baseline", "--method", "isomap", "--dataset", str(workdir["data"]),
                 "--k", "40", "--out", str(out)]) == 0
    _, mu = read_embeddings_csv(out)
    assert mu.shape == (80, 2)


def test_align_identity_and_shuffled(workdir, tmp_path):
    emb_csv = workdir["train"] / "embeddings.csv"
    # params := the embeddings themselves -> identity map, ~zero residual
    sample_ids, mu = read_embeddings_csv(emb_csv)
    self_params = tmp_path / "self.csv"
    with open(self_params, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "p1", "p2"])
        for sid, row in zip(sample_ids, mu):
            writer.writerow([str(sid), format(row[0], ".17g"), format(row[1], ".17g")])
    out_a = tmp_path / "align_self"
    assert main(["align", "--embeddings", str(emb_csv), "--params", str(self_params),
                 "--columns", "p1", "p2", "--out", str(out_a)]) == 0
    report = json.loads((out_a / "align_report.json").read_text())
    assert report["residual_rms"] < 1e-10
    assert np.abs(np.array(report["a"]) - np.eye(2)).max() < 1e-8

    # shuffled params -> strictly larger residual
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(sample_ids))
    shuf_params = tmp_path / "shuf.csv"
    with open(shuf_params, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "p1", "p2"])
        for sid, row in zip(sample_ids, mu[perm]):
            writer.writerow([str(sid), format(row[0], ".17g"), format(row[1], ".17g")])
    out_b = tmp_path / "align_shuf"
    assert main(["align", "--embeddings", str(emb_csv), "--params", str(shuf_params),
                 "--columns", "p1", "p2", "--out", str(out_b)]) == 0
    shuffled = json.loads((out_b / "align_report.json").read_text())
    assert shuffled["residual_rms"] > report["residual_rms"]
    assert (out_b / "transformed.csv").is_file()


def test_align_against_xi_params(workdir, tmp_path):
    out = tmp_path / "align_xi"
    argv = ["align", "--embeddings", str(workdir["train"] / "embeddings.csv"),
            "--params", str(workdir["data"]), "--columns", "xi1", "xi2", "--out", str(out)]
    assert main(argv) == 0
    report = json.loads((out / "align_report.json").read_text())
    assert set(report["r_squared"]) == {"xi1", "xi2"}
    assert report["n_samples"] == 80
    header, rows = read_rows(out / "transformed.csv")
    assert header == ["sample_id", "pred_xi1", "pred_xi2"]
    assert len(rows) == 80
    # a second run into the directory the first one made rewrites the same bytes
    first = {name: (out / name).read_bytes() for name in ("align_report.json", "transformed.csv")}
    assert main(argv) == 0
    assert {name: (out / name).read_bytes() for name in first} == first


def test_generate_default_config_sizes(tmp_path):
    out = tmp_path / "default.csv"
    assert main(["generate", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1280
    splits = [r[-1] for r in rows]
    assert (splits.count("train"), splits.count("val"), splits.count("test")) == (1024, 128, 128)


def test_generate_minimum_size_split(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text("[dataset]\nn_samples = 10\nseed = 2\n")
    out = tmp_path / "tiny.csv"
    assert main(["generate", "--config", str(ini), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 10
    splits = [r[-1] for r in rows]
    assert (splits.count("train"), splits.count("val"), splits.count("test")) == (8, 1, 1)


def test_train_zero_epochs_writes_initial_checkpoint(workdir, tmp_path):
    ini = tmp_path / "zero.ini"
    ini.write_text(
        "[dataset]\nn_samples = 80\nseed = 3\n"
        "[model]\nhidden_dims = 12, 6\n"
        "[training]\nepochs = 0\nseed = 5\n"
    )
    out = tmp_path / "run0"
    assert main(["train", "--config", str(ini), "--dataset", str(workdir["data"]),
                 "--out", str(out), "--quiet"]) == 0
    assert (out / "checkpoint.json").is_file()
    header, rows = read_rows(out / "history.csv")
    assert rows == []
    # the schema does not depend on the run length
    ini.write_text(ini.read_text().replace("epochs = 0", "epochs = 1"))
    assert main(["train", "--config", str(ini), "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "run1"), "--quiet"]) == 0
    header1, rows1 = read_rows(tmp_path / "run1" / "history.csv")
    assert len(rows1) == 1
    assert header == header1
    assert header[0] == "epoch"
    _, mu = read_embeddings_csv(out / "embeddings.csv")
    assert mu.shape == (80, 2)


def test_missing_input_file_gives_exit_1(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "o")]) == 1
    assert main(["metric", "--embeddings", str(tmp_path / "nope.csv"),
                 "--quantities", str(tmp_path / "nope2.csv"),
                 "--out", str(tmp_path / "r.csv")]) == 1


# one valid run of each subcommand, every path flag set: {ini}, {data}, {ckpt} and {emb}
# are inputs, {out} an output file and {dir} an output directory
PATH_RUNS = [
    ["generate", "--config", "{ini}", "--out", "{out}"],
    ["train", "--config", "{ini}", "--dataset", "{data}", "--out", "{dir}", "--quiet"],
    ["embed", "--checkpoint", "{ckpt}", "--dataset", "{data}", "--out", "{out}"],
    ["sample", "--checkpoint", "{ckpt}", "--count", "3", "--out", "{out}"],
    ["metric", "--config", "{ini}", "--embeddings", "{emb}", "--quantities", "{data}",
     "--columns", "alpha", "--out", "{out}", "--spectrum-out", "{out}"],
    ["baseline", "--method", "mds", "--dataset", "{data}", "--out", "{out}"],
    ["align", "--embeddings", "{emb}", "--params", "{data}", "--columns", "xi1", "xi2",
     "--out", "{dir}"],
]
# the paths, relative to the test's directory, that each kind of path flag cannot use
UNUSABLE_PATHS = {
    "input": {"missing": "missing.csv", "directory": "a_dir"},
    "{out}": {"under-missing-directory": "missing/out.csv", "directory": "a_dir",
              "ends-in-a-separator": "new.csv/"},
    "{dir}": {"existing-file": "a_file", "under-a-file": "a_file/run"},
}
# the files that the subcommands with an output directory write into it
DIR_FILES = {"train": ("checkpoint.json", "history.csv", "embeddings.csv"),
             "align": ("align_report.json", "transformed.csv")}


def _unusable_path_cases(kinds=None):
    """(argv, index of the bad flag's value, bad path, path the error names), where
    an output directory's file given as "dir/name" is made a directory itself."""
    for argv in PATH_RUNS:
        for at, value in enumerate(argv):
            if not value.startswith("{") or (kinds is not None and value not in kinds):
                continue
            flag = f"{argv[0]}{argv[at - 1]}"
            for case, bad in UNUSABLE_PATHS.get(value, UNUSABLE_PATHS["input"]).items():
                yield pytest.param(argv, at, bad, bad, id=f"{flag}-{case}")
            for name in DIR_FILES.get(argv[0], ()) if value == "{dir}" else ():
                yield pytest.param(argv, at, "run", f"run/{name}", id=f"{flag}-{name}-directory")


def _run_with_bad_path(capsys, tmp_path, argv, at, bad, named, fill):
    """Run `argv` with every path flag filled from `fill` (an output gets a fresh path
    under tmp_path) and the one at `at` set to `bad`; returns its stderr and the files
    and directories that the run left under tmp_path."""
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    if named != bad:
        (tmp_path / named).mkdir(parents=True)
    before = set(tmp_path.rglob("*"))
    argv = [fill.get(value, str(tmp_path / f"out{i}")) if value.startswith("{") else value
            for i, value in enumerate(argv)]
    argv[at] = os.path.join(tmp_path, bad)  # as text: tmp_path / "new.csv/" drops the "/"
    assert main(argv) == 1
    return capsys.readouterr().err, set(tmp_path.rglob("*")) - before


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
@pytest.mark.parametrize("argv, at, bad, named", list(_unusable_path_cases()))
def test_unusable_path_gives_exit_1_naming_it(workdir, tmp_path, capsys, argv, at, bad, named):
    fill = {"{ini}": workdir["ini"], "{data}": str(workdir["data"]),
            "{ckpt}": str(workdir["train"] / "checkpoint.json"),
            "{emb}": str(workdir["train"] / "embeddings.csv")}
    err, created = _run_with_bad_path(capsys, tmp_path, argv, at, bad, named, fill)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(tmp_path / named) in err and "Traceback" not in err
    # exit 1 creates nothing: a train run stopped by history.csv wrote checkpoint.json
    assert created == set()


@pytest.mark.parametrize("argv, at, bad, named",
                         list(_unusable_path_cases({"{out}", "{dir}"})))
def test_output_paths_are_checked_before_any_input_is_read(workdir, tmp_path, capsys, argv, at,
                                                           bad, named):
    # every input is missing too, so the error names the output only if it came first
    fill = dict.fromkeys(["{ini}", "{data}", "{ckpt}", "{emb}"], str(tmp_path / "missing.csv"))
    err, created = _run_with_bad_path(capsys, tmp_path, argv, at, bad, named, fill)
    assert str(tmp_path / named) in err and "missing.csv" not in err, err
    assert created == set()


@pytest.mark.parametrize("argv, out", [
    (["baseline", "--method", "mds", "--dataset", "{data}"], "mds.csv"),
    (["align", "--embeddings", "{emb}", "--params", "{data}"], "new/align"),
], ids=["file", "missing-directory"])
def test_unwritable_output_gives_exit_1(workdir, tmp_path, capsys, monkeypatch, argv, out):
    # os.access stands in for a read-only directory, which root could write anyway
    monkeypatch.setattr("gmvlab.cli.os.access", lambda path, mode: False)
    fill = {"{data}": str(workdir["data"]), "{emb}": str(workdir["train"] / "embeddings.csv")}
    out = tmp_path / out
    assert main([fill.get(a, a) for a in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert list(tmp_path.iterdir()) == []


def test_output_directory_is_made_with_its_missing_parents(workdir, tmp_path):
    out = tmp_path / "new" / "deeper" / "align"
    assert main(["align", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--params", str(workdir["data"]), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["align_report.json", "transformed.csv"]


# (argv, the error) of runs whose output is also an input or another output, in a
# directory holding copies of the shared run's files under the names `_clash_dir` gives
CLASHING_PATHS = {
    "metric-out-is-spectrum-out": (
        ["metric", "--embeddings", "emb.csv", "--quantities", "data.csv",
         "--out", "r.csv", "--spectrum-out", "r.csv"], "output r.csv is also the output r.csv"),
    "baseline-out-is-dataset": (
        ["baseline", "--method", "mds", "--dataset", "data.csv", "--out", "data.csv"],
        "output data.csv is also the input data.csv"),
    "baseline-out-is-dataset-by-another-name": (
        ["baseline", "--method", "mds", "--dataset", "data.csv", "--out", "sub/../data.csv"],
        "output sub/../data.csv is also the input data.csv"),
    "embed-out-is-dataset": (
        ["embed", "--checkpoint", "ckpt.json", "--dataset", "data.csv", "--out", "data.csv"],
        "output data.csv is also the input data.csv"),
    "sample-out-is-a-hard-link-to-checkpoint": (
        ["sample", "--checkpoint", "ckpt.json", "--count", "3", "--out", "link.json"],
        "output link.json is also the input ckpt.json"),
    "generate-out-is-config": (
        ["generate", "--config", "run.ini", "--out", "run.ini"],
        "output run.ini is also the input run.ini"),
    "train-out-dir-holds-dataset": (
        ["train", "--config", "run.ini", "--dataset", "run/history.csv", "--out", "run",
         "--quiet"], "output run/history.csv is also the input run/history.csv"),
    "align-out-dir-holds-embeddings": (
        ["align", "--embeddings", "out/transformed.csv", "--params", "data.csv", "--out", "out/"],
        "output out/transformed.csv is also the input out/transformed.csv"),
}


def _clash_dir(workdir, root):
    """Copies of the shared run's inputs under `root`, some where an output goes."""
    (root / "sub").mkdir()
    (root / "run").mkdir()
    (root / "out").mkdir()
    for name, src in [("data.csv", workdir["data"]), ("run/history.csv", workdir["data"]),
                      ("emb.csv", workdir["train"] / "embeddings.csv"),
                      ("out/transformed.csv", workdir["train"] / "embeddings.csv"),
                      ("ckpt.json", workdir["train"] / "checkpoint.json"),
                      ("run.ini", workdir["ini"])]:
        (root / name).write_bytes(Path(src).read_bytes())
    os.link(root / "ckpt.json", root / "link.json")


@pytest.mark.parametrize("case", list(CLASHING_PATHS))
def test_output_that_is_an_input_or_another_output_gives_exit_1(workdir, tmp_path, capsys,
                                                                monkeypatch, case):
    argv, message = CLASHING_PATHS[case]
    _clash_dir(workdir, tmp_path)
    monkeypatch.chdir(tmp_path)
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # nothing is written, and every input keeps its bytes
    assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_never_the_same_file_as_an_output(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert not _same_file(fifo, fifo)
    assert _same_file(tmp_path / "new.csv", tmp_path / "sub" / ".." / "new.csv")


@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_metric_reads_quantities_from_a_pipe(workdir, tmp_path):
    argv = ["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
            "--columns", "alpha", "gamma"]
    assert main(argv + ["--quantities", str(workdir["data"]),
                        "--out", str(tmp_path / "from_file.csv")]) == 0
    src = str(Path(gmvlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gmvlab.cli", *argv,
                           "--quantities", "/dev/stdin", "--out", str(tmp_path / "piped.csv")],
                          input=workdir["data"].read_bytes(), capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "piped.csv").read_bytes() == (tmp_path / "from_file.csv").read_bytes()


def _exit_code(argv) -> int:
    """`main`'s return code, or the code argparse exits with on a usage error."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("argv, config", [
    (["generate", "--seed", "-1"], None),
    (["train", "--seed", "-3", "--dataset", "{data}"], None),
    (["sample", "--checkpoint", "{ckpt}", "--count", "3", "--seed", "-2"], None),
    (["generate"], "[dataset]\nseed = -5\n"),
    (["train", "--dataset", "{data}"], "[training]\nseed = -5\n"),
], ids=["generate-flag", "train-flag", "sample-flag", "dataset-key", "training-key"])
def test_negative_seed_gives_exit_1(workdir, tmp_path, capsys, argv, config):
    fill = {"{data}": str(workdir["data"]), "{ckpt}": str(workdir["train"] / "checkpoint.json")}
    argv = [fill.get(a, a) for a in argv] + ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "neg.ini").write_text(config)
        argv += ["--config", str(tmp_path / "neg.ini")]
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert "seed must be" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["baseline", "--config", "run.ini", "--method", "mds", "--dataset", "d.csv", "--out", "o"],
    ["sample", "--checkpoint", "c.json", "--count", "abc", "--out", "o.csv"],
    ["frobnicate"],
], ids=["unknown-flag", "bad-int", "unknown-subcommand"])
def test_usage_error_gives_exit_1_with_argparse_message(argv, capsys):
    assert _exit_code(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gmvlab") and "error: " in err


def test_help_exits_0(capsys):
    assert _exit_code(["train", "--help"]) == 0
    assert "--dataset" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--r", "0", "metric.r_percent must be in (0, 100], got 0.0"),
    ("--k", "0", "metric.k must be >= 1, got 0"),
])
def test_metric_rejects_bad_k_or_r_before_reading(workdir, tmp_path, capsys, flag, value,
                                                  message):
    # rejected before the graph is built: no disconnected-graph warning, no eta error
    code = main(["metric", "--embeddings", str(workdir["train"] / "embeddings.csv"),
                 "--quantities", str(workdir["data"]), "--columns", "alpha", flag, value,
                 "--out", str(tmp_path / "report.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "report.csv").exists()


def test_invalid_config_gives_exit_1(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\nepochs = -3\n")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "d.csv")]) == 1


def test_empty_hidden_dims_gives_exit_1_through_the_model_rule(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nhidden_dims = ,\n")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err == "error: model.hidden_dims must be positive ints, got ()\n"


def test_space_separated_hidden_dims_gives_exit_1(tmp_path, capsys):
    # the widths are comma-separated; spaces alone do not separate them
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nhidden_dims = 32 16 8\n")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err == \
        f"error: config {bad}: bad value '32 16 8' for model.hidden_dims\n"
    assert not (tmp_path / "d.csv").exists()


FLOAT_KEYS = [(section.name, key.name) for section in fields(RunConfig)
              for key in fields(section.default_factory) if type(key.default) is float]


@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_config_number_gives_exit_1(tmp_path, capsys, section, key, value):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    assert main(["generate", "--config", str(ini), "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err == f"error: {section}.{key} must be finite, got {value}\n"
    assert not (tmp_path / "d.csv").exists()
    # the section's own rule, applied wherever a section is built
    with pytest.raises(InputError, match=f"^{section}.{key} must be finite, got {value}$"):
        replace(getattr(RunConfig(), section), **{key: float(value)})


MALFORMED_CONFIGS = {
    "no-section-header": b"n_samples = 100\n",
    "repeated-section": b"[dataset]\nseed = 1\n[dataset]\nsteps = 5\n",
    "repeated-key": b"[dataset]\nseed = 1\nseed = 2\n",
    "line-without-equals": b"[dataset]\nseed\n",
    "interpolation": b"[dataset]\nseed = %(x)s\n",
    "non-utf8": b"[dataset]\nseed = \xff\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_CONFIGS))
def test_malformed_config_file_gives_one_error_line_naming_it(tmp_path, capsys, case):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(MALFORMED_CONFIGS[case])
    assert main(["generate", "--config", str(ini), "--out", str(tmp_path / "d.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {ini}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("text", ["[DEFAULT]\nseed = 3\n",
                                  "[DEFAULT]\nseed = 3\n[model]\nbeta = 0.2\n"],
                         ids=["alone", "before-model"])
def test_default_section_gives_exit_1(tmp_path, capsys, text):
    # configparser would copy [DEFAULT]'s keys into every section, not apply them to one
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    assert main(["generate", "--config", str(ini), "--out", str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().err == f"error: config {ini}: unknown section [DEFAULT]\n"
    assert not (tmp_path / "d.csv").exists()


def test_corrupt_dataset_fails_validation_with_exit_1(workdir, tmp_path, capsys):
    text = workdir["data"].read_text().splitlines()
    parts = text[1].split(",")
    parts[1] = "nan"
    text[1] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(text) + "\n")
    code = main(["train", "--config", workdir["ini"], "--dataset", str(bad),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def _malformed(text, mutation, column):
    """`text` with one defect in `column` or in data line 3; returns the new text
    and the line number the error should name, if any."""
    lines = text.splitlines()
    header, row = lines[0].split(","), lines[2].split(",")
    j = header.index(column)
    if mutation == "empty-file":
        return "", None
    if mutation == "header-only":
        return lines[0] + "\n", None
    if mutation == "reordered-rows":
        lines[1], lines[2] = lines[2], lines[1]
        return "\n".join(lines) + "\n", 2
    if mutation == "no-rho-columns":
        keep = [k for k, name in enumerate(header) if not name.startswith("rho_")]
        return "".join(",".join(line.split(",")[k] for k in keep) + "\n" for line in lines), None
    if mutation in ("bad-header", "repeated-header"):
        k, name = {"bad-header": (j, column[:-1] + "x"),
                   "repeated-header": (j + 1, column)}[mutation]
        header[k] = name
        lines[0] = ",".join(header)
        return "\n".join(lines) + "\n", None
    if mutation == "truncated-row":
        row.pop()
    elif mutation == "extra-cell":
        row.append("1")
    elif mutation == "bad-label":
        row[header.index("label")] = "sideways"
    elif mutation == "bad-split":
        row[header.index("split")] = "tets"
    else:
        k, value = {"non-numeric": (j, "abc"), "nan": (j, "nan"), "non-integer-id": (0, "2.5"),
                    "repeated-id": (0, lines[1].split(",")[0])}[mutation]
        row[k] = value
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n", 3


# name -> (file to corrupt, its column to corrupt, argv given the corrupt file and an output path)
MALFORMED_TARGETS = {
    "dataset-via-baseline": ("data", "rho_0", lambda w, bad, out: [
        "baseline", "--method", "mds", "--dataset", bad, "--out", out]),
    "dataset-via-train": ("data", "rho_0", lambda w, bad, out: [
        "train", "--config", w["ini"], "--dataset", bad, "--out", out, "--quiet"]),
    "embeddings-via-metric": ("embeddings", "mu_1", lambda w, bad, out: [
        "metric", "--embeddings", bad, "--quantities", str(w["data"]), "--columns", "alpha",
        "--out", out]),
    "embeddings-via-align": ("embeddings", "mu_1", lambda w, bad, out: [
        "align", "--embeddings", bad, "--params", str(w["data"]), "--columns", "xi1", "xi2",
        "--out", out]),
    "quantities-via-metric": ("data", "alpha", lambda w, bad, out: [
        "metric", "--embeddings", str(w["train"] / "embeddings.csv"), "--quantities", bad,
        "--columns", "alpha", "--out", out]),
    "params-via-align": ("data", "xi1", lambda w, bad, out: [
        "align", "--embeddings", str(w["train"] / "embeddings.csv"), "--params", bad,
        "--columns", "xi1", "xi2", "--out", out]),
}
MUTATIONS = ["non-numeric", "nan", "truncated-row", "extra-cell", "empty-file", "header-only",
             "non-integer-id", "repeated-id", "bad-header", "repeated-header"]
# (target, mutation): every mutation on every target, plus, on the targets that
# load a dataset, a label outside the two classes, a split name outside the three,
# rows out of sample_id order (the other readers join on sample_id) and no
# coverage columns
DATASET_MUTATIONS = ["bad-label", "bad-split", "reordered-rows", "no-rho-columns"]
MALFORMED_CASES = [(t, m) for t in MALFORMED_TARGETS for m in MUTATIONS] + [
    (t, m) for t in ("dataset-via-baseline", "dataset-via-train") for m in DATASET_MUTATIONS]
# mutation -> what the error line must say besides the file and line
MALFORMED_MESSAGES = {"bad-label": "unknown label 'sideways'",
                      "bad-split": "unknown split 'tets'",
                      "reordered-rows": "sample_id 1, expected 0",
                      "no-rho-columns": "no rho_* columns found"}


@pytest.mark.parametrize("target,mutation", MALFORMED_CASES,
                         ids=[f"{t}-{m}" for t, m in MALFORMED_CASES])
def test_malformed_csv_gives_exit_1_naming_file_and_line(workdir, tmp_path, capsys, target,
                                                         mutation):
    source, column, argv = MALFORMED_TARGETS[target]
    valid = workdir["data"] if source == "data" else workdir["train"] / "embeddings.csv"
    text, line = _malformed(valid.read_text(), mutation, column)
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(argv(workdir, str(bad), str(tmp_path / "out"))) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(bad) in err, err
    if line is not None:
        assert f"line {line}" in err, err
    if mutation == "repeated-header":
        assert f"column {column!r} appears twice" in err, err
    if mutation in MALFORMED_MESSAGES:
        assert MALFORMED_MESSAGES[mutation] in err, err


def test_overflowing_training_gives_exit_2(workdir, tmp_path, capsys):
    # a finite but astronomically large value passes validation, yet the
    # gradient it gives squares to inf, so training aborts numerically before
    # Adam's step and before numpy can warn
    lines = workdir["data"].read_text().splitlines()
    for i in range(1, len(lines)):
        parts = lines[i].split(",")
        if parts[-1] == "train":
            parts[1] = "1e200"
            lines[i] = ",".join(parts)
            break
    bad = tmp_path / "huge.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main(["train", "--config", workdir["ini"], "--dataset", str(bad),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    assert "epoch 0" in capsys.readouterr().err


def test_training_blow_up_gives_exit_2_naming_epoch_and_batch(workdir, tmp_path, capsys,
                                                             monkeypatch):
    # 64 training rows in batches of 16 are 4 Adam steps per epoch; blowing the
    # weights up after the 5th (epoch 1, batch 0) makes epoch 1's batch 1 fail
    train_module = sys.modules["gmvlab.gmvae.train"]
    real = train_module.adam_step

    def adam_then_blow_up(theta, grad, state):
        real(theta, grad, state)
        if state.step_count == 5:
            theta[:] = 1e300

    monkeypatch.setattr(train_module, "adam_step", adam_then_blow_up)
    code = main(["train", "--config", workdir["ini"], "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    # the posterior raises before numpy can warn, so the failure is all stderr says
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: epoch 1, batch 1, forward pass: encoder log-variance overflows: "
        "non-finite posterior variance (last good epoch 0)"]
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.filterwarnings("default:cluster 0 held back")
def test_a_failed_command_prints_only_its_failure_line(workdir, tmp_path, capsys, monkeypatch):
    # epoch 0's EM pass warns, then the weights blow up after the 5th Adam step
    # (64 rows in batches of 16), so epoch 1's batch 1 fails: the warning of the
    # completed epoch is dropped with the run, and the failure is all stderr says
    train_module = sys.modules["gmvlab.gmvae.train"]
    real_adam, real_em = train_module.adam_step, train_module.em_step

    def adam_then_blow_up(theta, grad, state):
        real_adam(theta, grad, state)
        if state.step_count == 5:
            theta[:] = 1e300

    def em_and_warn(*args, **kwargs):
        warnings.warn("cluster 0 held back")
        return real_em(*args, **kwargs)

    monkeypatch.setattr(train_module, "adam_step", adam_then_blow_up)
    monkeypatch.setattr(train_module, "em_step", em_and_warn)
    code = main(["train", "--config", workdir["ini"], "--dataset", str(workdir["data"]),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert (code, capsys.readouterr().err.splitlines()) == (2, [
        "numerical failure: epoch 1, batch 1, forward pass: encoder log-variance overflows: "
        "non-finite posterior variance (last good epoch 0)"])


@pytest.mark.filterwarnings("default:cluster .* received ~zero responsibility mass")
@pytest.mark.parametrize("lr", ["1e4", "1e5"])
def test_diverging_learning_rate_gives_exit_2(tmp_path, capsys, lr):
    # the default model on 100 rows diverges within 50 epochs. At lr 1e4 a
    # gradient whose square overflows once froze its parameter in Adam, and the
    # run exited 0. Where and how a run blows up depends on the CPU's BLAS, so
    # only the exit code and the single failure line are asserted
    ini = tmp_path / "diverge.ini"
    ini.write_text(f"[dataset]\nn_samples = 100\n[training]\nepochs = 50\nlr = {lr}\n")
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(ini), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(ini), "--dataset", str(data),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: epoch "), err
    assert not (tmp_path / "run" / "checkpoint.json").exists()


@pytest.mark.parametrize("setting, cause", [
    ("decoder_var = 1e-308", "overflow encountered in divide"),
    ("beta = 1e308", "overflow encountered in multiply"),
], ids=["decoder_var", "beta"])
def test_decoder_side_blow_up_gives_exit_2_and_no_warning(tmp_path, capsys, setting, cause):
    # the first batch's gradient overflows, in (x_hat - x) / decoder_var or in a
    # beta-weighted term. The overflow raises where it happens, so numpy prints no
    # warning line before the failure
    ini = tmp_path / "blow_up.ini"
    ini.write_text(f"[dataset]\nn_samples = 100\n[training]\nepochs = 5\n[model]\n{setting}\n")
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(ini), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(ini), "--dataset", str(data),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure: epoch 0, batch 0, gradient: {cause} (no completed epoch)"]
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_decoder_var_without_a_finite_reciprocal_exits_1_before_training(tmp_path, capsys):
    # 1 / 5e-324 overflows, so the config is rejected where it loads, as
    # [training] variance_floor is; it used to exit 2 in epoch 0's gradient
    ini = tmp_path / "zero_var.ini"
    ini.write_text("[model]\ndecoder_var = 5e-324\n")
    code = main(["train", "--config", str(ini), "--dataset", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert (code, capsys.readouterr().err.splitlines()) == (1, [
        "error: model.decoder_var must be > 0 with a finite reciprocal, got 5e-324"])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("setting", ["kappa = 1e308", "horizon = 1e300"])
def test_integration_blow_up_gives_exit_2_and_one_line(tmp_path, capsys, setting):
    # the RK4 loop raises its overflow where it happens, so numpy prints no
    # warning line before the failure
    ini = tmp_path / "blow_up.ini"
    ini.write_text(f"[dataset]\nn_samples = 20\n{setting}\n")
    out = tmp_path / "data.csv"
    assert main(["generate", "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: integration at step 1: "), err
    assert not out.exists()


def test_forward_pass_overflow_is_not_named_a_gradient(tmp_path, capsys):
    # the first Adam step at lr 1e308 moves every parameter by about 1e308, so
    # batch 1's encoder product overflows: the message names the step that raised
    ini = tmp_path / "huge_lr.ini"
    ini.write_text("[dataset]\nn_samples = 100\n[training]\nepochs = 5\nlr = 1e308\n")
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(ini), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(ini), "--dataset", str(data),
                 "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("numerical failure: epoch 0, batch 1, forward pass: "), err
    assert err[0].endswith(" (no completed epoch)") and "gradient" not in err[0], err


def _scaled_coverage(path, n_samples, factor):
    """Generate an n_samples-row dataset at `path`, every coverage cell times `factor`."""
    ini = path.with_suffix(".ini")
    ini.write_text(f"[dataset]\nn_samples = {n_samples}\n")
    assert main(["generate", "--config", str(ini), "--out", str(path)]) == 0
    header, rows = read_rows(path)
    rho = [j for j, name in enumerate(header) if name.startswith("rho_")]
    for row in rows:
        for j in rho:
            row[j] = repr(float(row[j]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


@pytest.mark.parametrize("case", ["one-cell-1e200", "coverage-x1e153"])
def test_overflowing_mds_gives_exit_2(workdir, tmp_path, capsys, case):
    # one coverage cell of 1e200: squares of the centred coordinates overflow in
    # the Gram product. Every coverage cell of 100 rows times 1e153: the Gram
    # matrix is finite but its top eigenvalue is not, and LAPACK returns that as
    # inf with no flag, so the embedding was all zeros at exit 0; the trace,
    # which bounds it, overflows. Either raises before numpy can warn
    bad = tmp_path / "huge.csv"
    if case == "one-cell-1e200":
        lines = workdir["data"].read_text().splitlines()
        parts = lines[1].split(",")
        parts[1] = "1e200"
        lines[1] = ",".join(parts)
        bad.write_text("\n".join(lines) + "\n")
    else:
        _scaled_coverage(bad, 100, 1e153)
        capsys.readouterr()
    out = tmp_path / "mds.csv"
    code = main(["baseline", "--method", "mds", "--dataset", str(bad), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    assert not out.exists()


def test_overflowing_isomap_gives_exit_2(tmp_path, capsys):
    # every coverage cell of 60 rows times 4e152: the geodesics are finite, but
    # classical MDS's double-centring of their squares overflows. Once two numpy
    # warnings, then the eigensolver's failure
    bad = tmp_path / "huge.csv"
    _scaled_coverage(bad, 60, 4e152)
    capsys.readouterr()
    out = tmp_path / "isomap.csv"
    code = main(["baseline", "--method", "isomap", "--k", "15", "--dataset", str(bad),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: classical_mds: overflow encountered in reduce"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["mds", "isomap"])
@pytest.mark.parametrize("dim", [0, 81, 10**9], ids=["zero", "n+1", "1e9"])
def test_baseline_dim_outside_one_to_n_gives_exit_1(workdir, tmp_path, capsys, method, dim):
    # the 80-row dataset; a (n, 10**9) embedding would need 640 GB
    out = tmp_path / "emb.csv"
    code = main(["baseline", "--method", method, "--dim", str(dim),
                 "--dataset", str(workdir["data"]), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"dim must be between 1 and the number of points (80), got {dim}" in err
    assert not out.exists()


def test_train_rerun_reproduces_outputs_exactly(workdir, tmp_path):
    # the second run writes into the directory the first one made
    out = tmp_path / "again"
    for _ in range(2):
        assert main(["train", "--config", workdir["ini"], "--dataset", str(workdir["data"]),
                     "--out", str(out), "--quiet"]) == 0
        for name in ("checkpoint.json", "history.csv", "embeddings.csv"):
            assert (out / name).read_bytes() == (workdir["train"] / name).read_bytes(), name


def test_metric_reads_k_and_r_from_config(workdir, tmp_path):
    ini = tmp_path / "metric.ini"
    ini.write_text("[metric]\nk = 6\nr_percent = 50\n")
    out = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["metric", "--config", str(ini),
                     "--embeddings", str(workdir["train"] / "embeddings.csv"),
                     "--quantities", str(workdir["data"]), "--columns", "alpha",
                     "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0][1] == "6"
    assert float(rows[0][2]) == 50.0


def _widen_decoder_input(ckpt):
    dec = ckpt["decoder"]
    dec["layer_dims"][0] += 1
    dec["weights"][0] = [row + [0.0] for row in dec["weights"][0]]


def _drop_last_decoder_layer(ckpt):
    dec = ckpt["decoder"]
    for key in ("layer_dims", "weights", "biases"):
        dec[key].pop()


BAD_CHECKPOINTS = {
    "not-json": None,
    "format-tag": lambda c: c.update(format="other"),
    "missing-gmm": lambda c: c.pop("gmm"),
    "latent-dim-string": lambda c: c.update(latent_dim="x"),
    "latent-dim-vs-encoder": lambda c: c.update(latent_dim=3),
    "pi-too-short": lambda c: c["gmm"].update(pi=[1.0]),
    "negative-variance": lambda c: c["gmm"]["variances"][0].__setitem__(0, -1.0),
    "means-shape": lambda c: c["gmm"].update(means=[[0.0]]),
    "nan-weight": lambda c: c["encoder"]["weights"][0][0].__setitem__(0, float("nan")),
    "decoder-input-width": _widen_decoder_input,
    "decoder-output-width": _drop_last_decoder_layer,
    "layer-dims-float": lambda c: c["encoder"]["layer_dims"].__setitem__(0, 50.0),
    "layer-dims-string": lambda c: c["encoder"]["layer_dims"].__setitem__(0, "50"),
    # json.dumps writes these as the token Infinity, which json.loads reads back
    "decoder-var-inf": lambda c: c.update(decoder_var=float("inf")),
    "beta-inf": lambda c: c.update(beta=float("inf")),
    # json.dumps writes these as integers, which json.loads reads back as ints past float range
    "decoder-var-huge-int": lambda c: c.update(decoder_var=10**400),
    "beta-huge-int": lambda c: c.update(beta=10**400),
}


UNDECODABLE_CHECKPOINTS = {
    "non-utf8": b'{"format": "\xff"}',
    "nested-past-the-recursion-limit": b"[" * 100000,
}


@pytest.mark.parametrize("case", list(UNDECODABLE_CHECKPOINTS))
def test_undecodable_checkpoint_gives_one_error_line_naming_it(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE_CHECKPOINTS[case])
    assert main(["sample", "--checkpoint", str(bad), "--count", "5",
                 "--out", str(tmp_path / "gen.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {bad}: not valid JSON (")
    assert err.count("\n") == 1, err
    assert not (tmp_path / "gen.csv").exists()


@pytest.mark.parametrize("mutation", list(BAD_CHECKPOINTS))
def test_malformed_checkpoint_gives_exit_1_naming_the_file(workdir, tmp_path, capsys, mutation):
    bad = tmp_path / "bad.json"
    mutate = BAD_CHECKPOINTS[mutation]
    if mutate is None:
        bad.write_text("{not json")
    else:
        ckpt = json.loads((workdir["train"] / "checkpoint.json").read_text())
        mutate(ckpt)
        bad.write_text(json.dumps(ckpt))
    for argv in (["embed", "--checkpoint", str(bad), "--dataset", str(workdir["data"]),
                  "--out", str(tmp_path / "emb.csv")],
                 ["sample", "--checkpoint", str(bad), "--count", "5",
                  "--out", str(tmp_path / "gen.csv")]):
        assert main(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(bad) in err, err
