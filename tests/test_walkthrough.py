"""The pinned walkthrough script: two runs in separate processes and
directories give identical manifests, --compare reports a difference, and
--compare --rtol lets numbers differ within a tolerance and nothing else."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "walkthrough.py"


def _script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True,
                          text=True, timeout=600)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    dirs = [tmp_path_factory.mktemp("walk") / name for name in ("a", "b")]
    for out in dirs:
        proc = _script("--out", out)
        assert proc.returncode == 0, proc.stderr
    return dirs


def test_two_runs_give_identical_manifests(runs):
    a, b = (json.loads((out / "manifest.json").read_text()) for out in runs)
    assert a == b
    proc = _script("--compare", *runs)
    assert (proc.returncode, proc.stdout) == (0, "manifests are identical\n")


def test_manifest_covers_every_subcommand(runs):
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    exits = {tuple(c["argv"][:3]): c["exit"] for c in manifest["commands"]}
    assert {argv[0] for argv in exits} == {"generate", "train", "embed", "sample", "metric",
                                           "baseline", "align"}
    # README step 6's isomap --k 40 splits the graph on this dataset too
    assert exits.pop(("baseline", "--method", "isomap")) == 1
    assert set(exits.values()) == {0}
    assert {"data.csv", "run/checkpoint.json", "run/history.csv", "emb.csv", "gen0.csv",
            "spectrum.csv", "mds.csv", "align/transformed.csv"} <= set(manifest["files"])


def test_manifest_records_the_environment_the_commands_ran_in(runs):
    env = json.loads((runs[0] / "manifest.json").read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert env["blas_threads"] == 1
    assert env["blas"]


def test_compare_names_what_differs(runs, tmp_path):
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    manifest["files"]["mds.csv"] = "0" * 64
    manifest["commands"][1]["stdout"] += "extra line\n"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(manifest))
    proc = _script("--compare", runs[0], edited)
    assert proc.returncode == 1
    assert "changed: mds.csv" in proc.stdout
    assert "stdout of gmvlab train" in proc.stdout and "  +extra line" in proc.stdout


def test_compare_ignores_the_environment(runs, tmp_path):
    # a manifest written before the environment was recorded compares on files and commands
    manifest = json.loads((runs[0] / "manifest.json").read_text())
    del manifest["environment"]
    edited = tmp_path / "no_environment.json"
    edited.write_text(json.dumps(manifest))
    proc = _script("--compare", edited, runs[1])
    assert (proc.returncode, proc.stdout) == (0, "manifests are identical\n")


def _edited_run(run, tmp_path, edits):
    """A copy of the run directory `run` with each file's text replaced by
    `edits[file](text)`, its manifest's digests updated to match."""
    copy = tmp_path / "edited"
    shutil.copytree(run, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    for name, edit in edits.items():
        path = copy / name
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


def _scale_eta(factor):
    """An edit of report.csv: the first row's eta times `factor`."""
    def edit(text):
        lines = text.split("\r\n")
        row = lines[1].split(",")
        row[3] = repr(float(row[3]) * factor)
        lines[1] = ",".join(row)
        return "\r\n".join(lines)
    return edit


def _scale_decoder_var(text):
    checkpoint = json.loads(text)
    checkpoint["decoder_var"] *= 1 + 1e-12
    return json.dumps(checkpoint)


def test_compare_rtol_passes_numbers_within_tolerance(runs, tmp_path):
    edited = _edited_run(runs[1], tmp_path, {"report.csv": _scale_eta(1 + 1e-12),
                                            "run/checkpoint.json": _scale_decoder_var})
    assert _script("--compare", runs[0], edited).returncode == 1  # the digests differ
    proc = _script("--compare", runs[0], edited, "--rtol", "1e-9")
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[-1] == "manifests agree within rtol 1e-09"
    [eta] = [line for line in lines if line.startswith("changed: report.csv, column 'eta': ")]
    [var] = [line for line in lines if line.startswith("changed: run/checkpoint.json, key ")]
    assert "key 'decoder_var'" in var
    for line in (eta, var):
        assert 0 < float(line.split("difference ")[1].split(",")[0]) < 2e-12, line
        assert line.endswith("within rtol 1e-09")


def test_compare_rtol_fails_numbers_beyond_tolerance(runs, tmp_path):
    edited = _edited_run(runs[1], tmp_path, {"report.csv": _scale_eta(1 + 1e-6)})
    proc = _script("--compare", runs[0], edited, "--rtol", "1e-9")
    assert proc.returncode == 1
    [eta] = [line for line in proc.stdout.splitlines() if "report.csv" in line]
    assert eta.startswith("changed: report.csv, column 'eta': ") and "beyond rtol 1e-09" in eta
    assert "agree" not in proc.stdout


def test_compare_rtol_keeps_other_differences_fatal(runs, tmp_path):
    # a text cell and a command's stdout differ; no tolerance excuses either
    edited = _edited_run(runs[1], tmp_path, {"emb.csv": lambda text: text.replace(
        ",train,", ",tests,", 1)})
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["commands"][0]["stdout"] += "extra line\n"
    (edited / "manifest.json").write_text(json.dumps(manifest))
    proc = _script("--compare", runs[0], edited, "--rtol", "1")
    assert proc.returncode == 1
    assert "changed: emb.csv: line " in proc.stdout and "column 'split'" in proc.stdout
    assert "stdout of gmvlab generate" in proc.stdout
    # the files are read from the run directories, so manifest files will not do
    proc = _script("--compare", runs[0] / "manifest.json", edited, "--rtol", "1")
    assert proc.returncode == 2 and "needs the two run directories" in proc.stderr
