"""The pinned walkthrough script: two runs in separate processes and
directories give identical manifests, and --compare reports a difference."""

import json
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
