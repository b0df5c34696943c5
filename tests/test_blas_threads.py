"""Outputs across BLAS thread counts: `train` writes the same bytes with one and
two OpenBLAS threads, and `metric`'s eta agrees within a bound derived from the
eigensolver's rounding."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gmvlab
from gmvlab.cli import main

SRC = str(Path(gmvlab.__file__).parents[1])
CONFIG = "[dataset]\nn_samples = 400\n[training]\nepochs = 40\n"
THREADS = (1, 2)


def _run_each(argv_by_threads, cwd):
    """Run `python -m gmvlab.cli` once per thread count, side by side, with
    OPENBLAS_NUM_THREADS set to it; each must exit 0."""
    procs = []
    for threads, argv in argv_by_threads.items():
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen([sys.executable, "-m", "gmvlab.cli", *argv], cwd=cwd,
                                      env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()


def _column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def test_train_bytes_and_metric_eta_do_not_depend_on_the_blas_thread_count(tmp_path):
    (tmp_path / "run.ini").write_text(CONFIG)
    assert main(["generate", "--config", str(tmp_path / "run.ini"),
                 "--out", str(tmp_path / "data.csv")]) == 0
    _run_each({t: ["train", "--config", "run.ini", "--dataset", "data.csv", "--out", f"run{t}",
                   "--quiet"] for t in THREADS}, tmp_path)
    for name in ("checkpoint.json", "history.csv", "embeddings.csv"):
        one, two = ((tmp_path / f"run{t}" / name).read_bytes() for t in THREADS)
        assert one == two, name

    _run_each({t: ["metric", "--embeddings", f"run{t}/embeddings.csv", "--quantities",
                   "data.csv", "--out", f"report{t}.csv", "--spectrum-out", f"spectrum{t}.csv"]
               for t in THREADS}, tmp_path)
    # the eigensolver is backward stable: each run's eigenvectors are exact for L + E
    # with ||E|| <= n eps ||L||, up to a modest factor. eta is the share of a quantity's
    # energy in the span of the lowest m eigenvectors, so it moves by at most the
    # distance between the two spans' projectors, which the Davis-Kahan theorem bounds
    # by 2 ||E|| / gap, where gap = lambda_m - lambda_{m-1} at the cutoff
    spectrum = tmp_path / "spectrum1.csv"
    quantities = _column(spectrum, "quantity")
    lam = np.array(_column(spectrum, "eigenvalue"), dtype=float)[
        np.array(quantities) == quantities[0]]
    n = lam.size
    m = math.ceil(20 * n / 100)  # metric's default r = 20%
    gap = lam[m] - lam[m - 1]
    bound = 2 * n * np.finfo(float).eps * lam[-1] / gap
    assert bound < 1e-9  # the cutoff splits no (near-)degenerate eigenspace
    eta1, eta2 = (np.array(_column(tmp_path / f"report{t}.csv", "eta"), dtype=float)
                  for t in THREADS)
    np.testing.assert_allclose(eta2, eta1, rtol=bound / eta1.min(), atol=0)
