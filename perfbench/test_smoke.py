"""Smoke test of the benchmark at tiny sizes; not part of the tier-1 suite.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

STAGES = {
    "train": {"train_s", "pipeline_s", "train_epoch_ms.p50", "train_epoch_ms.p95"},
    "spectral": {"metric_s", "mds_s"},
    "isomap": {"isomap_s"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    detail = next(json.loads(x)["detail"] for x in lines if x.startswith('{"detail"'))
    assert STAGES[workload] | {"failed_share"} <= set(detail["stages"])
    assert all(m["unit"] for m in detail["stages"].values())
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "git_commit",
            "seed"} <= set(detail["provenance"])
    if trace:
        assert detail["absent_layers"] == []
        calls = result["metrics"]["spectral.spectrum.calls"]["value"]
        assert calls == (2 if workload == "spectral" else 0)  # metric solves twice today


def test_benchmark_lists_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    names = [m[:2] for m in tracing.PER_LAYER] + [tracing.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == names


def test_absent_layer_is_reported_not_fatal(monkeypatch):
    bench.import_program()
    monkeypatch.delattr(sys.modules["gmvlab.gmvae.train"], "backward")
    tracer = tracing.Tracer()
    tracer.install()
    assert tracer.absent == ["ndmath.backward (gmvlab.gmvae.train.backward)"]
    assert tracer.metrics(1, 1, 0.0)["ndmath.backward.ms_per_epoch"]["value"] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _write(path, header, rows):
    lines = [",".join(header)] + [",".join(format(float(v), ".17g") for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_checks_accept_references_and_catch_errors(tmp_path):
    rng = np.random.default_rng(0)
    n = 30
    # metric: eigh-consistent report and spectrum pass; a moved eta fails
    points = rng.standard_normal((n, 2))
    q = rng.standard_normal((n, 1))
    a = checks.knn_adjacency(points, 5)
    w, v = np.linalg.eigh(np.diag(a.sum(axis=1)) - a)
    coeff = v.T @ q[:, 0]
    eta = float(np.sum(coeff[:6] ** 2) / np.sum(coeff**2))
    _write(tmp_path / "emb.csv", ["sample_id", "mu_1", "mu_2"],
           [[i, *p] for i, p in enumerate(points)])
    _write(tmp_path / "q.csv", ["sample_id", "alpha"], [[i, x] for i, x in enumerate(q[:, 0])])
    (tmp_path / "spec.csv").write_text("quantity,mode,eigenvalue,alpha\n" + "".join(
        f"alpha,{i},{float(lam)!r},{float(c)!r}\n" for i, (lam, c) in enumerate(zip(w, coeff))))
    args = (tmp_path / "emb.csv", tmp_path / "q.csv", tmp_path / "rep.csv",
            tmp_path / "spec.csv", ["alpha"], 5, 20.0)
    for value, ok in ((eta, True), (eta + 1e-6, False)):
        (tmp_path / "rep.csv").write_text(
            f"quantity,k,r_percent,eta,n_components\nalpha,5,20,{value!r},1\n")
        assert (checks.check_metric(*args) is None) == ok

    # mds: the reference with one column flipped passes; a perturbed one fails
    x = rng.standard_normal((n, 4))
    sq = np.sum(x**2, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0)
    np.fill_diagonal(d2, 0.0)
    ref = checks.mds_reference(d2, 2) * np.array([1.0, -1.0])
    _write(tmp_path / "data.csv", ["sample_id"] + [f"rho_{j}" for j in range(4)],
           [[i, *r] for i, r in enumerate(x)])
    for shift, ok in ((0.0, True), (1e-5, False)):
        _write(tmp_path / "mds.csv", ["sample_id", "mu_1", "mu_2"],
               [[i, *r] for i, r in enumerate(ref + shift)])
        assert (checks.check_mds(tmp_path / "data.csv", tmp_path / "mds.csv") is None) == ok

    # isomap: Floyd-Warshall geodesics pass; a nudged geodesic fails
    from workloads import swiss_roll

    roll = swiss_roll(5, (12, 4))
    g = checks.floyd_warshall(roll, 10)
    emb = checks.mds_reference(g**2, 2)
    assert checks.check_isomap(roll, 10, emb, g) is None
    assert checks.check_isomap(roll, 10, emb, g + 1e-6) is not None
