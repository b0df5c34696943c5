"""The three workloads: set-up, one timed cycle, and the checks on its outputs.

Operations run in-process through ``gmvlab.cli.main([...])``, as a user
would type them from the README walkthrough, or through the public Python
API where the CLI cannot hand over the points (Isomap on a Swiss roll).
Each workload is a single-client closed loop: a cycle starts when the
previous one ends.

- train: README steps 1-4 and 7 at default sizes; training (tape forward,
  backward, Adam, EM) does nearly all the work and no eigensolve runs.
- spectral: README steps 5-6 on a 192-row dataset; the cyclic-Jacobi
  eigensolver does nearly all the work (a kNN Laplacian in `metric`, a
  dense double-centred Gram in `mds`) and no training is timed.
- isomap: ``baselines.isomap`` on a connected 128-point Swiss roll, the
  only workload where the Dijkstra geodesics run.
"""

from __future__ import annotations

import io
import math
import re
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class Sizes:
    train_rows: int = 1280       # README default dataset
    train_epochs: int = 200      # per train op; >= 200 puts >= 10 epochs beyond p95
    # The eigensolves run at a small size: Jacobi takes ~1056 s at the default
    # 1280 rows, and solves of several seconds each keep the run-to-run spread
    # on a shared machine well inside the bounds (256 rows gave 0.15-0.17).
    spectral_rows: int = 192     # still splits README step 6's k=40 graph, like 1280
    pretrain_epochs: int = 50    # brief training that yields the spectral embeddings
    roll_grid: tuple = (32, 4)   # Swiss roll points along x across the strip
    isomap_k: int = 10


FULL = Sizes()
SMOKE = Sizes(train_rows=100, train_epochs=4, spectral_rows=64, pretrain_epochs=3,
              roll_grid=(12, 4))

# Duration of `probe_s` on the reference machine (2 cores, Python 3.11,
# numpy 2.4 on OpenBLAS 0.3.31) when no other tenant slows it down.
REF_PROBE_S = 0.005
_PROBE_A = np.full((64, 64), 0.01)


def probe_s() -> float:
    """Median wall time of a fixed loop of small numpy calls driven from Python.

    The program's hot loops (the tape, Jacobi rotations, Dijkstra) are the
    same mix, so when the machine runs slower the probe slows with them.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = _PROBE_A
        for _ in range(200):
            x = np.tanh(x @ _PROBE_A) + x[0, 0] * 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Cycle:
    """One pass through a workload's timed operations, in reference seconds."""

    seconds: float = 0.0                         # time of the timed operations
    stages: dict = field(default_factory=dict)   # named stage -> seconds
    epoch_ms: list = field(default_factory=list)  # training epochs, if any


class Harness:
    """Runs operations, times them, and counts attempts and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.scales: list[float] = []  # reference seconds per wall second, per timing
        self.train_runs: list[tuple[list, list]] = []  # (epoch end times, losses) per train
        self._install_epoch_clock()

    def _install_epoch_clock(self) -> None:
        """Time each epoch through train's public `progress` callback."""
        cli = sys.modules["gmvlab.cli"]
        real_train = cli.train

        def timed_train(model, x_train, cfg, progress=None):
            marks, losses = [time.perf_counter()], []
            self.train_runs.append((marks, losses))

            def on_epoch(epoch, terms):
                marks.append(time.perf_counter())
                losses.append(terms.total_loss)
                if progress is not None:
                    progress(epoch, terms)

            return real_train(model, x_train, cfg, progress=on_epoch)

        cli.train = timed_train

    @contextmanager
    def untraced(self):
        enabled = self.tracer is not None and self.tracer.enabled
        if enabled:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if enabled:
                self.tracer.enabled = True

    def timed(self, fn) -> tuple:
        """Call fn(); returns (its time in reference seconds, its result).

        The wall time is scaled by REF_PROBE_S over the mean of two probes
        taken just before and just after, which cancels the slow phases of
        a shared machine (often 30% or more, lasting minutes).
        """
        before = probe_s()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.scales.append(REF_PROBE_S / (0.5 * (before + probe_s())))
        return wall * self.scales[-1], result

    def cli(self, argv) -> tuple:
        """Run one subcommand; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = sys.modules["gmvlab.cli"].main([str(a) for a in argv])
        except SystemExit as e:  # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 1
        except Exception:  # a crash is a failed operation, not a benchmark error
            code = "crash"
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def op(self, label: str, argv, check=None) -> float:
        """A timed CLI operation; passes on exit 0 and `check(stdout)` returning None."""
        seconds, (code, out, err) = self.timed(lambda: self.cli(argv))
        if code != 0:
            problem = f"exit {code}: {err.strip()[-400:]}"
        else:
            with self.untraced():
                problem = check(out) if check else None
        self.record(label, problem)
        return seconds

    def setup_cli(self, argv) -> str:
        """A set-up step; set-up that fails leaves nothing to measure."""
        code, out, err = self.cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up step {argv[0]} exited {code}: {err.strip()[-400:]}")
        return out


def write_config(path: Path, rows: int, epochs: int) -> Path:
    path.write_text(f"[dataset]\nn_samples = {rows}\n\n[training]\nepochs = {epochs}\n")
    return path


class TrainWorkload:
    """generate -> train -> embed -> sample -> align (README steps 1-4, 7)."""

    def __init__(self, h: Harness, seed: int, sizes: Sizes):
        self.h, self.seed, self.sizes = h, seed, sizes
        self.digest = None

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        self.dir = d
        self.config = write_config(d / "run.ini", self.sizes.train_rows, self.sizes.train_epochs)

    def cycle(self) -> Cycle:
        d, h = self.dir, self.h
        data, run, emb = d / "data.csv", d / "run", d / "emb.csv"
        ckpt = run / "checkpoint.json"
        c = Cycle()
        s_gen = h.op("generate", ["generate", "--config", self.config, "--seed", self.seed,
                                  "--out", data])
        first_epoch = len(h.train_runs)
        s_train = h.op("train", ["train", "--config", self.config, "--dataset", data,
                                 "--out", run], check=self._check_train)
        train_scale = h.scales[-1]
        s_embed = h.op("embed", ["embed", "--checkpoint", ckpt, "--dataset", data, "--out", emb],
                       check=lambda out: self._check_embed(run / "embeddings.csv", emb))
        s_sample = h.op("sample", ["sample", "--checkpoint", ckpt, "--count", 100,
                                   "--out", d / "gen.csv"],
                        check=lambda out: self._check_rows(d / "gen.csv", 100))
        s_align = h.op("align", ["align", "--embeddings", run / "embeddings.csv",
                                 "--params", data, "--columns", "xi1", "xi2",
                                 "--out", d / "align"],
                       check=self._check_align)
        for marks, _ in h.train_runs[first_epoch:]:
            c.epoch_ms += [1e3 * train_scale * (b - a) for a, b in zip(marks, marks[1:])]
        pipeline = s_gen + s_embed + s_sample + s_align
        c.stages = {"train_s": s_train, "pipeline_s": pipeline}
        c.seconds = s_train + pipeline
        return c

    def _check_train(self, out: str) -> str | None:
        _, losses = self.h.train_runs[-1]
        if len(losses) != self.sizes.train_epochs:
            return f"{len(losses)} epochs reported, expected {self.sizes.train_epochs}"
        if not (math.isfinite(losses[-1]) and losses[-1] < losses[0]):
            return f"final loss {losses[-1]!r} is not finite and below the first {losses[0]!r}"
        found = re.search(r"checkpoint digest: ([0-9a-f]{64})", out)
        if not found:
            return "no checkpoint digest printed"
        if self.digest is None:
            self.digest = found.group(1)
        elif found.group(1) != self.digest:
            return f"checkpoint digest {found.group(1)} differs from {self.digest} (pinned seeds)"
        return None

    @staticmethod
    def _check_embed(in_memory: Path, reloaded: Path) -> str | None:
        if in_memory.read_bytes() != reloaded.read_bytes():
            return "embeddings from the reloaded checkpoint differ from the trained model's"
        return None

    @staticmethod
    def _check_rows(path: Path, expected: int) -> str | None:
        _, rows = checks.read_csv(path)
        return None if len(rows) == expected else f"{path.name}: {len(rows)} rows, want {expected}"

    @staticmethod
    def _check_align(out: str) -> str | None:
        values = [float(v) for v in re.findall(r"r_squared\[\w+\] = (\S+)", out)]
        if len(values) != 2 or not all(math.isfinite(v) for v in values):
            return f"align printed r_squared {values}"
        return None


class SpectralWorkload:
    """metric with --spectrum-out, then baseline mds, then README's isomap --k 40."""

    COLUMNS = ("alpha", "gamma")
    K, R = 10, 20.0
    README_ISOMAP_K = 40

    def __init__(self, h: Harness, seed: int, sizes: Sizes):
        self.h, self.seed, self.sizes = h, seed, sizes
        self.readme_isomap = None

    def setup(self, d: Path) -> None:
        d.mkdir(parents=True, exist_ok=True)
        self.dir = d
        config = write_config(d / "run.ini", self.sizes.spectral_rows, self.sizes.pretrain_epochs)
        self.h.setup_cli(["generate", "--config", config, "--seed", self.seed,
                          "--out", d / "data.csv"])
        self.h.setup_cli(["train", "--config", config, "--dataset", d / "data.csv",
                          "--out", d / "run", "--quiet"])

    def cycle(self) -> Cycle:
        d, h = self.dir, self.h
        data, emb = d / "data.csv", d / "run" / "embeddings.csv"
        report, spectrum, mds = d / "report.csv", d / "spectrum.csv", d / "mds.csv"
        s_metric = h.op(
            "metric",
            ["metric", "--embeddings", emb, "--quantities", data, "--columns", *self.COLUMNS,
             "--k", self.K, "--r", self.R, "--out", report, "--spectrum-out", spectrum],
            check=lambda out: checks.check_metric(emb, data, report, spectrum, self.COLUMNS,
                                                  self.K, self.R))
        s_mds = h.op("mds", ["baseline", "--method", "mds", "--dataset", data, "--out", mds],
                     check=lambda out: checks.check_mds(data, mds))
        with h.untraced():
            self._readme_isomap(data, d / "iso.csv")
        return Cycle(seconds=s_metric + s_mds, stages={"metric_s": s_metric, "mds_s": s_mds})

    def _readme_isomap(self, data: Path, out_csv: Path) -> None:
        """README step 6. On this data the k=40 graph splits along the class
        boundary, and the documented behaviour is exit 1 naming the component
        sizes; an embedding, should the graph ever connect, is also correct.
        Either way the step is untimed, since it measures no layer."""
        code, _, err = self.h.cli(["baseline", "--method", "isomap", "--k",
                                   self.README_ISOMAP_K, "--dataset", data, "--out", out_csv])
        n = self.sizes.spectral_rows
        problem = None
        if code == 1:
            found = re.search(r"disconnected \(component sizes \[([\d, ]+)\]\)", err)
            sizes = [int(v) for v in found.group(1).split(",")] if found else []
            if sum(sizes) != n or len(sizes) < 2:
                problem = f"exit 1 without component sizes summing to {n}: {err.strip()[-200:]}"
            self.readme_isomap = f"exit 1, kNN graph components {sizes}"
        elif code == 0:
            problem = TrainWorkload._check_rows(out_csv, n)
            self.readme_isomap = "exit 0, embedding written"
        else:
            problem = f"exit {code}: {err.strip()[-400:]}"
        self.h.record("readme-isomap", problem)


def swiss_roll(seed: int, grid: tuple) -> np.ndarray:
    """A jittered grid on a Swiss roll, evenly spaced by arc length.

    Grid neighbours sit within 1.5 cells of each other while turns of the
    roll are 2*pi apart (more than 2 cells), so each point's 10 nearest
    neighbours include its grid neighbours and the kNN graph is connected.
    """
    rng = np.random.default_rng(seed)
    n_along, n_across = grid
    jitter = rng.uniform(-0.25, 0.25, size=(2, n_across, n_along))
    u = (np.arange(n_along)[None, :] + 0.5 + jitter[0]) / n_along
    t0, t1 = 1.5 * np.pi, 4.5 * np.pi
    t = np.sqrt(t0**2 + u * (t1**2 - t0**2))  # arc length of r = t grows as t^2 / 2
    cell = (t1**2 - t0**2) / 2.0 / n_along
    h = (np.arange(n_across)[:, None] + 0.5 + jitter[1]) * cell
    return np.column_stack([(t * np.cos(t)).ravel(), h.ravel(), (t * np.sin(t)).ravel()])


class IsomapWorkload:
    """baselines.isomap(points, k=10, dim=2) on a seeded Swiss roll."""

    def __init__(self, h: Harness, seed: int, sizes: Sizes):
        self.h, self.seed, self.sizes = h, seed, sizes
        self.geodesics = None
        baselines = sys.modules["gmvlab.baselines"]
        real = getattr(baselines, "geodesic_distances", None)
        if real is not None:  # keep the geodesics isomap computes, for the check
            def kept(*args, **kwargs):
                self.geodesics = real(*args, **kwargs)
                return self.geodesics

            baselines.geodesic_distances = kept

    def setup(self, d: Path) -> None:
        self.points = swiss_roll(self.seed, self.sizes.roll_grid)
        if not checks.is_connected(checks.knn_adjacency(self.points, self.sizes.isomap_k)):
            raise RuntimeError("Swiss roll kNN graph is disconnected")

    def cycle(self) -> Cycle:
        baselines = sys.modules["gmvlab.baselines"]
        self.geodesics = None

        def call():
            try:
                return baselines.isomap(self.points, k=self.sizes.isomap_k, dim=2), None
            except Exception:  # a crash is a failed operation, not a benchmark error
                return None, traceback.format_exc().strip().splitlines()[-1]

        seconds, (emb, crash) = self.h.timed(call)
        if crash:
            self.h.record("isomap", crash)
        else:
            g = None if self.geodesics is None else self.geodesics.d
            self.h.record("isomap", checks.check_isomap(self.points, self.sizes.isomap_k,
                                                        emb.points, g))
        return Cycle(seconds=seconds, stages={"isomap_s": seconds})


WORKLOADS = {"train": TrainWorkload, "spectral": SpectralWorkload, "isomap": IsomapWorkload}
