"""gmvlab benchmark: one workload, one process, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,spectral,isomap} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run
(see tracing.py). Earlier lines give the README-stage timings, the checks that
failed, and the machine and provenance facts. Times are in reference seconds
(see Harness.timed in workloads.py). The program is imported from src/ next
to this directory, never from an installed copy.
"""

from __future__ import annotations

import os

# One BLAS thread: on the 2-core reference machine this gave a steadier
# epoch p95. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

END_TO_END = [  # name, unit; must match BENCHMARK.json
    ("setup_s", "s"),
    ("cycle_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "spectral", "isomap"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test only")
    return p.parse_args(argv)


def import_program():
    """Import gmvlab from SRC; refuse any other copy."""
    if not (SRC / "gmvlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no gmvlab sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import gmvlab.cli  # noqa: F401  (loads every layer the workloads call)

    if Path(sys.modules["gmvlab"].__file__).resolve().parent != SRC / "gmvlab":
        raise SystemExit(f"error: gmvlab imported from {sys.modules['gmvlab'].__file__}")


def fresh_import() -> None:
    """Start a new interpreter that imports gmvlab.cli, and wait for it."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import gmvlab.cli", str(SRC)], check=True)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_cycles(next_cycle, until: float) -> list:
    """Closed loop: start cycles until the clock passes `until` (at least one)."""
    cycles = [next_cycle()]
    while time.perf_counter() < until:
        cycles.append(next_cycle())
    return cycles


def stage_metrics(cycles, h) -> dict:
    """README-stage metrics, each on the workload that runs its stage."""
    out = {}
    for name in cycles[0].stages:
        out[name] = {"value": statistics.median(c.stages[name] for c in cycles), "unit": "s"}
    epochs = [ms for c in cycles for ms in c.epoch_ms]
    if epochs:
        out["train_epoch_ms.p50"] = {"value": statistics.median(epochs), "unit": "ms"}
        out["train_epoch_ms.p95"] = {"value": percentile(epochs, 95), "unit": "ms"}
        out["train_epoch_ms.samples"] = {"value": len(epochs), "unit": "count"}
    out["failed_share"] = {"value": h.failed / max(h.attempted, 1), "unit": "failed/attempted"}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()

    import provenance
    import workloads
    from tracing import Tracer

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        h = workloads.Harness()
        workload = workloads.WORKLOADS[args.workload](h, args.seed, sizes)
        # Set up several times, each a fresh import plus the workload's input
        # preparation, and keep the median; the last set-up is used.
        setups = [h.timed(lambda: (fresh_import(), workload.setup(workdir / f"setup{i}")))[0]
                  for i in range(SETUP_REPEATS)]
        setup_s = statistics.median(setups)

        t_start = time.perf_counter()
        if args.trace:
            # Cycles alternate untraced and traced, so a drifting machine
            # biases neither; the per-layer numbers come from the traced
            # cycles, the overhead from comparing the two kinds.
            h.tracer = Tracer()
            h.tracer.install()
            plain, traced = [], []
            while not (traced and time.perf_counter() >= t_start + args.seconds):
                h.tracer.enabled = len(traced) < len(plain)
                (traced if h.tracer.enabled else plain).append(workload.cycle())
            h.tracer.enabled = False
            overhead = (statistics.median(c.seconds for c in traced)
                        / statistics.median(c.seconds for c in plain) - 1.0)
            metrics = h.tracer.metrics(len(traced), sum(len(c.epoch_ms) for c in traced),
                                       overhead)
            timed, cycles = plain, plain + traced
        else:
            timed = cycles = run_cycles(workload.cycle, t_start + args.seconds)
            values = {
                "setup_s": setup_s,
                "cycle_s": statistics.median(c.seconds for c in cycles),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

        detail = {
            "workload": args.workload,
            "cycles": len(cycles),
            "stages": stage_metrics(timed, h),
            "setup_repeats_s": setups,
            "scale": {"median": statistics.median(h.scales), "min": min(h.scales),
                      "max": max(h.scales)},
            "provenance": provenance.facts(ROOT, SRC, args.seed),
        }
        if args.workload == "train":
            detail["checkpoint_digest"] = workload.digest
        if args.workload == "spectral":
            detail["readme_isomap_k40"] = workload.readme_isomap
        if h.tracer is not None:
            detail["absent_layers"] = h.tracer.absent
        for line in h.failures:
            print(f"FAILED {line}")
        for name, m in detail["stages"].items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": h.failed == 0, "attempted": h.attempted,
                          "failed": h.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
