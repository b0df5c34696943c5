"""Run the README's CLI walkthrough at a pinned small size and record its results.

    python scripts/walkthrough.py --out DIR
        Runs every subcommand and option the README shows, inside the new or
        empty directory DIR, on a 200-row dataset trained for 30 epochs. Writes
        DIR/manifest.json with each command's argv, exit code, stdout and
        stderr, the sha256 of every file in DIR, and under "environment" the
        Python, numpy and BLAS versions and the BLAS thread count the
        commands ran with.

    python scripts/walkthrough.py --compare A B
        Prints how two manifests (files, or directories holding
        manifest.json) differ in files and commands. Exits 0 when they are
        identical, 1 when not. The environment is not compared.

Each command runs in a fresh interpreter on the `src/` tree next to this
script, with one BLAS thread and relative paths from inside DIR, and fails
on a text file opened in the locale's encoding. Two runs of the same tree on
one machine therefore give identical manifests. Do not compare digests
across machines: BLAS kernels differ by CPU.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# -X warn_default_encoding (Python >= 3.10) warns at an open() that names no encoding
PYTHON = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]

# prints the provenance facts of perfbench/provenance.py that describe the numerics
ENVIRONMENT_QUERY = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from perfbench.provenance import facts
found = facts(sys.argv[1], sys.argv[2], seed=None)
print(json.dumps({key: found[key] for key in ("python", "numpy", "blas", "blas_threads")}))
"""

CONFIG = """\
[dataset]
n_samples = 200

[training]
epochs = 30
"""

# the README walkthrough in order, with the options its prose names:
# --config and --seed for generate and train, --seed for sample, --config for metric
COMMANDS = [
    ["generate", "--config", "walk.ini", "--seed", "3", "--out", "data.csv"],
    ["train", "--config", "walk.ini", "--seed", "5", "--dataset", "data.csv", "--out", "run/"],
    ["embed", "--checkpoint", "run/checkpoint.json", "--dataset", "data.csv", "--out", "emb.csv"],
    ["sample", "--checkpoint", "run/checkpoint.json", "--count", "100", "--out", "gen.csv"],
    ["sample", "--checkpoint", "run/checkpoint.json", "--count", "50", "--cluster", "0",
     "--seed", "7", "--out", "gen0.csv"],
    ["metric", "--embeddings", "run/embeddings.csv", "--quantities", "data.csv",
     "--columns", "alpha", "gamma", "--k", "10", "--r", "20", "--out", "report.csv"],
    ["metric", "--config", "walk.ini", "--embeddings", "run/embeddings.csv",
     "--quantities", "data.csv", "--out", "report_all.csv", "--spectrum-out", "spectrum.csv"],
    ["baseline", "--method", "mds", "--dataset", "data.csv", "--out", "mds.csv"],
    ["baseline", "--method", "isomap", "--k", "40", "--dataset", "data.csv", "--out", "iso.csv"],
    ["align", "--embeddings", "run/embeddings.csv", "--params", "data.csv",
     "--columns", "xi1", "xi2", "--out", "align/"],
]


def run(out: Path) -> dict:
    """Run the walkthrough in `out` and return its manifest (also written there)."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"walkthrough: {out} is not empty")
    (out / "walk.ini").write_text(CONFIG, encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    commands = []
    for argv in COMMANDS:
        proc = subprocess.run([*PYTHON, "-m", "gmvlab.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        commands.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr})
        print(f"exit {proc.returncode}: gmvlab {' '.join(argv)}")
    files = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.rglob("*")) if path.is_file()}
    query = subprocess.run([sys.executable, "-c", ENVIRONMENT_QUERY, str(ROOT), str(SRC)],
                           cwd=out, env=env, capture_output=True, text=True, check=True)
    manifest = {"commands": commands, "files": files, "environment": json.loads(query.stdout)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return manifest


def _load(path: Path) -> dict:
    if path.is_dir():
        path = path / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


def compare(a: dict, b: dict) -> list[str]:
    """Lines that describe how manifest `b` differs from manifest `a`; empty when identical."""
    lines = []
    fa, fb = a["files"], b["files"]
    for name in sorted(fa.keys() | fb.keys()):
        if fa.get(name) != fb.get(name):
            state = "only in A" if name not in fb else "only in B" if name not in fa else "changed"
            lines.append(f"{state}: {name}")
    if len(a["commands"]) != len(b["commands"]):
        lines.append(f"A ran {len(a['commands'])} commands, B ran {len(b['commands'])}")
    for ca, cb in zip(a["commands"], b["commands"]):
        label = "gmvlab " + " ".join(ca["argv"])
        if ca["argv"] != cb["argv"]:
            lines.append(f"command differs: {label} / gmvlab {' '.join(cb['argv'])}")
            continue
        if ca["exit"] != cb["exit"]:
            lines.append(f"exit {ca['exit']} -> {cb['exit']}: {label}")
        for stream in ("stdout", "stderr"):
            if ca[stream] != cb[stream]:
                lines.append(f"{stream} of {label}:")
                lines += ["  " + line for line in difflib.unified_diff(
                    ca[stream].splitlines(), cb[stream].splitlines(), "A", "B", lineterm="")]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="run the walkthrough in this new or empty directory")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                      help="diff two manifests (files or directories holding manifest.json)")
    args = parser.parse_args(argv)
    if args.out is not None:
        run(args.out)
        return 0
    lines = compare(*(_load(path) for path in args.compare))
    print("\n".join(lines) if lines else "manifests are identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
