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

    python scripts/walkthrough.py --compare A B --rtol X
        As --compare, but a CSV or JSON file whose digests differ is read
        from both run directories A and B and compared number by number.
        For each file and each column (CSV) or key (JSON) whose numbers
        differ, prints the largest difference relative to the largest
        magnitude in A's column or key. Exits 0 when each is at most X.
        A difference in anything else stays fatal: a header, a shape, a
        non-numeric or non-finite value, a file present in one run only,
        any other kind of file, and a command's exit code, stdout or stderr.

Each command runs in a fresh interpreter on the `src/` tree next to this
script, with one BLAS thread and relative paths from inside DIR, and fails
on a text file opened in the locale's encoding. Two runs of the same tree on
one machine therefore give identical manifests. Do not compare digests
across machines: BLAS kernels differ by CPU.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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


class Mismatch(Exception):
    """Two files differ in more than their numbers."""


def _csv_numbers(a: Path, b: Path) -> dict:
    """{column: (A's numbers, B's numbers)} of two CSV files whose text cells are equal."""
    tables = []
    for path in (a, b):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    (header, *rows_a), (header_b, *rows_b) = tables
    if header != header_b:
        raise Mismatch("the headers differ")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"A has {len(rows_a)} rows, B has {len(rows_b)}")
    numbers = {}
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 2):
        if len(row_a) != len(header) or len(row_b) != len(header):
            raise Mismatch(f"line {line}: {len(row_a)} and {len(row_b)} cells, "
                           f"header has {len(header)}")
        for name, cell_a, cell_b in zip(header, row_a, row_b):
            _add(numbers, f"column {name!r}", cell_a, cell_b, f"line {line}, column {name!r}")
    return numbers


def _json_numbers(a, b, key: str = "", numbers=None) -> dict:
    """{key: (A's numbers, B's numbers)} of two JSON values equal but for their
    numbers; a key is the path of object keys, list positions left out."""
    numbers = {} if numbers is None else numbers
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise Mismatch(f"the keys under {key or 'the top'!r} differ")
        for name in a:
            _json_numbers(a[name], b[name], f"{key}.{name}" if key else name, numbers)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"key {key!r} has {len(a)} entries in A, {len(b)} in B")
        for item_a, item_b in zip(a, b):
            _json_numbers(item_a, item_b, key, numbers)
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        _add(numbers, f"key {key!r}", a, b, f"key {key!r}")
    elif type(a) is not type(b) or a != b:
        raise Mismatch(f"key {key!r}: {a!r} in A, {b!r} in B")
    return numbers


def _add(numbers: dict, key: str, a, b, where: str) -> None:
    """Add the pair of values a, b to `numbers[key]` when both are finite
    numbers; raise Mismatch when they are unequal and are not."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError, OverflowError):
        x = y = math.nan
    if math.isfinite(x) and math.isfinite(y):
        xs, ys = numbers.setdefault(key, ([], []))
        xs.append(x)
        ys.append(y)
    elif a != b:
        raise Mismatch(f"{where}: {a!r} in A, {b!r} in B")


def numeric_differences(a: Path, b: Path) -> dict:
    """{column or key: largest |A - B| relative to the largest |A| there} of
    two CSV or JSON files, for each whose numbers differ; Mismatch when they
    differ in anything but their numbers."""
    if a.suffix == ".csv":
        numbers = _csv_numbers(a, b)
    elif a.suffix == ".json":
        numbers = _json_numbers(*(json.loads(path.read_text(encoding="utf-8")) for path in (a, b)))
    else:
        raise Mismatch("neither a CSV nor a JSON file")
    worst = {}
    for key, (xs, ys) in numbers.items():
        xs, ys = np.array(xs), np.array(ys)
        largest = np.abs(xs - ys).max()
        if largest:
            scale = np.abs(xs).max()
            worst[key] = largest / scale if scale else math.inf
    return worst


def compare(a: dict, b: dict, rtol=None, dirs=None) -> tuple[list[str], bool]:
    """Lines that describe how manifest `b` differs from manifest `a`, and
    whether they agree: when identical, or, given `rtol` and the two run
    directories `dirs`, when changed files differ only in numbers within `rtol`."""
    lines = []
    agree = True
    fa, fb = a["files"], b["files"]
    for name in sorted(fa.keys() | fb.keys()):
        if fa.get(name) == fb.get(name):
            continue
        state = "only in A" if name not in fb else "only in B" if name not in fa else "changed"
        if rtol is None or state != "changed":
            lines.append(f"{state}: {name}")
            agree = False
            continue
        try:
            worst = numeric_differences(*(Path(d) / name for d in dirs))
        except Mismatch as e:
            lines.append(f"changed: {name}: {e}")
            agree = False
            continue
        if not worst:
            lines.append(f"changed: {name}: every number is equal")
        for key, rel in worst.items():
            within = rel <= rtol
            agree &= within
            lines.append(f"changed: {name}, {key}: largest relative difference {rel:.3g}, "
                         f"{'within' if within else 'beyond'} rtol {rtol:g}")
    n_file_lines = len(lines)  # each line past these is a command difference, always fatal
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
    return lines, agree and len(lines) == n_file_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="run the walkthrough in this new or empty directory")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                      help="diff two manifests (files or directories holding manifest.json)")
    parser.add_argument("--rtol", type=float,
                        help="with --compare of two run directories: let CSV and JSON numbers "
                             "differ by this much, relative to their column's largest in A")
    args = parser.parse_args(argv)
    if args.out is not None:
        if args.rtol is not None:
            parser.error("--rtol needs --compare")
        run(args.out)
        return 0
    if args.rtol is not None and not all(path.is_dir() for path in args.compare):
        parser.error("--rtol needs the two run directories, not manifest files")
    lines, agree = compare(*(_load(path) for path in args.compare), args.rtol, args.compare)
    print("\n".join(lines) if lines else "manifests are identical")
    if lines and agree:
        print(f"manifests agree within rtol {args.rtol:g}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
