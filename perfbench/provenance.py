"""Machine and provenance facts printed with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the environment's setting."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def git_commit(root) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = done.stdout.split()
    # a checkout nested in some other repository must not report that one's commit
    if done.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unavailable (not a git checkout)"
    return lines[1]


def source_digest(src) -> str:
    """sha256 over the program's .py files, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def facts(root, src, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "seed": seed,
    }
