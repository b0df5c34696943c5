"""The README's code blocks run as written.

Tier-1 runs the Python API block at 5 epochs instead of its 2000 and checks
that the CLI walkthrough block parses into its commands. Set
GMVLAB_FULL_ACCEPTANCE=1 to run the Python block verbatim (about 22 s on a
2-core machine) and the CLI walkthrough verbatim at its default sizes
(about 4 min, most of it the 20000-epoch `train`).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
FULL = os.environ.get("GMVLAB_FULL_ACCEPTANCE", "") == "1"
# README step 6: the k=40 graph on the default dataset splits along the class boundary
SPLIT_ISOMAP = "gmvlab baseline --method isomap --k 40"


# the test split's embedding separates by class, at 5 epochs and at 2000
@pytest.mark.filterwarnings("ignore:kNN graph is disconnected")
def test_readme_python_block_runs(capsys):
    [code] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert "epochs=2000" in code
    if not FULL:
        code = code.replace("epochs=2000", "epochs=5")
    exec(compile(code, str(README), "exec"), {})
    acc, eta = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= acc <= 1.0
    assert 0.0 <= eta <= 1.0


def cli_walkthrough() -> list[str]:
    """The README's CLI walkthrough block, one shell command per entry:
    continuation lines joined, comments and blank lines dropped."""
    [block] = re.findall(r"## CLI walkthrough\n\n```bash\n(.*?)```", README.read_text(), re.S)
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.startswith("#")]


def test_readme_cli_walkthrough_parses():
    commands = cli_walkthrough()
    assert commands[0] == "gmvlab generate --out data.csv"
    assert all(command.startswith("gmvlab ") for command in commands)
    assert sum(command.startswith(SPLIT_ISOMAP) for command in commands) == 1
    assert len(commands) == 9


@pytest.mark.skipif(not FULL, reason="trains for 20000 epochs; set GMVLAB_FULL_ACCEPTANCE=1")
def test_readme_cli_walkthrough_runs(tmp_path):
    # `gmvlab` on PATH runs this checkout's src/ in the current interpreter
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "gmvlab").write_text(f'#!/bin/sh\nexec "{sys.executable}" -m gmvlab.cli "$@"\n')
    (bin_dir / "gmvlab").chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    work = tmp_path / "walk"
    work.mkdir()
    for command in cli_walkthrough():
        proc = subprocess.run(command, shell=True, cwd=work, env=env, capture_output=True,
                              text=True)
        if command.startswith(SPLIT_ISOMAP):
            # exits 1 naming the components, until the README points at a joined graph
            assert proc.returncode == 1, (command, proc.stdout, proc.stderr)
            [sizes] = re.findall(r"component sizes \[([\d, ]+)\]", proc.stderr)
            assert sum(int(s) for s in sizes.split(",")) == 1280, proc.stderr
        else:
            assert proc.returncode == 0, (command, proc.stdout, proc.stderr)
        assert "Traceback" not in proc.stderr, (command, proc.stderr)
