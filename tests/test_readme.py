"""The README's Python API block runs as written.

Tier-1 runs it at 5 epochs instead of its 2000. Set GMVLAB_FULL_ACCEPTANCE=1
to run it verbatim (about 22 s on a 2-core machine).
"""

import os
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FULL = os.environ.get("GMVLAB_FULL_ACCEPTANCE", "") == "1"


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
