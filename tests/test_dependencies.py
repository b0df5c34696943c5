"""The package's only runtime dependency is numpy: every absolute import under
`src/gmvlab` names a standard-library module or numpy. scipy may be installed
next to it, and the benchmark harness sits beside it, but neither is declared."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmvlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path: Path):
    """(line, top-level module) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield node.lineno, name.partition(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    outside = [f"{path.relative_to(PACKAGE)}:{line}: {module}"
               for path in files for line, module in absolute_imports(path)
               if module not in ALLOWED]
    assert outside == []


def test_a_third_party_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy as np\nfrom scipy import sparse\nfrom . import tables\n"
                    "import perfbench.tracing\n")
    assert [m for _, m in absolute_imports(path) if m not in ALLOWED] == ["scipy", "perfbench"]
