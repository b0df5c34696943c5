"""The package's only runtime dependency is numpy: every absolute import under
`src/gmvlab` names a standard-library module or numpy. scipy may be installed
next to it, and the benchmark harness sits beside it, but neither is declared.

No import under `src/gmvlab`, `tests/` or `scripts/` is dead: each name a
module imports is used there or listed in its `__all__`.

`gmvlab.ndmath` is the bottom layer: from the package it imports only
`gmvlab.errors` and its own modules, so its numerics know nothing of the
model, such as the names of the parameters Adam updates."""

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


def package_imports(path: Path, package: str):
    """(line, module) of each import in the file, a module of `package`, that
    resolves into gmvlab, relative imports resolved."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0]
            names = [f"{base}.{node.module}"] if node.module else \
                [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names
                    if name.partition(".")[0] == "gmvlab")


def reaches_above_ndmath(module: str) -> bool:
    return module not in ("gmvlab.errors", "gmvlab.ndmath") \
        and not module.startswith("gmvlab.ndmath.")


def unused_imports(path: Path):
    """(line, bound name) of each import in the file whose name the module
    neither reads nor lists in `__all__`; `__future__` imports bind nothing."""
    tree = ast.parse(path.read_text(), str(path))
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) \
                != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                               for t in node.targets] == ["__all__"]:
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


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


def test_ndmath_imports_nothing_from_the_package_but_errors():
    files = sorted((PACKAGE / "ndmath").glob("*.py"))
    assert len(files) >= 4
    above = [f"ndmath/{path.name}:{line}: {module}" for path in files
             for line, module in package_imports(path, "gmvlab.ndmath")
             if reaches_above_ndmath(module)]
    assert above == []


def test_an_import_above_ndmath_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("import numpy as np\nfrom ..errors import InputError\nfrom .mlp import Mlp\n"
                    "from . import adam\nfrom ..gmvae.train import _layer_views\n"
                    "from .. import config\nimport gmvlab.tables\n")
    assert [m for _, m in package_imports(path, "gmvlab.ndmath") if reaches_above_ndmath(m)] \
        == ["gmvlab.gmvae.train", "gmvlab.config", "gmvlab.tables"]


def test_package_has_no_unused_imports():
    dead = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
            for path in sorted(PACKAGE.rglob("*.py")) for line, name in unused_imports(path)]
    assert dead == []


def test_tests_and_scripts_have_no_unused_imports():
    root = PACKAGE.parent.parent
    files = sorted(root.glob("tests/*.py")) + sorted(root.glob("scripts/*.py"))
    assert len(files) > 10
    dead = [f"{path.relative_to(root)}:{line}: {name}"
            for path in files for line, name in unused_imports(path)]
    assert dead == []


def test_an_unused_import_is_caught(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
                    "from .model import GmmParams, GmVae, em_step\n__all__ = [\"em_step\"]\n"
                    "\ndef f(x) -> GmVae:\n    return np.sum(x)\n")
    assert unused_imports(path) == [(2, "os"), (4, "GmmParams")]
