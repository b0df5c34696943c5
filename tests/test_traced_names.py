"""Every function the benchmark's tracer wraps exists in the program.

`perfbench/tracing.py` wraps each `(module, attribute)` of its `WRAPPED` list
and reports a name it cannot find as an absent layer, whose metrics then read
0, instead of failing. So a rename under `src/` fails here rather than
silently zeroing a layer metric. The list is read from the file's source; the
harness is not imported."""

import ast
import importlib
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# already gone from the program: `KnnGraph` became a plain adjacency matrix
KNOWN_ABSENT = {("gmvlab.spectral", "KnnGraph.component_sizes")}


def wrapped_names(path: Path) -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the `WRAPPED` list assigned in `path`."""
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["WRAPPED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{path} assigns no WRAPPED list")


def absent(names) -> set[tuple[str, str]]:
    """The pairs whose attribute does not resolve to a callable, looked up the way
    the tracer does: on the loaded module, then through each dotted part."""
    missing = set()
    for module, attr in names:
        owner = sys.modules.get(module) or importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.add((module, attr))
    return missing


def test_every_traced_name_resolves_in_the_program():
    names = wrapped_names(TRACING)
    assert len(names) > 20
    assert absent(names) <= KNOWN_ABSENT


def test_a_renamed_function_is_caught(monkeypatch):
    import gmvlab.baselines

    monkeypatch.delattr(gmvlab.baselines, "stress")
    assert absent([("gmvlab.baselines", "stress"), ("gmvlab.baselines", "isomap"),
                   ("gmvlab.cli", "Missing.method")]) == {("gmvlab.baselines", "stress"),
                                                          ("gmvlab.cli", "Missing.method")}
