"""The package's modules form one import order: each module imports, at
module level only, modules below it in LAYERS."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vortexflow"

LAYERS = {
    "fields": 0, "stereo": 0, "profile": 0,
    "ansatz": 1,
    "solver": 2,
    "diagnostics": 3,
    "reconstruct": 4, "reduction": 4,
    "cli_io": 5,
    "__init__": 6,
}


def _package_imports(node):
    """Package modules an Import/ImportFrom node names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("vortexflow.")]
    if node.level == 0 and node.module != "vortexflow" and not (
            node.module or "").startswith("vortexflow."):
        return []  # stdlib or third party
    if node.module in (None, "vortexflow"):
        return [a.name for a in node.names]  # from . import x
    return [node.module.split(".")[-1]]


def _violations(path):
    mod = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {}  # line -> the outermost def or class body holding the import
    for scope in ast.walk(tree):
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for node in ast.walk(scope):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    inside.setdefault(node.lineno, scope.name)
    out = [f"{mod}:{line} imports inside {name}" for line, name in sorted(inside.items())]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in _package_imports(node):
                if target not in LAYERS or LAYERS[target] >= LAYERS[mod]:
                    out.append(f"{mod}:{node.lineno} imports {target}, not below it")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_modules_below_it_at_module_level(path):
    assert path.stem in LAYERS, f"{path.stem} has no place in LAYERS"
    assert _violations(path) == []
