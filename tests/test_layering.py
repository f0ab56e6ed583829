"""The package's modules form one import order: each module imports, at
module level only, modules below it in LAYERS.  And the package holds
only what the pipeline runs: every public module-level name has a
caller outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vortexflow"

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


# Public names that only tests call, each kept for a reason: eval_profile
# gives rho and rho' at any ell (criterion 10's translation mode), and an
# exact dV/dd of the ansatz, in place of its central difference, would
# build on it.
TEST_ONLY = {"eval_profile"}


def _defined(tree):
    """(name, statement) of each public name a module defines at module
    level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("_"))


def _loads(tree):
    """(name, top-level statement) of each name or attribute the module
    loads: code, not docstrings.  The strings of the benchmark tracer's
    LAYERS and FOREIGN tables name the functions it wraps, so they count."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, stmt
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield node.attr, stmt
            elif isinstance(node, ast.ClassDef) and node.name == "Instrumentation":
                for assign in node.body:
                    if isinstance(assign, ast.Assign) and any(
                            getattr(t, "id", None) in ("LAYERS", "FOREIGN")
                            for t in assign.targets):
                        yield from ((c.value, stmt) for c in ast.walk(assign.value)
                                    if isinstance(c, ast.Constant)
                                    and isinstance(c.value, str))


def _uncalled():
    """Public names of the package that no code outside the tests loads,
    other than inside their own definitions: the package's modules and
    the benchmark's non-test files are searched."""
    files = sorted(SRC.glob("*.py")) + [p for p in sorted((ROOT / "bench").glob("*.py"))
                                         if not p.name.startswith("test_")]
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in files]
    defined = {}
    for path, tree in zip(files, trees):
        if path.parent == SRC:
            defined.update(_defined(tree))
    called = {name for tree in trees for name, stmt in _loads(tree)
              if defined.get(name) is not stmt}
    return set(defined) - called


def test_every_public_name_has_a_caller_outside_the_tests():
    assert _uncalled() == TEST_ONLY
