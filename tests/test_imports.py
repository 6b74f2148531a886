"""Every name a library module imports is used in that module.

A static scan with `ast`, standing in for a linter's unused-import rule
(F401): a deletion that leaves an import behind fails here.  An import
whose statement carries `# noqa: F401` is a deliberate re-export and is
skipped.  `__init__.py` only re-exports, so it is not scanned.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "embedsim"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name an import binds, with its line; re-exports left out."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue  # compiler directives bind no name
        statement = lines[node.lineno - 1:node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _annotations(tree: ast.Module):
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name read in the module, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # a forward reference such as -> "LinearSystem"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    imported = _imported(tree, source.splitlines())
    used = _used(tree)
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_finds_an_unused_import():
    source = ("from .fixtures import FIXTURE_NAMES, fixture\n"
              "from .logic import entails  # noqa: F401\n"
              "import numpy as np\n"
              "def f() -> 'np.ndarray':\n"
              "    return fixture('CE1')\n")
    tree = ast.parse(source)
    imported = _imported(tree, source.splitlines())
    assert set(imported) == {"FIXTURE_NAMES", "fixture", "np"}
    assert set(imported) - _used(tree) == {"FIXTURE_NAMES"}
