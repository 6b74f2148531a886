"""Every name a library module imports is used in that module, every
private module-level name is read somewhere in the library, no
top-level name is defined in two library modules, every parameter of a
library function is read in its body, and no library module reads
another's private name.

Static scans with `ast`.  The first stands in for a linter's
unused-import rule (F401): a deletion that leaves an import behind fails
here.  An import whose statement carries `# noqa: F401` is a deliberate
re-export and is skipped.  `__init__.py` only re-exports, so it is not
scanned for imports.  The second finds a `_name` that a module defines
at its top level and no module of the package reads: a helper left
behind when its last caller was deleted.  The third finds a name that
two modules (`__init__.py` aside) each bind by a def, a class or an
assignment: a copy that can drift from the one it copies.  The fourth
finds a parameter that a function (or lambda) takes and never reads,
outside a short list of signatures that are fixed from outside.  The
fifth finds a `_name` that one module reads from another, by a
relative import or as an attribute of a module so imported: each
private name has one owner, and a name two modules share is public.
"""

import ast
from fnmatch import fnmatch
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


def _quoted(tree: ast.Module) -> set[str]:
    """Every name in the module's quoted annotations."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # a forward reference such as -> "LinearSystem"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted)
                             if isinstance(n, ast.Name))
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name in the module, quoted annotations included."""
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name)} | _quoted(tree)


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Each name bound at the module's top level by a def, a class or an
    assignment, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, ast.Assign):
            bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            bound = [node.target.id]
        else:
            continue
        for name in bound:
            names.setdefault(name, node.lineno)
    return names


def _private(name: str) -> bool:
    """A `_name` that is not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each top-level `_name` (not a dunder) with its line."""
    return {name: line for name, line in _definitions(tree).items()
            if _private(name)}


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, attribute names, names
    imported from another module, and quoted annotations."""
    reads = _quoted(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


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


def test_no_unused_private_names():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SOURCE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    unused = [f"{module}: {name} (line {line})"
              for module, tree in trees.items()
              for name, line in _private_definitions(tree).items()
              if name not in read]
    assert not unused, "private names never read: " + ", ".join(unused)


def _defined_twice(trees: dict[str, ast.Module]) -> list[str]:
    """Each top-level name with the modules that define it, where two
    or more do; dunders such as `__all__` are left out."""
    where: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for name, line in _definitions(tree).items():
            if not name.startswith("__"):
                where.setdefault(name, []).append(f"{module}:{line}")
    return [f"{name} ({', '.join(sites)})"
            for name, sites in sorted(where.items()) if len(sites) > 1]


def test_no_name_defined_in_two_modules():
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    twice = _defined_twice(trees)
    assert not twice, "defined in two modules: " + ", ".join(twice)


def test_scan_finds_a_name_defined_twice():
    trees = {"a.py": ast.parse("Query = tuple\ndef f(): pass\n"
                               "from .b import g\n__all__ = []\n"),
             "b.py": ast.parse("Query: type = tuple\ndef g(): pass\n"
                               "__all__ = []\n")}
    assert _defined_twice(trees) == ["Query (a.py:1, b.py:1)"]


def test_scan_finds_an_unused_private_name():
    source = ("from .logic import _universe\n"
              "_LIMIT = 3\n"
              "_unused: int = 4\n"
              "_written = 5\n"
              "_written = 6\n"
              "def _helper(x):\n"
              "    return x + _LIMIT\n"
              "def _orphan():\n"
              "    return _helper(1)\n"
              "class _Hidden:\n"
              "    pass\n"
              "__all__ = []\n"
              "def f(module) -> '_Hidden':\n"
              "    return module._attribute\n")
    tree = ast.parse(source)
    defined = _private_definitions(tree)
    assert set(defined) == {"_LIMIT", "_unused", "_written", "_helper",
                            "_orphan", "_Hidden"}
    assert {"_universe", "_attribute"} <= _reads(tree)
    assert set(defined) - _reads(tree) == {"_unused", "_written", "_orphan"}


def _foreign_private_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """("module._name", line) for each private name the module reads
    from another package module: imported by a relative import, or read
    as an attribute of a module that a relative import binds."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((f"{node.module}.{alias.name}", node.lineno))
    found += [(f"{node.value.id}.{node.attr}", node.lineno)
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return sorted(found, key=lambda entry: entry[1])


def test_no_private_name_read_from_another_module():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SOURCE.glob("*.py"))}
    found = [f"{module}:{line} {name}" for module, tree in trees.items()
             for name, line in _foreign_private_reads(tree)]
    assert not found, "private names read by another module: " + ", ".join(
        found)


def test_scan_finds_a_private_name_of_another_module():
    source = ("from .strategies import _LIMIT, VISIBLE\n"
              "from . import logic\n"
              "from .logic import (KnowledgeBase,\n"
              "                    _universe as universe)\n"
              "from re import _compile\n"
              "_OWN = 1\n"
              "def f():\n"
              "    return (logic._truth, logic.entails, logic.__name__,\n"
              "            universe, _compile, _OWN)\n")
    assert _foreign_private_reads(ast.parse(source)) == [
        ("strategies._LIMIT", 1), ("logic._universe", 3), ("logic._truth", 8)]


# (module, function name pattern, parameter): why the signature keeps a
# parameter the body does not read
UNREAD_PARAMETERS = {
    ("cli.py", "cmd_*", "config"):
        "every subcommand is dispatched as func(args, config)",
    ("strategies.py", "_norm_start", "cden"):
        "a pooling step's start takes the same arguments for every "
        "strategy",
    ("verifier.py", "to_dict", "timing"):
        "perfbench passes timing=False; statistics are due to move into "
        "the library (ROADMAP item 4)",
}


def _unread_parameters(module: str, tree: ast.Module) -> list[tuple]:
    """(module, function, parameter, line) for each parameter of a def
    or lambda that its body never loads; `self` and `cls` left out."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None and a.arg not in ("self", "cls")]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {n.id for statement in body for n in ast.walk(statement)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [(module, name, param, node.lineno) for param in params
                   if param not in loaded]
    return unread


def _allowance(module: str, function: str, param: str) -> tuple | None:
    """The `UNREAD_PARAMETERS` key that allows this parameter, if any."""
    return next((key for key in UNREAD_PARAMETERS
                 if (module, param) == (key[0], key[2])
                 and fnmatch(function, key[1])), None)


def test_no_unread_parameters():
    unread = [entry for p in MODULES
              for entry in _unread_parameters(p.name,
                                              ast.parse(p.read_text()))]
    found = [f"{m}:{line} {f}({p})" for m, f, p, line in unread
             if _allowance(m, f, p) is None]
    assert not found, "parameters never read: " + ", ".join(found)
    # an entry that no longer matches anything is dropped from the list
    stale = set(UNREAD_PARAMETERS) - {_allowance(m, f, p)
                                      for m, f, p, _ in unread}
    assert not stale, f"allowed but read: {sorted(stale)}"


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(d):\n"
              "        return a + d\n"
              "    return g(c), kw\n"
              "class K:\n"
              "    def m(self, e):\n"
              "        return (lambda x, y: x)(e, 0)\n"
              "def cmd_x(args, config):\n"
              "    return args\n")
    unread = _unread_parameters("cli.py", ast.parse(source))
    assert {(f, p) for _, f, p, _ in unread} == {
        ("f", "b"), ("f", "args"), ("<lambda>", "y"), ("cmd_x", "config")}
    assert _allowance("cli.py", "cmd_x", "config") == (
        "cli.py", "cmd_*", "config")
    assert _allowance("cli.py", "f", "b") is None
