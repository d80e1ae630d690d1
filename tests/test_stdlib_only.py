"""The package imports nothing outside the Python standard library, and
its export list names only what it defines and what the package or the
benchmark uses."""

import ast
import pathlib
import sys

import hyperaccel

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperaccel"
BENCH = ROOT / "bench"


def _imported_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            yield "hyperaccel" if node.level else node.module


def test_every_import_is_hyperaccel_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        for name in _imported_modules(path):
            top = name.split(".")[0]
            assert top == "hyperaccel" or top in sys.stdlib_module_names, (
                f"{path.name} imports {name}")


def test_every_exported_name_resolves():
    # an export left behind by an API removal fails here, not at import *
    missing = [name for name in hyperaccel.__all__
               if not hasattr(hyperaccel, name)]
    assert not missing


def _referenced_names(path):
    """Names a file reads, as bare names, attributes or imports; words in
    strings, docstrings and comments do not count."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


def test_every_exported_name_is_used_outside_tests():
    # a name is used when code of the package (apart from __init__.py,
    # whose import and export lists restate every name) or of the
    # benchmark refers to it; a definition is no reference, so
    # production code that only tests call fails here
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    used = {name for path in files + sorted(BENCH.glob("*.py"))
            for name in _referenced_names(path)}
    assert not [name for name in hyperaccel.__all__ if name not in used]


def test_numerics_imports_only_exact_arith_at_run_time():
    # only top-level imports count: one under TYPE_CHECKING is for
    # annotations alone
    tree = ast.parse((SRC / "numerics.py").read_text())
    package = {("hyperaccel." if node.level else "") + (node.module or "")
               for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert {m for m in package if m.startswith("hyperaccel")} == {
        "hyperaccel.exact_arith"}
