"""The package imports nothing outside the Python standard library, and
its export list names only what it defines and what the package or the
benchmark uses."""

import ast
import pathlib
import re
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


def test_every_exported_name_is_used_outside_tests():
    # a name is used when some line of the package (apart from
    # __init__.py, whose import and export lists restate every name) or
    # of the benchmark mentions it, other than the line defining it;
    # production code that only tests call fails here
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    lines = [line for path in files + sorted(BENCH.glob("*.py"))
             for line in path.read_text().splitlines()]
    unused = []
    for name in hyperaccel.__all__:
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{name}\b|^{name}\s*=")
        if not any(word.search(line) and not definition.match(line)
                   for line in lines):
            unused.append(name)
    assert not unused
