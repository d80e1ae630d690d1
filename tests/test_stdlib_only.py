"""The package imports nothing outside the Python standard library, and
its export list names only what it defines."""

import ast
import pathlib
import sys

import hyperaccel

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hyperaccel"


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
