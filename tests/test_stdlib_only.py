"""The package imports nothing outside the Python standard library, its
export list names only what it defines and what the package or the
benchmark uses, everything it defines is used by one of them, and its
syntax is that of the oldest Python it declares."""

import ast
import collections
import os
import pathlib
import re
import subprocess
import sys
import types

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


def test_source_parses_at_the_declared_python_floor():
    """Every module parses as Python 3.10, the floor `pyproject.toml`
    declares.  This checks syntax only: a standard-library function or
    argument added after 3.10 still passes, and only a run under 3.10
    shows it."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text())
    assert floor and int(floor.group(1)) == 10
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def _tracer_paths():
    """The attribute names bench/tracer.py wraps; it names them in strings."""
    module = types.ModuleType("bench_tracer")
    exec(compile((BENCH / "tracer.py").read_text(), "tracer.py", "exec"),
         module.__dict__)
    return {part for _, _, paths, _, _ in module.LAYERS
            for path in paths for part in path.split(".")}


def _definitions(path):
    """(name, qualified name, first line) of each function, class and
    method a file defines, the first line being that of its first
    decorator, if any."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield node.name, prefix + node.name, first
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(ast.parse(path.read_text(), filename=str(path)).body, "")


def _production_calls():
    """(file name, first line) of each package function that
    `production_calls.py` sees production work call."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).with_name("production_calls.py"))],
        env=env, capture_output=True, text=True, check=True, timeout=600).stdout
    return {(name, int(line)) for name, line in map(str.split, out.splitlines())}


# the functions only bench/tracer.py names, in the strings of its layer
# table: nothing else calls them, and the benchmark times them
_TRACER_ONLY = {"stream_proportional", "stream_ratio"}


def test_every_definition_is_used_outside_tests():
    # every function, class and method defined in the package is used by
    # code of the package or of the benchmark; a definition is no
    # reference, so production code that only tests call fails here.
    # A name defined once is used when that code names it.  A name that
    # several definitions share, such as UniPoly.eval and a MultiPoly.eval,
    # cannot be resolved from the text: each of them must be called by
    # the production work of `production_calls.py`, or be read as an
    # attribute by the benchmark, which that work does not run.
    # __init__.py restates the exported names, and dunders are called by
    # Python itself.  Of the names the tracer wraps, only _TRACER_ONLY
    # count as used for that alone; code must refer to every other one.
    files = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted(BENCH.glob("*.py"))
    used = {name for path in files + bench for name in _referenced_names(path)}
    assert not _tracer_paths() - _TRACER_ONLY - used
    used |= _TRACER_ONLY
    read_by_bench = {node.attr for path in bench
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute)} | _TRACER_ONLY
    defs = [(path.name, *d) for path in sorted(SRC.glob("*.py"))
            for d in _definitions(path)]
    shared = {name for name, count in collections.Counter(
        name for _, name, _, _ in defs).items() if count > 1}
    called = _production_calls()
    unused = sorted(
        f"{file}: {qualname}" for file, name, qualname, first in defs
        if not (name.startswith("__") and name.endswith("__"))
        and (name not in used if name not in shared
             else (file, first) not in called and name not in read_by_bench))
    assert not unused


def test_numerics_imports_only_exact_arith_at_run_time():
    # only top-level imports count: one under TYPE_CHECKING is for
    # annotations alone
    tree = ast.parse((SRC / "numerics.py").read_text())
    package = {("hyperaccel." if node.level else "") + (node.module or "")
               for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert {m for m in package if m.startswith("hyperaccel")} == {
        "hyperaccel.exact_arith"}
