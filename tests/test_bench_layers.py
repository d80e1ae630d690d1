"""The layer table of bench/tracer.py names functions that exist.

The benchmark's traced run wraps each attribute path in the tracer's
LAYERS table; a rename in the package would only fail there.  This test
reads the table (executing the file without importing it as a module,
so nothing is written next to it) and resolves every path on the
imported package.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module.LAYERS


def test_tracer_layer_paths_resolve():
    layers = _layers()
    assert layers
    for name, module, paths, _, _ in layers:
        home = importlib.import_module(f"hyperaccel.{module}")
        for path in paths:
            obj = home
            for part in path.split("."):
                assert hasattr(obj, part), f"{name}: {module}.{path} is missing"
                obj = getattr(obj, part)
            assert callable(obj), f"{name}: {module}.{path} is not callable"
