"""The layer table of bench/tracer.py names functions that exist, and its
candidate counter runs on the UniPoly API it uses.

The benchmark's traced run wraps each attribute path in the tracer's
LAYERS table and counts rational-root candidates with `coeffs`,
`from_coeffs`, `primitive()` and `lc`; a rename or a changed return type
in the package would only fail there.  These tests execute the file
without importing it as a module, so nothing is written next to it.
"""

import importlib
import types
from fractions import Fraction
from pathlib import Path

from hyperaccel.exact_arith import UniPoly

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_layer_paths_resolve():
    layers = _tracer().LAYERS
    assert layers
    for name, module, paths, _, _ in layers:
        home = importlib.import_module(f"hyperaccel.{module}")
        for path in paths:
            obj = home
            for part in path.split("."):
                assert hasattr(obj, part), f"{name}: {module}.{path} is missing"
                obj = getattr(obj, part)
            assert callable(obj), f"{name}: {module}.{path} is not callable"


def test_tracer_candidate_count_on_fixed_polynomials():
    # counts recorded with the Fraction-coefficient UniPoly: two zero roots
    # removed from 6x^4 + 34x^3 - 12x^2 (primitive part 3x^2 + 17x - 6);
    # rational coefficients 7/2 x^2 - 5/6 x + 3/4 (primitive part 42x^2 -
    # 10x + 9); a constant, which has no candidates
    count = _tracer().rational_root_candidates
    assert count(UniPoly.from_coeffs([0, 0, -12, 34, 6])) == 16
    assert count(UniPoly.from_coeffs(
        [Fraction(3, 4), Fraction(-5, 6), Fraction(7, 2)])) == 48
    assert count(UniPoly.from_coeffs([Fraction(-7, 3)])) == 0
