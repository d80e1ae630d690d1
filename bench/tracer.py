"""Layer timing for hyperaccel from outside the package.

Each layer is a module of ``src/hyperaccel``; a span is one call of a
function of that layer.  ``Tracer.install`` replaces the function by a
timing wrapper at every place it is looked up at call time: every module
attribute and every class attribute inside the package that holds the
original object, for example ``catalog.chu_normalize``,
``accelerator.rational_roots`` and ``accelerator.ChuSeries.term``.  No
source file changes, and ``Tracer.uninstall`` puts the originals back.

Spans are aggregated in memory per layer name as they close:

* ``calls`` and ``s`` (inclusive seconds) count only the outermost span
  of a name, so a name that re-enters itself (``k_shift_ratio`` calling
  ``k_ratio_parts``) is counted once;
* ``self_s`` is each span's duration minus the part covered by its
  direct child spans, summed over all spans of the name.

Counters that need more than the call itself are kept as extra stats.
``rational_roots.candidates`` is computed after a pass from the stored
arguments, so the divisor enumeration it needs runs outside every span.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter


def _divisor_count(m: int) -> int:
    m = abs(m)
    count, p = 1, 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        count *= e + 1
        p += 1 if p == 2 else 2
    return count * 2 if m > 1 else count


def rational_root_candidates(p) -> int:
    """Signed divisor pairs +-d(a0)/d(lc) that ``rational_roots`` builds
    for the primitive part of p after removing zero roots (computed)."""
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return 0
    q = type(p).from_coeffs(coeffs).primitive()
    return 2 * _divisor_count(int(q.coeffs[0])) * _divisor_count(int(q.lc))


def _count_terms(stats, args, result):
    stats["terms"] += result[1]


def _count_products(stats, args, result):
    a, b = args
    stats["monomial_products"] += len(a.terms) * (
        1 if isinstance(b, (int, Fraction)) else len(b.terms))


def _count_found(stats, args, result):
    stats["found"] += result is not None


def _count_cols(stats, args, result):
    rows = args[0]
    stats["cols"] += len(rows[0]) if rows else 0


def _keep_argument(stats, args, result):
    stats.setdefault("_args", []).append(args[0])


# (layer name, module, attribute paths, counter, reported stats)
LAYERS = (
    ("numerics.chu_eval_terms", "numerics", ("chu_eval_terms",),
     _count_terms, ("calls", "s", "self_s", "terms")),
    ("numerics.closedform_eval", "numerics", ("closedform_eval",),
     None, ("s",)),
    ("accelerator.chu_normalize", "accelerator", ("chu_normalize",),
     None, ("s", "self_s")),
    ("accelerator.ChuSeries.term", "accelerator", ("ChuSeries.term",),
     None, ("calls", "s")),
    ("accelerator.AccelStream.take", "accelerator", ("AccelStream.take",),
     None, ("s",)),
    ("accelerator.stream_ratio", "accelerator", ("stream_ratio",),
     None, ("s",)),
    ("accelerator.accelerated_stream", "accelerator",
     ("accelerated_stream",), None, ("s",)),
    ("accelerator.stream_proportional", "accelerator",
     ("stream_proportional",), None, ("s",)),
    ("exact_arith.rational_roots", "exact_arith", ("rational_roots",),
     _keep_argument, ("calls", "s", "candidates")),
    ("exact_arith.MultiPoly.mul", "exact_arith", ("MultiPoly.__mul__",),
     _count_products, ("calls", "s", "monomial_products")),
    ("exact_arith.UniPoly.mul", "exact_arith", ("UniPoly.__mul__",),
     None, ("calls", "s")),
    ("telescoper.zeilberger_two_term", "telescoper",
     ("zeilberger_two_term",), _count_found, ("calls", "s", "found")),
    ("telescoper._nullspace", "telescoper", ("_nullspace",),
     _count_cols, ("s", "cols")),
    ("telescoper.specialize", "telescoper", ("specialize",), None, ("s",)),
    ("telescoper.recurrence_residual", "telescoper",
     ("recurrence_residual",), None, ("calls", "s")),
    ("hypergeom_terms.shift_ratio", "hypergeom_terms",
     ("k_shift_ratio", "n_shift_ratio", "k_ratio_parts", "n_ratio_parts"),
     None, ("calls", "s")),
    ("catalog.verify_entry", "catalog", ("verify_entry",), None, ("s",)),
    ("catalog.derive_entry", "catalog", ("derive_entry",), None, ("s",)),
    ("catalog.derivation_recurrence", "catalog", ("derivation_recurrence",),
     None, ("s",)),
)


def _lookup(obj, path: str):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Wraps the layer functions of an imported hyperaccel package."""

    def __init__(self):
        self.stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        self.sites: dict[str, list[str]] = defaultdict(list)
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        stats = self.stats[name]
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            outer = not active[name]
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                stats["self_s"] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if outer:
                    stats["calls"] += 1
                    stats["s"] += dur
            if counter is not None:
                counter(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        package = [m for key, m in sorted(sys.modules.items())
                   if key == "hyperaccel" or key.startswith("hyperaccel.")]
        for name, module, paths, counter, _ in LAYERS:
            home = sys.modules[f"hyperaccel.{module}"]
            for path in paths:
                original = _lookup(home, path)
                wrapper = self._wrap(name, original, counter)
                for mod in package:
                    holders = [(mod, mod.__name__)] + [
                        (cls, f"{mod.__name__}.{cls.__name__}")
                        for cls in vars(mod).values()
                        if isinstance(cls, type)
                        and cls.__module__ == mod.__name__]
                    for holder, label in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._undo.append((holder, attr, original))
                                setattr(holder, attr, wrapper)
                                self.sites[name].append(f"{label}.{attr}")

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict[str, float]:
        """Reported stats under their metric names, plus computed counts."""
        out = {}
        for name, _, _, _, wanted in LAYERS:
            stats = self.stats[name]
            if "_args" in stats:
                stats["candidates"] = sum(
                    rational_root_candidates(p) for p in stats.pop("_args"))
            for stat in wanted:
                out[f"{name}.{stat}"] = stats.get(stat, 0)
        return out
