"""Test-only views of term quotients: equality of rational functions by
cross-multiplication, and a bracket series' quotient as a RatFunc in j."""

from hyperaccel.accelerator import ChuSeries
from hyperaccel.exact_arith import MultiPoly, RatFunc


def same_function(a: RatFunc, b: RatFunc) -> bool:
    """a == b as rational functions; RatFunc.new divides out no polynomial
    gcd, so equal functions can have different parts."""
    return a.num * b.den == b.num * a.den


def chu_ratio(series: ChuSeries) -> RatFunc:
    """term(j+1)/term(j) of a bracket series as a rational function of j."""
    num, den = series.ratio_parts()
    return RatFunc.new(MultiPoly.from_unipoly(num, "j"),
                       MultiPoly.from_unipoly(den, "j"))
