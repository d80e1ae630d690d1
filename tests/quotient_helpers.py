"""Test-only equality of term quotients by cross-multiplication, for
RatFuncs and for (numerator, denominator) pairs of UniPolys."""

from hyperaccel.exact_arith import RatFunc


def same_function(a: RatFunc, b: RatFunc) -> bool:
    """a == b as rational functions; RatFunc.new divides out no polynomial
    gcd, so equal functions can have different parts."""
    return a.num * b.den == b.num * a.den


def same_quotient(a, b) -> bool:
    """a == b for (numerator, denominator) pairs, which keep their common
    factors."""
    return a[0] * b[1] == b[0] * a[1]
