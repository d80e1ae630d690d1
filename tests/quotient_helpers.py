"""Test-only equality and evaluation of term quotients, held as
(numerator, denominator) pairs of MultiPolys or UniPolys or factored as
(c, num, den) with factors (p, a, b), each p(a + b j), and of
recurrences up to scale."""

from fractions import Fraction
from math import prod

from hyperaccel.exact_arith import UniPoly
from multipoly_helpers import evaluate


def same_quotient(a, b) -> bool:
    """a == b for (numerator, denominator) pairs, which keep their common
    factors."""
    return a[0] * b[1] == b[0] * a[1]


def quotient_eval(q, point):
    """num(point) / den(point) for a pair of MultiPolys; ZeroDivisionError
    at a pole."""
    return evaluate(q[0], point) / evaluate(q[1], point)


def same_ratio(a, b) -> bool:
    """Whether two recurrences agree up to overall scaling of (p1, p2)."""
    return a.r == b.r and a.p1 * b.p2 == b.p1 * a.p2


def expanded(q):
    """The factored quotient (c, num, den) as a (numerator, denominator)
    pair of UniPolys in j, no common factor divided out."""
    c, num, den = q
    n, d = (prod((p.compose(a, b) for p, a, b in side), start=UniPoly.one())
            for side in (num, den))
    return n.scale(c), d


def quotient_at(q, j):
    """The factored quotient (c, num, den) at j, factor by factor;
    ZeroDivisionError at a pole."""
    c, num, den = q
    n, d = (prod(p.eval(a + b * j) for p, a, b in side) for side in (num, den))
    return Fraction(c) * n / d
