"""Test-only equality and evaluation of term quotients, held as
(numerator, denominator) pairs of MultiPolys or UniPolys, and of
recurrences up to scale."""

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
