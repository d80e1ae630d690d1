"""Test-only MultiPoly constructions and measures, built on its public
`from_dict` and `terms`; the content and leading coefficient, read off
the stored numerators of a MultiPoly or a UniPoly; evaluation at a
point; and the conversions between a recurrence's grids and MultiPolys."""

from fractions import Fraction
from math import gcd

from hyperaccel.exact_arith import VARS, MultiPoly
from hyperaccel.telescoper import SymbolicRecurrence


def from_unipoly(u, name: str) -> MultiPoly:
    """The UniPoly u as a MultiPoly in the variable name."""
    i = VARS.index(name)
    return MultiPoly.from_dict({
        tuple(x if v == i else 0 for v in range(len(VARS))): c
        for x, c in enumerate(u.coeffs)})


def total_degree(p: MultiPoly) -> int:
    """The largest exponent sum of p's monomials; -1 for the zero polynomial."""
    return max((sum(e) for e, _ in p.terms), default=-1)


def content(p) -> Fraction:
    """Positive rational c with p/c integer and coprime, for a MultiPoly
    or a UniPoly p; 0 for zero."""
    if isinstance(p, MultiPoly):
        nums, den = list(p._coeffs.values()), p._den
    else:
        nums, den = p.numerators, p.denominator
    return Fraction(gcd(*nums), den) if nums else Fraction(0)


def lead_coeff(p: MultiPoly) -> Fraction:
    """Coefficient of the lexicographically largest exponent vector."""
    if not p._coeffs:
        return Fraction(0)
    return Fraction(p._coeffs[max(p._coeffs)], p._den)


def grid_poly(rows) -> MultiPoly:
    """The grid sum_j rows[j](n) k^j, integer rows over the powers of k,
    as a MultiPoly in n and k."""
    n, k = VARS.index("n"), VARS.index("k")
    return MultiPoly.from_dict({
        tuple(i if v == n else j if v == k else 0 for v in range(len(VARS))): c
        for j, row in enumerate(rows) for i, c in enumerate(row)})


def poly_grid(p: MultiPoly):
    """The rows of a MultiPoly in n and k with integer coefficients; the
    inverse of `grid_poly`."""
    rows = [c.as_unipoly("n") for c in p.coeffs_in("k")]
    assert all(u.denominator == 1 for u in rows)
    return tuple(u.numerators for u in rows)


def symbolic(rec):
    """An instantiated `Recurrence` as a `SymbolicRecurrence`: p1 and p2
    in n and the certificate's grids as MultiPolys, the form
    `recurrence_residual` and the pinned texts read."""
    return SymbolicRecurrence(r=rec.r, p1=from_unipoly(rec.p1, "n"),
                              p2=from_unipoly(rec.p2, "n"),
                              cert=tuple(map(grid_poly, rec.cert)))


def evaluate(p: MultiPoly, point) -> Fraction:
    """p at a point that binds each of its variables, summed term by term."""
    total = Fraction(0)
    for e, c in p.terms:
        for v, x in zip(VARS, e):
            if x:
                c *= Fraction(point[v]) ** x
        total += c
    return total
