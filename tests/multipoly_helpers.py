"""Test-only MultiPoly constructions and measures, built on its public
`from_dict` and `terms`, and the content and leading coefficient, read
off the stored numerators of a MultiPoly or a UniPoly."""

from fractions import Fraction
from math import gcd

from hyperaccel.exact_arith import VARS, MultiPoly


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
