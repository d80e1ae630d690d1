"""The direct-summation oracle as it read k-sums before they became
bracket series: the k-shift ratio expanded into MultiPolys, substituted
at a point, and summed from the (numerator, denominator) pair, whose
parameters are found again by root search.  Tests compare
numerics.direct_sum(accelerator.k_series_at(term, n0), digits) against
direct_sum(*k_ratio_at(k_shift_ratio(term), n0), digits) here.

The double-precision loop for ratio limits +1 and -1 is the package's
own, given the integer coefficient lists of the same pair.
"""

from fractions import Fraction

from hyperaccel.accelerator import ChuSeries
from hyperaccel.exact_arith import (UniPoly, _common_ints, _primitive_pair, index_roots,
                                    rational_roots)
from hyperaccel.numerics import (_MIN_PRECISION, _ORACLE_DIGITS_CAP, Enclosure,
                                 _GeometricSum, _leaf_polys, _oracle_float, _split,
                                 _stability_point, _values)

import subst_reference
from multipoly_helpers import as_unipoly

_F0 = Fraction(0)


def k_ratio_at(rho_k, n0) -> tuple[UniPoly, UniPoly]:
    """A k-shift ratio pair at n = n0, as UniPolys in k with integer,
    jointly primitive parts."""
    num, den = _primitive_pair(*(subst_reference.subst(part, {"n": n0})
                                 for part in rho_k))
    return as_unipoly(num, "k"), as_unipoly(den, "k")


def direct_sum(num: UniPoly, den: UniPoly, target_digits: int) -> Enclosure:
    """The sum over k >= 0 of t_0 = 1, t_{k+1} = t_k num(k)/den(k)."""
    if target_digits > _ORACLE_DIGITS_CAP:
        raise ValueError("oracle unavailable")
    if index_roots(den):
        raise ValueError("oracle unavailable")
    if num.is_zero:
        return Enclosure.exact(1)
    stops = index_roots(num)
    tol = Fraction(1, 2 * 10 ** target_digits)
    if stops:
        # the exact sum over k <= stop is T/Q on the product tree
        m = stops[0] + 1
        p, q = _common_ints([num, den])
        _, Q, T = _split(_values(p, 0, m), _values(q, 0, m), [1] * m, 0, m)
        return Enclosure.from_ratio(T if Q > 0 else -T, 0, abs(Q))
    if num.degree > den.degree:
        raise ValueError("oracle unavailable")
    limit = _F0 if num.degree < den.degree else num.lc / den.lc
    if abs(limit) < 1:
        return _oracle_geometric(num, den, abs(limit), tol)
    if abs(limit) > 1:
        raise ValueError("oracle unavailable")
    d = den.degree
    nums, dens = list(num.numerators), list(den.numerators)
    if limit == 1:
        alpha = (den.coeff(d - 1) - num.coeff(d - 1)) / den.lc
        if alpha <= 1:
            raise ValueError("oracle unavailable")
        return _oracle_float(nums, dens, float(tol), float(alpha))
    alpha = (den.coeff(d - 1) + num.coeff(d - 1)) / den.lc
    if alpha <= 0:
        raise ValueError("oracle unavailable")
    return _oracle_float(nums, dens, float(tol))


def _oracle_geometric(num: UniPoly, den: UniPoly, lim: Fraction,
                      tol: Fraction) -> Enclosure:
    cap = 4000
    j1 = _stability_point(num, den, cap)
    if j1 is None:
        raise ValueError("oracle unavailable")
    # the k-ratios split into linear factors over Q, so the roots of num
    # and den give the bracket series of t_0 = 1, t_{k+1} = t_k num(k)/den(k)
    upper, lower = ([-r for r in rational_roots(f)] for f in (num, den))
    assert (len(upper), len(lower)) == (num.degree, den.degree)
    s = ChuSeries(num.lc / den.lc, tuple(upper), tuple(lower), UniPoly.one(), UniPoly.one())
    g = _GeometricSum(s, _leaf_polys(s), *_common_ints([num, den]), lim, j1, cap, tol)
    found = g.confirm(g.predict(), _MIN_PRECISION)
    if found is None:
        raise ValueError("oracle unavailable")
    return found[0]
