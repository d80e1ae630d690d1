"""The bracket normal form on the expanded term quotient: the reference
for accelerator.chu_normalize, which reads the roots factor by factor.

The quotient is one (numerator, denominator) pair of UniPolys in j.
Their gcd is divided out, the rational roots and monic rootless
cofactors of each side are found by exact_arith.rational_roots on the
whole side, and the series is checked against the pair by one expanded
cross product.  The integer-gap folding is the same as in
chu_normalize.
"""

from hyperaccel.accelerator import ChuSeries
from hyperaccel.exact_arith import UniPoly, rational_roots
from quotient_helpers import expanded


def _rooted_split(p):
    """Rational roots with multiplicity and the monic rootless cofactor."""
    roots = rational_roots(p)
    rest = p.exact_div(UniPoly.from_roots(roots, p.lc)) if roots else p.scale(1 / p.lc)
    return roots, rest


def chu_normalize(ratio, t0):
    """(series, scale) from an expanded pair and the first term, or
    ValueError("non-Chu-normalizable")."""
    n_u, d_u = n_in, d_in = ratio
    if n_u.is_zero or d_u.is_zero or n_u.degree != d_u.degree or t0 == 0:
        raise ValueError("non-Chu-normalizable")
    g = n_u.gcd(d_u)
    if g.degree > 0:
        n_u, d_u = n_u.exact_div(g), d_u.exact_div(g)
    z = n_u.lc / d_u.lc
    n_roots, n_rest = _rooted_split(n_u)
    d_roots, d_rest = _rooted_split(d_u)
    if n_rest != d_rest.shift(1):
        raise ValueError("non-Chu-normalizable")
    uppers = sorted(-rt for rt in n_roots)
    lowers = sorted(-rt for rt in d_roots)
    num = d_rest
    den = UniPoly.one()
    for u in list(uppers):
        l = min((l for l in lowers if (u - l).denominator == 1), default=None)
        if l is None:
            continue
        uppers.remove(u)
        lowers.remove(l)
        if u > l:
            num = num * UniPoly.from_roots([-(l + i) for i in range(int(u - l))])
        else:
            shifts = [u + i for i in range(int(l - u))]
            if any(x <= 0 and x.denominator == 1 for x in shifts):
                raise ValueError("non-Chu-normalizable")
            den = den * UniPoly.from_roots([-x for x in shifts]).primitive()
    num = num.primitive()
    if num.eval(0) == 0 or den.eval(0) == 0:
        raise ValueError("non-Chu-normalizable")
    series = ChuSeries(z=z, upper=tuple(uppers), lower=tuple(lowers),
                       num=num, den=den)
    s_num, s_den = expanded(series.quotient())
    if s_num * d_in != n_in * s_den:
        raise ValueError("non-Chu-normalizable")
    scale = t0 * den.eval(0) / num.eval(0)
    return series, scale


def outcome(normalize, quotient, t0):
    """(series, scale) from normalize, or the text of its ValueError."""
    try:
        return normalize(quotient, t0)
    except ValueError as ex:
        return str(ex)
