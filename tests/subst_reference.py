"""MultiPoly substitution without a layout (test reference).

This is `MultiPoly.subst` as it was before it read its terms through a
`_SubstLayout`: each call scans the keys once per substituted variable
for its degree, then makes one pass that extracts each variable's
exponent from every key, multiplies in p^e q^(m-e) and clears the
field; `specialize` applies it to a recurrence.  The tests require the
layout path to give equal polynomials.  A name outside VARS raises
KeyError here.
"""

from hyperaccel.exact_arith import (_FIELD_MASK, _SHIFTS, _VAR_INDEX, _frac,
                                    _normalized)
from hyperaccel.telescoper import Recurrence


def subst(poly, point):
    """poly with the rational values of point substituted."""
    den = poly._den
    powers = []
    for name, v in point.items():
        s = _SHIFTS[_VAR_INDEX[name]]
        v = _frac(v)
        m = poly.degree(name)
        if m > 0:
            p, q = v.numerator, v.denominator
            powers.append((s, [p ** e * q ** (m - e) for e in range(m + 1)]))
            den *= q ** m
    if not powers:
        return poly
    out = {}
    get = out.get
    for k, c in poly._coeffs.items():
        for s, pw in powers:
            e = (k >> s) & _FIELD_MASK
            c *= pw[e]
            k -= e << s
        out[k] = get(k, 0) + c
    return _normalized(out, den)


def specialize(rec, point):
    """`telescoper.specialize` on this substitution."""
    cn, cd = (subst(part, point) for part in rec.cert)
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    return Recurrence(r=rec.r, p1=subst(rec.p1, point), p2=subst(rec.p2, point),
                      cert=(cn, cd))
