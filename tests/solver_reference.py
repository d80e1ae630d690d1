"""The recurrence solver on expanded MultiPolys (test reference).

This is the solver before it ran on integer grids: it takes the normal
form P, Q, R* = R(k-1) and the n-shift ratio Nn/Dn as expanded
MultiPolys, builds the columns Q(k) (k+1)^i - R*(k) k^i by MultiPoly
products, clears each coefficient row in k to a primitive integer row
over Z[n] by `_common_ints`, and rescales the nullspace vector it picks
from the whole vector's gcds.  It shares `_nullspace` with the package.
The tests require the grid solver to return equal recurrences: the
reference's p1, p2 and `_primitive_pair` certificate read as UniPolys
and grids.
"""

from fractions import Fraction
from math import gcd

from hyperaccel.exact_arith import (MultiPoly, UniPoly, _common_ints,
                                    _primitive_pair, _zdiv, _zgcd)
from hyperaccel.telescoper import Recurrence, _nullspace
from multipoly_helpers import content, grid_poly, lead_coeff, poly_grid

_ONE = MultiPoly.one()
_K = MultiPoly.var("k")
_K_PLUS_1 = _K + _ONE


def _degree_bound(q, rstar, f_deg):
    """Upper bound for deg x in q(k) x(k+1) - rstar(k) x(k) = f(k), from
    the coefficient lists in k of q and rstar."""
    dq, dr = len(q) - 1, len(rstar) - 1
    if dq != dr or q[-1] != rstar[-1]:
        return f_deg - max(dq, dr)
    lead = q[-1]
    diff = (rstar[-2] - q[-2]) if dq >= 1 else MultiPoly.zero()
    best = f_deg - dq + 1
    # sigma = diff/lead counts only when it is an n-free integer >= 0
    sigma = lead_coeff(diff) / lead_coeff(lead)
    if (diff == lead * sigma and sigma.denominator == 1 and sigma >= 0):
        best = max(best, int(sigma))
    return best


def _n_poly(cs):
    return grid_poly([cs])


def _int_rows(cols):
    """The coefficient rows in k of the columns, each cleared to a
    primitive integer row of polynomials in n."""
    coeffs = [[c.as_unipoly("n") for c in col.coeffs_in("k")] for col in cols]
    zero = UniPoly()
    return [_common_ints([cs[m] if m < len(cs) else zero for cs in coeffs])
            for m in range(max(len(cs) for cs in coeffs))]


def solve(p, q, rstar, n_n, d_n, r, max_deg=8):
    """The recurrence with n-offset r from the expanded normal form P, Q,
    R* = R(k-1) and the n-shift ratio Nn/Dn, or None; not re-checked."""
    rhs1 = p * n_n
    rhs2 = p * d_n
    bound = _degree_bound(q.coeffs_in("k"), rstar.coeffs_in("k"),
                          max(rhs1.degree("k"), rhs2.degree("k"))) + 1
    if bound < 0:
        return None
    deg = min(bound, max_deg)
    cols = []
    q_kp1, kpow = q, _ONE  # q(k) (k+1)^i and k^i
    for _ in range(deg + 1):
        cols.append(q_kp1 - rstar * kpow)
        q_kp1 = q_kp1 * _K_PLUS_1
        kpow = kpow * _K
    vecs = [v for v in _nullspace(_int_rows(cols + [-rhs1, -rhs2]))
            if v[-1] or v[-2]]
    if not vecs:
        return None
    vec = next((v for v in vecs if v[-1]), vecs[0])
    return _assemble(vec, deg, rstar, rhs2, r)


def _assemble(vec, deg, rstar, pd, r):
    """Rescale a nullspace vector (x_0..x_deg, p1, p2) over Z[n] to the
    canonical polynomial pair and build the recurrence: (p1, p2) over
    g = gcd(p1, p2) (g = 1 when p2 = 0) and their signed integer content
    ct, the certificate R(k-1) x(k) / (P(k) Dn(k)) scaled alike, over
    g/h for h the gcd of g and the coefficients in k of R(k-1) x(k)."""
    p1n, p2n = vec[-2], vec[-1]
    g = _zgcd(p1n, p2n) if p2n else [1]
    a, b = _zdiv(p1n, g), _zdiv(p2n, g)
    ct = gcd(*a, *b)
    if (b or a)[-1] < 0:
        ct = -ct
    rx = rstar * grid_poly(vec[:deg + 1])
    # rx = s sum_m c_m(n) k^m with the c_m in Z[n], jointly primitive
    s = content(rx) or Fraction(1)
    cs = _common_ints([c.as_unipoly("n") for c in rx.coeffs_in("k")])
    h = g
    for c in cs:
        if len(h) == 1:
            break
        h = _zgcd(h, c)
    cert = _primitive_pair(grid_poly([_zdiv(c, h) for c in cs]) * (s / ct),
                           pd * _n_poly(_zdiv(g, h)))
    return Recurrence(r=r, p1=UniPoly(tuple(c // ct for c in a)),
                      p2=UniPoly(tuple(c // ct for c in b)),
                      cert=tuple(map(poly_grid, cert)))
