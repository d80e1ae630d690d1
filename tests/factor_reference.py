"""Shift-ratio factors and their normal form on MultiPolys (test reference).

This is the summand model's factor code before the factors became integer
`Affine` rows: each Gamma argument is read as a MultiPoly, the factor lists
of a shift ratio are MultiPolys, and the Gosper-Petkovsek normal form of
the solver subtracts MultiPolys to match roots.  The tests require the row
code to give the same factors, the same normal form and the same
recurrences.
"""

from fractions import Fraction
from math import prod

from hyperaccel.exact_arith import MultiPoly, _primitive_pair
from multipoly_helpers import evaluate
import solver_reference

_ONE = MultiPoly.one()


def _var_coeff(p, name):
    """Coefficient of a variable in an affine polynomial."""
    cs = p.coeffs_in(name)
    if len(cs) < 2:
        return Fraction(0)
    c = cs[1]
    if c.variables():
        raise ValueError("Gamma argument must be affine")
    return evaluate(c, {})


def _gamma_shift_factors(arg, step):
    """Factors of Gamma(arg + step)/Gamma(arg) and their side (+1 num, -1 den)."""
    if step.denominator != 1:
        raise ValueError("non-integer Gamma argument shift")
    s = int(step)
    if s > 0:
        return [arg + MultiPoly.const(i) for i in range(s)], +1
    if s < 0:
        return [arg - MultiPoly.const(i) for i in range(1, -s + 1)], -1
    return [], +1


def _cancel_common(num, den):
    """Remove structurally identical factor pairs."""
    out_den = list(den)
    out_num = []
    for p in num:
        if p in out_den:
            out_den.remove(p)
        else:
            out_num.append(p)
    return out_num, out_den


def ratio_parts(term, index, step):
    """Sign and MultiPoly factor lists of F(..., index + step, ...)/F(...)."""
    num, den = [], []
    for g in term.gammas:
        arg = g.arg.poly()
        shift = _var_coeff(arg, index) * step
        if shift.denominator != 1:
            raise ValueError(
                "not hypergeometric in k" if index == "k"
                else f"not hypergeometric in n with shift {step}"
            )
        factors, side = _gamma_shift_factors(arg, shift)
        target = num if side * g.exponent > 0 else den
        for p in factors:
            for _ in range(abs(g.exponent)):
                target.append(p)
    num, den = _cancel_common(num, den)
    sign = Fraction(term.sign_base ** (step % 2)) if index == "k" else Fraction(1)
    return sign, num, den


def parts_to_pair(parts):
    sign, num, den = parts
    return _primitive_pair(prod(num, start=MultiPoly.const(sign)),
                           prod(den, start=_ONE))


def _root_form(f):
    """(m, u/m) for an affine factor f = m k + u(n) with m != 0; None
    when f is free of k."""
    cs = f.coeffs_in("k")
    if len(cs) != 2:
        return None
    m = evaluate(cs[1], {})
    return m, cs[0] * (1 / m)


def normal_form(sk, num, den):
    """(P factors, c, Q factors, R factors) of sk prod(num)/prod(den),
    matching roots by MultiPoly differences."""
    nroots = [_root_form(f) for f in num]
    droots = [_root_form(f) for f in den]
    pairs = []
    for i, a in enumerate(nroots):
        for l, b in enumerate(droots):
            if a is None or b is None:
                continue
            d = a[1] - b[1]
            if not d.variables():
                j = evaluate(d, {})
                if j.denominator == 1 and j >= 0:
                    pairs.append((int(j), i, l))
    pairs.sort()
    used_num, used_den = set(), set()
    p_factors = []
    c = sk
    for j, i, l in pairs:
        if i in used_num or l in used_den:
            continue
        used_num.add(i)
        used_den.add(l)
        c *= nroots[i][0] / droots[l][0]
        p_factors.extend(num[i].shift_var("k", -t) for t in range(1, j + 1))
    return (p_factors, c,
            [f for i, f in enumerate(num) if i not in used_num],
            [f for l, f in enumerate(den) if l not in used_den])


def solver_normal_form(term, r):
    """The reference normal form of the solver's modified ratio
    Dn(k) Nk / (Dn(k+1) Dk), for n-offset r."""
    sk, nk, dk = ratio_parts(term, "k", 1)
    _, nn, dn = ratio_parts(term, "n", r)
    return normal_form(sk, nk + dn, dk + [f.shift_var("k", 1) for f in dn])


def solver_inputs(term, r):
    """P, Q, R* = R(k-1), Nn and Dn as the solver expanded them from the
    reference factors."""
    p_f, c, q_f, r_f = solver_normal_form(term, r)
    _, nn, dn = ratio_parts(term, "n", r)
    return (prod(p_f, start=_ONE), prod(q_f, start=_ONE) * c,
            prod(r_f, start=_ONE).shift_var("k", -1),
            prod(nn, start=_ONE), prod(dn, start=_ONE))


def reference_recurrence(term, r, max_deg=8):
    """The recurrence, or None, that the MultiPoly reference solver
    derives from the reference inputs."""
    return solver_reference.solve(*solver_inputs(term, r), r, max_deg)
