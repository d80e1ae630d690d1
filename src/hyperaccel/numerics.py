"""Arbitrary-precision enclosures for series values and closed forms.

Values are enclosed as center +/- radius with dyadic BigFloat bounds
(mantissa * 2^exponent at a stated precision of at least 64 bits).
Interval endpoints pass through exact rational arithmetic and are
rounded outward on conversion, so enclosures are sound by construction.

pi comes from the Machin arctangent combination 16 atan(1/5) -
4 atan(1/239), log 2 from 2 atanh(1/3), and rational powers of small
integer bases from floor q-th roots of scaled integers by Newton
iteration; each constant has an independent cross-check formula
exercised by the tests, and none of them share code with series
evaluation.

chu_eval sums the series exactly in integers and certifies its tail
geometrically: once the term-quotient numerator, denominator, and
their derivative combination N'D - ND' each keep a single coefficient
sign from some shift J1 on, the quotient magnitude is monotone toward
|z| past J1, so max(|ratio(j)|, |z|) < 1 bounds every later quotient
and a geometric bound encloses the tail.  The term is read as
t_j = K C_j a(j)/b(j) with C_0 = 1 and C_{j+1}/C_j = p(j)/q(j), where
p, q, a, b are integer polynomials: p/q is z prod (j + u) / prod (j + l)
with no integer factor common to p and q, a and b are the integer
numerators of num and den, and K is the quotient of their denominators.
All four are evaluated by the integer Horner sum of exact_arith.  The
stop search carries C_j as an unreduced integer pair and decides the
tail rule by integer cross-multiplication, after a bit-length screen
for the necessary condition |t_j| <= tol.  The partial sum up to the
stop index is then a binary-splitting product tree of integers P, Q,
B, T (Haible and Papanikolaou, ANTS 1998), reduced once to a Fraction.
The partial sum, the tail bound, and the stop index are the exact
rationals a running Fraction sum would give.

direct_sum_eval is the low-precision brute-force oracle for the
unaccelerated sums.  Terminating sums are exact and geometrically
convergent sums carry the same certified tail bound; the slowly
convergent positive and alternating cases use documented asymptotic
tail estimates in double precision, which is why the oracle is capped
at six digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from hyperaccel.accelerator import ChuSeries, _horner
from hyperaccel.exact_arith import (Scalar, UniPoly, _common_ints, _zeval,
                                    decimal_text, rational_roots)
from hyperaccel.hypergeom_terms import HypTerm, k_shift_ratio

_F0 = Fraction(0)
_F1 = Fraction(1)

_MIN_PRECISION = 64
_DIGITS_CAP = 10000
_GUARD_DIGITS = 10
# bound on cap * (cap + digits) for a series sum: the stop search's
# unreduced term pair grows with every term, so its cost grows with
# the square of the term cap, and the product tree's with cap * digits
_SUM_WORK_CAP = 2 * 10 ** 9
_ORACLE_DIGITS_CAP = 6
_ORACLE_TERM_CAP = 300000


def _bits_for(digits: int) -> int:
    return max(_MIN_PRECISION, int(digits * 3.322) + 48)


def _pow10_ceil_exp(x: Fraction) -> int:
    """Smallest e with x <= 10^e, for x > 0."""
    # the bit lengths put x within a factor 2 of 2^bits, so this start is
    # within two of e; the loops make it exact
    bits = x.numerator.bit_length() - x.denominator.bit_length()
    e = int(bits * 0.30103) + 1
    while Fraction(10) ** (e - 1) >= x:
        e -= 1
    while Fraction(10) ** e < x:
        e += 1
    return e


def _round_half_even(x: Fraction) -> int:
    q, rem = divmod(x.numerator, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and q % 2):
        q += 1
    return q


# ---------------------------------------------------------------------------
# Dyadic floats and enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigFloat:
    """Dyadic float mantissa * 2^exponent at a stated precision in bits.

    It only rounds and stores; interval arithmetic works on the exact
    to_fraction() values.
    """

    mantissa: int
    exponent: int
    precision: int = _MIN_PRECISION

    def __post_init__(self):
        if self.precision < _MIN_PRECISION:
            raise ValueError("precision below 64 bits")

    @staticmethod
    def from_fraction(x: Scalar, precision: int = _MIN_PRECISION,
                      mode: str = "nearest") -> "BigFloat":
        """Round x to precision bits; mode is nearest, floor, or ceil."""
        x = Fraction(x)
        precision = max(_MIN_PRECISION, precision)
        if x == 0:
            return BigFloat(0, 0, precision)
        ax = abs(x)
        e = ax.numerator.bit_length() - ax.denominator.bit_length()
        two_e = Fraction(2) ** e
        while two_e > ax:
            e -= 1
            two_e /= 2
        while 2 * two_e <= ax:
            e += 1
            two_e *= 2
        shift = precision - 1 - e
        scaled = x * Fraction(2) ** shift
        q, rem = divmod(scaled.numerator, scaled.denominator)
        if mode == "floor":
            m = q
        elif mode == "ceil":
            m = q + (1 if rem else 0)
        else:
            m = q + (1 if 2 * rem > scaled.denominator
                     or (2 * rem == scaled.denominator and q % 2) else 0)
        return BigFloat(m, -shift, precision)

    def to_fraction(self) -> Fraction:
        return Fraction(self.mantissa) * Fraction(2) ** self.exponent


@dataclass(frozen=True)
class Enclosure:
    """Interval [center - radius, center + radius] with dyadic bounds."""

    center: BigFloat
    radius: BigFloat

    def __post_init__(self):
        if self.radius.mantissa < 0:
            raise ValueError("negative radius")

    @staticmethod
    def from_interval(lo: Scalar, hi: Scalar,
                      precision: int = _MIN_PRECISION) -> "Enclosure":
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            raise ValueError("empty interval")
        mid = (lo + hi) / 2
        center = BigFloat.from_fraction(mid, precision, "nearest")
        err = abs(center.to_fraction() - mid) + (hi - lo) / 2
        return Enclosure(center, BigFloat.from_fraction(err, _MIN_PRECISION, "ceil"))

    @staticmethod
    def exact(x: Scalar, precision: int = _MIN_PRECISION) -> "Enclosure":
        """Radius-zero enclosure when x is dyadic, else a one-ulp interval."""
        center = BigFloat.from_fraction(x, precision, "nearest")
        if center.to_fraction() == Fraction(x):
            return Enclosure(center, BigFloat(0, 0, _MIN_PRECISION))
        return Enclosure.from_interval(x, x, precision)

    def lo(self) -> Fraction:
        return self.center.to_fraction() - self.radius.to_fraction()

    def hi(self) -> Fraction:
        return self.center.to_fraction() + self.radius.to_fraction()

    def contains_value(self, x: Scalar) -> bool:
        return self.lo() <= Fraction(x) <= self.hi()

    def contains(self, other: "Enclosure") -> bool:
        return self.lo() <= other.lo() and other.hi() <= self.hi()

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo() <= other.hi() and other.lo() <= self.hi()

    def _precision(self, other: "Enclosure") -> int:
        return max(self.center.precision, other.center.precision)

    def __add__(self, other):
        return Enclosure.from_interval(self.lo() + other.lo(),
                                       self.hi() + other.hi(),
                                       self._precision(other))

    def __sub__(self, other):
        return Enclosure.from_interval(self.lo() - other.hi(),
                                       self.hi() - other.lo(),
                                       self._precision(other))

    def __mul__(self, other):
        prods = [self.lo() * other.lo(), self.lo() * other.hi(),
                 self.hi() * other.lo(), self.hi() * other.hi()]
        return Enclosure.from_interval(min(prods), max(prods),
                                       self._precision(other))

    def scale(self, c: Scalar) -> "Enclosure":
        ends = sorted((Fraction(c) * self.lo(), Fraction(c) * self.hi()))
        return Enclosure.from_interval(ends[0], ends[1], self.center.precision)

    def reciprocal(self) -> "Enclosure":
        lo, hi = self.lo(), self.hi()
        if lo <= 0 <= hi:
            raise ZeroDivisionError("interval straddles zero")
        return Enclosure.from_interval(1 / hi, 1 / lo, self.center.precision)

    def __pow__(self, n: int) -> "Enclosure":
        if n < 0:
            return (self ** (-n)).reciprocal()
        if n == 0:
            return Enclosure.exact(1, self.center.precision)
        lo, hi = self.lo(), self.hi()
        ends = sorted((lo ** n, hi ** n))
        if n % 2 == 0 and lo <= 0 <= hi:
            ends[0] = _F0
        return Enclosure.from_interval(ends[0], ends[1], self.center.precision)

    def decimal(self, digits: int) -> str:
        """Decimal string of the center with a power-of-ten error bound."""
        c = self.center.to_fraction()
        scale = 10 ** digits
        i = _round_half_even(c * scale)
        body = decimal_text(abs(i)).rjust(digits + 1, "0")
        sign = "-" if i < 0 else ""
        if digits:
            text = f"{sign}{body[:-digits]}.{body[-digits:]}"
        else:
            text = f"{sign}{body}"
        err = self.radius.to_fraction() + abs(c - Fraction(i, scale))
        if err == 0:
            return f"{text} ± 0"
        return f"{text} ± 1e{_pow10_ceil_exp(err)}"


# ---------------------------------------------------------------------------
# Reference constants
# ---------------------------------------------------------------------------


def _atan_inv_scaled(q: int, pbits: int) -> tuple[int, int]:
    """Floor-scaled atan(1/q) at 2^pbits and an error bound in ulps."""
    total = 0
    one = 1 << pbits
    qq = q * q
    power = q
    i = 0
    while True:
        term = one // ((2 * i + 1) * power)
        if term == 0:
            break
        total += term if i % 2 == 0 else -term
        power *= qq
        i += 1
    return total, i + 2


def _atanh_inv_scaled(q: int, pbits: int) -> tuple[int, int]:
    """Floor-scaled atanh(1/q) at 2^pbits and an error bound in ulps."""
    total = 0
    one = 1 << pbits
    qq = q * q
    power = q
    i = 0
    while True:
        term = one // ((2 * i + 1) * power)
        if term == 0:
            break
        total += term
        power *= qq
        i += 1
    return total, i + 2


def _scaled_enclosure(scaled: int, err_ulps: int, pbits: int,
                      digits: int) -> Enclosure:
    unit = Fraction(1, 1 << pbits)
    enc = Enclosure.from_interval((scaled - err_ulps) * unit,
                                  (scaled + err_ulps) * unit, pbits)
    if enc.radius.to_fraction() > Fraction(1, 10 ** digits):
        raise RuntimeError("enclosure wider than requested")
    return enc


def _check_digits(digits: int) -> None:
    if digits > _DIGITS_CAP:
        raise ValueError("digits above supported range")


def const_pi(digits: int) -> Enclosure:
    """pi with radius at most 10^-digits, by 16 atan(1/5) - 4 atan(1/239)."""
    _check_digits(digits)
    return _pi(digits)


def _pi(digits: int) -> Enclosure:
    pbits = _bits_for(digits)
    a5, e5 = _atan_inv_scaled(5, pbits)
    a239, e239 = _atan_inv_scaled(239, pbits)
    return _scaled_enclosure(16 * a5 - 4 * a239, 16 * e5 + 4 * e239, pbits, digits)


def const_pi_alt(digits: int) -> Enclosure:
    """Cross-check enclosure of pi from 8 atan(1/3) + 4 atan(1/7)."""
    _check_digits(digits)
    pbits = _bits_for(digits)
    a3, e3 = _atan_inv_scaled(3, pbits)
    a7, e7 = _atan_inv_scaled(7, pbits)
    return _scaled_enclosure(8 * a3 + 4 * a7, 8 * e3 + 4 * e7, pbits, digits)


def const_log2(digits: int) -> Enclosure:
    """log 2 with radius at most 10^-digits, by 2 atanh(1/3)."""
    _check_digits(digits)
    return _log2(digits)


def _log2(digits: int) -> Enclosure:
    pbits = _bits_for(digits)
    a3, e3 = _atanh_inv_scaled(3, pbits)
    return _scaled_enclosure(2 * a3, 2 * e3, pbits, digits)


def const_log2_alt(digits: int) -> Enclosure:
    """Cross-check enclosure of log 2 from 2 atanh(1/5) + 2 atanh(1/7)."""
    _check_digits(digits)
    pbits = _bits_for(digits)
    a5, e5 = _atanh_inv_scaled(5, pbits)
    a7, e7 = _atanh_inv_scaled(7, pbits)
    return _scaled_enclosure(2 * a5 + 2 * a7, 2 * e5 + 2 * e7, pbits, digits)


def _iroot(n: int, q: int) -> int:
    """Floor q-th root of n >= 0 by integer Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or q == 1:
        return n if q == 1 else 0
    x = 1 << (n.bit_length() // q + 1)
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x ** q > n:
        x -= 1
    while (x + 1) ** q <= n:
        x += 1
    return x


def const_root(base: int, e: Scalar, digits: int) -> Enclosure:
    """base^e for a natural base and rational e, radius at most 10^-digits."""
    _check_digits(digits)
    return _root(base, e, digits)


def _root(base: int, e: Scalar, digits: int) -> Enclosure:
    if base < 0:
        raise ValueError("negative base")
    e = Fraction(e)
    if base == 0:
        if e > 0:
            return Enclosure.exact(0, _bits_for(digits))
        raise ValueError("zero base with non-positive exponent")
    if e == 0 or base == 1:
        return Enclosure.exact(1, _bits_for(digits))
    pbits = _bits_for(digits)
    p, q = e.numerator, e.denominator
    if q == 1:
        return Enclosure.exact(Fraction(base) ** p, pbits)
    m = _iroot(base ** abs(p) << (q * pbits), q)
    lo = Fraction(m, 1 << pbits)
    hi = Fraction(m + 1, 1 << pbits)
    if p < 0:
        lo, hi = 1 / hi, 1 / lo
    enc = Enclosure.from_interval(lo, hi, pbits)
    if enc.radius.to_fraction() > Fraction(1, 10 ** digits):
        raise RuntimeError("enclosure wider than requested")
    return enc


# ---------------------------------------------------------------------------
# Closed-form constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Constant coeff * pi^exp_pi * (log 2)^exp_log2 * 2^exp_2 * 3^exp_3."""

    coeff: Fraction
    exp_pi: Fraction = _F0
    exp_log2: Fraction = _F0
    exp_2: Fraction = _F0
    exp_3: Fraction = _F0

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero coefficient")

    @staticmethod
    def make(coeff: Scalar, exp_pi: Scalar = 0, exp_log2: Scalar = 0,
             exp_2: Scalar = 0, exp_3: Scalar = 0) -> "ClosedForm":
        """Canonical form: 2- and 3-exponents reduced to [0, 1) by folding
        their integer parts into the coefficient."""
        coeff = Fraction(coeff)
        e2, e3 = Fraction(exp_2), Fraction(exp_3)
        n2 = e2.numerator // e2.denominator
        n3 = e3.numerator // e3.denominator
        coeff *= Fraction(2) ** n2 * Fraction(3) ** n3
        return ClosedForm(coeff, Fraction(exp_pi), Fraction(exp_log2),
                          e2 - n2, e3 - n3)


def closedform_eval(cf: ClosedForm, digits: int) -> Enclosure:
    """Interval product of the constant enclosures at digits + 10 working
    precision; the constants take those guard digits past the digits cap
    too.  Only integer pi and log 2 exponents occur in practice; others
    raise."""
    _check_digits(digits)
    wd = digits + _GUARD_DIGITS
    pbits = _bits_for(wd)
    acc = Enclosure.exact(cf.coeff, pbits)
    for exp, factory in ((cf.exp_pi, _pi), (cf.exp_log2, _log2)):
        if exp:
            if exp.denominator != 1:
                raise ValueError("unsupported closed-form exponent")
            acc = acc * (factory(wd) ** exp.numerator)
    for base, exp in ((2, cf.exp_2), (3, cf.exp_3)):
        if exp:
            acc = acc * _root(base, exp, wd)
    enc = Enclosure.from_interval(acc.lo(), acc.hi(), _bits_for(digits))
    if enc.radius.to_fraction() > Fraction(1, 10 ** digits):
        raise RuntimeError("enclosure wider than requested")
    return enc


# ---------------------------------------------------------------------------
# Series evaluation with certified tails
# ---------------------------------------------------------------------------


def _sign_stable(p: UniPoly, shift: int) -> bool:
    """True when p(x + shift) has one coefficient sign and p(shift) != 0,
    so p keeps that sign on [shift, infinity).  The zero polynomial counts
    as stable."""
    if p.is_zero:
        return True
    cs = p.shift(shift).numerators
    if cs[0] == 0:
        return False
    pos = cs[0] > 0
    return all((c > 0) == pos for c in cs if c)


def _stability_point(num: UniPoly, den: UniPoly, cap: int) -> Optional[int]:
    """Shift past which num, den, and num'den - num den' are sign-stable,
    making |num/den| monotone there; None if not found below cap."""
    w = num.derivative() * den - num * den.derivative()
    j1 = 1
    while j1 <= cap:
        if _sign_stable(num, j1) and _sign_stable(den, j1) and _sign_stable(w, j1):
            return j1
        j1 *= 2
    return None


def _split(pv: list[int], qv: list[int], av: list[int], bv: list[int],
           lo: int, hi: int) -> tuple[int, int, int, int]:
    """Integers P, Q, B, T over [lo, hi): P/Q = prod p(i)/q(i) and
    T/(B Q) = sum_n a(n)/b(n) prod_{lo <= i < n} p(i)/q(i)."""
    if hi - lo == 1:
        return pv[lo], qv[lo], bv[lo], av[lo] * qv[lo]
    mid = (lo + hi) // 2
    p1, q1, b1, t1 = _split(pv, qv, av, bv, lo, mid)
    p2, q2, b2, t2 = _split(pv, qv, av, bv, mid, hi)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _geometric_sum(p: list[int], q: list[int], a: list[int], b: list[int],
                   k: Fraction, rn: list[int], rd: list[int], lim: Fraction,
                   j1: int, cap: int,
                   tol: Fraction) -> Optional[tuple[Fraction, Fraction, int]]:
    """Certified sum of t_j = k C_j a(j)/b(j), C_0 = 1, C_{j+1} = C_j p(j)/q(j).

    p, q, a, b, rn and rd are ascending integer coefficients; q and b
    have no root at a summation index, and rn/rd is the term quotient
    with |rn/rd| monotone from j1 >= 1 on.  The stop index J is the first
    j <= cap with j >= j1, rbar = max(|rn(j)/rd(j)|, lim) < 1 and
    |t_j| / (1 - rbar) <= tol, decided by integer cross-multiplication
    on the unreduced pair C_j = cn / cd.  Returns the exact partial sum
    over [0, J) from one product tree, that tail bound, and J; None when
    no such J exists.
    """
    kn, kd = abs(k.numerator), k.denominator
    tn, td = kn * tol.denominator, kd * tol.numerator
    slack = td.bit_length() - tn.bit_length() + 2
    ln, ld = lim.numerator, lim.denominator
    pv: list[int] = []
    qv: list[int] = []
    av: list[int] = []
    bv: list[int] = []
    cn = cd = 1
    j = 0
    while j <= cap:
        aj, bj = _zeval(a, j), _zeval(b, j)
        # |t_j| <= tol is necessary for the stop; the bit lengths bound
        # cn aj tn below and cd bj td above, so this skip never moves J
        if j >= j1 and (not cn or not aj or cn.bit_length() + aj.bit_length()
                        <= cd.bit_length() + bj.bit_length() + slack):
            x, y = abs(cn * aj), abs(cd * bj)
            nj, dj = abs(_zeval(rn, j)), abs(_zeval(rd, j))
            if nj * ld < ln * dj:
                nj, dj = ln, ld
            if nj < dj and tn * x * dj <= td * y * (dj - nj):
                bound = Fraction(kn * x * dj, kd * y * (dj - nj))
                _, qt, bt, tt = _split(pv, qv, av, bv, 0, j)
                return Fraction(k.numerator * tt, kd * bt * qt), bound, j
        pj, qj = _zeval(p, j), _zeval(q, j)
        pv.append(pj)
        qv.append(qj)
        av.append(aj)
        bv.append(bj)
        cn *= pj
        cd *= qj
        j += 1
    return None


def _budget_cap(digits: int) -> int:
    """The largest term cap with cap * (cap + digits) <= _SUM_WORK_CAP."""
    return (isqrt(digits * digits + 4 * _SUM_WORK_CAP) - digits) // 2


def chu_eval_terms(s: ChuSeries, digits: int,
                   max_terms: Optional[int] = None) -> tuple[Enclosure, int]:
    """chu_eval plus the number of terms actually summed."""
    _check_digits(digits)
    if abs(s.z) >= 1:
        raise ValueError("divergent series: |z| >= 1")
    for l in s.lower:
        if l.denominator == 1 and l <= 0:
            raise ValueError("pole of series term")
    if s.den.is_zero:
        raise ValueError("pole of series term")
    if s.den.degree >= 1:
        for rt in rational_roots(s.den):
            if rt >= 0 and rt.denominator == 1:
                raise ValueError("pole of series term")
    cap = min(10 * digits, _budget_cap(digits)) if max_terms is None else max_terms
    if cap * (cap + digits) > _SUM_WORK_CAP:
        raise ValueError(f"summation work above supported range:"
                         f" {cap} terms at {digits} digits")
    tol = Fraction(1, 2 * 10 ** digits)
    pbits = _bits_for(digits)
    if s.z == 0:
        t0 = s.term(0)
        return Enclosure.from_interval(t0, t0, pbits), 1
    num_j, den_j = s.ratio_parts()
    found = None
    if num_j.degree <= den_j.degree:
        j1 = _stability_point(num_j, den_j, cap)
        if j1 is not None:
            lim = abs(num_j.lc / den_j.lc) if num_j.degree == den_j.degree else _F0
            p, q = _common_ints([UniPoly.from_roots([-u for u in s.upper], s.z),
                                 UniPoly.from_roots([-l for l in s.lower])])
            rn, rd = _common_ints([num_j, den_j])
            found = _geometric_sum(p, q, s.num.numerators, s.den.numerators,
                                   Fraction(s.den.denominator, s.num.denominator),
                                   rn, rd, lim, j1, cap, tol)
    if found is None:
        # no tail bound within the cap, but an upper parameter -m may make
        # the series finite: every term past j = m is zero
        ms = [-int(u) for u in s.upper if u.denominator == 1 and u <= 0]
        if not ms or min(ms) + 1 > cap:
            raise ValueError("requested digits unreachable")
        total = sum(s.terms(min(ms) + 1))
        return Enclosure.from_interval(total, total, pbits), min(ms) + 1
    partial, bound, j = found
    return Enclosure.from_interval(partial - bound, partial + bound, pbits), j


def chu_eval(s: ChuSeries, digits: int,
             max_terms: Optional[int] = None) -> Enclosure:
    """Enclosure of the series value with radius at most 10^-digits.

    The stop index J is the first j at or past the stability point J1
    where the geometric bound |t_j| / (1 - max(|ratio(j)|, |z|)) is at
    most half of 10^-digits; the quotient magnitude is provably monotone
    from J1 on (see the module docstring).  J is found by an integer
    stop search over the unreduced term numerators and denominators, and
    the exact partial sum over [0, J) comes from one binary-splitting
    product tree reduced to a single Fraction.  A series that meets no
    tail rule within the cap (its term quotient has the higher degree in
    its numerator, or no stability point or stop index lies within the
    cap) is still summed when an upper parameter -m makes it finite and
    m + 1 terms fit the cap: exactly over j <= m, with m + 1 terms.

    The term cap defaults to the smaller of 10 * digits and the largest
    cap within the summation work budget.  Raises when digits exceeds
    the supported range, when |z| >= 1, when a lower parameter or den
    root puts a pole at a summation index, when an explicit cap times
    cap + digits exceeds the work budget, or when the term cap is hit.
    """
    return chu_eval_terms(s, digits, max_terms)[0]


# ---------------------------------------------------------------------------
# Direct-summation oracle
# ---------------------------------------------------------------------------


def direct_sum_eval(term: HypTerm, n0: Scalar, target_digits: int) -> Enclosure:
    """Enclosure of the unaccelerated sum at n = n0, normalized by the
    k = 0 summand, at no more than six digits.

    Terminating sums are exact; |ratio| limits below one get the
    certified geometric tail bound; ratio limits of +1 (with decay
    exponent above one) and -1 (alternating, decay exponent positive)
    are summed in double precision with an integral-estimate or
    alternating tail.  Everything else raises "oracle unavailable".
    """
    if target_digits > _ORACLE_DIGITS_CAP:
        raise ValueError("oracle unavailable")
    rho = k_shift_ratio(term).subst({"n": Fraction(n0)})
    num = rho.num.as_unipoly("k")
    den = rho.den.as_unipoly("k")
    if den.degree >= 1:
        for rt in rational_roots(den):
            if rt >= 0 and rt.denominator == 1:
                raise ValueError("oracle unavailable")
    if num.is_zero:
        return Enclosure.exact(1)
    roots = rational_roots(num) if num.degree >= 1 else []
    stops = [rt for rt in roots if rt >= 0 and rt.denominator == 1]
    tol = Fraction(1, 2 * 10 ** target_digits)
    if stops:
        kstar = int(min(stops))
        total, t = _F0, _F1
        for k in range(kstar + 1):
            total += t
            t *= num.eval(k) / den.eval(k)
        return Enclosure.exact(total)
    if num.degree > den.degree:
        raise ValueError("oracle unavailable")
    limit = _F0 if num.degree < den.degree else num.lc / den.lc
    if abs(limit) < 1:
        return _oracle_geometric(num, den, abs(limit), tol)
    if abs(limit) > 1:
        raise ValueError("oracle unavailable")
    d = den.degree
    if limit == 1:
        alpha = (den.coeff(d - 1) - num.coeff(d - 1)) / den.lc
        if alpha <= 1:
            raise ValueError("oracle unavailable")
        return _oracle_positive(num, den, float(alpha), float(tol))
    alpha = (den.coeff(d - 1) + num.coeff(d - 1)) / den.lc
    if alpha <= 0:
        raise ValueError("oracle unavailable")
    return _oracle_alternating(num, den, float(tol))


def _oracle_geometric(num: UniPoly, den: UniPoly, lim: Fraction,
                      tol: Fraction) -> Enclosure:
    cap = 4000
    j1 = _stability_point(num, den, cap)
    if j1 is None:
        raise ValueError("oracle unavailable")
    p, q = _common_ints([num, den])
    found = _geometric_sum(p, q, [1], [1], _F1, p, q, lim, j1, cap, tol)
    if found is None:
        raise ValueError("oracle unavailable")
    total, bound, _ = found
    return Enclosure.from_interval(total - bound, total + bound)


def _oracle_positive(num: UniPoly, den: UniPoly, alpha: float,
                     tol: float) -> Enclosure:
    nf = [float(c) for c in num.coeffs]
    df = [float(c) for c in den.coeffs]
    total, t = 0.0, 1.0
    k = 0
    while k < _ORACLE_TERM_CAP:
        if k >= 64:
            tail = t * (k / (alpha - 1.0) + 0.5)
            radius = abs(tail) * (alpha + 3.0) * 6.0 / k + 1e-9 * (1.0 + abs(total))
            if radius <= tol:
                c = Fraction(total + tail)
                r = Fraction(radius)
                return Enclosure.from_interval(c - r, c + r)
        total += t
        t *= _horner(nf, float(k)) / _horner(df, float(k))
        k += 1
    raise ValueError("oracle unavailable")


def _oracle_alternating(num: UniPoly, den: UniPoly, tol: float) -> Enclosure:
    nf = [float(c) for c in num.coeffs]
    df = [float(c) for c in den.coeffs]
    total, t = 0.0, 1.0
    k = 0
    while k < _ORACLE_TERM_CAP:
        if k >= 8 and abs(t) <= tol:
            c = Fraction(total + t / 2.0)
            r = Fraction(abs(t) * 0.6 + 1e-9 * (1.0 + abs(total)))
            return Enclosure.from_interval(c - r, c + r)
        total += t
        t *= _horner(nf, float(k)) / _horner(df, float(k))
        k += 1
    raise ValueError("oracle unavailable")
