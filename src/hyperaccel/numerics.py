"""Arbitrary-precision enclosures for series values and closed forms.

Values are enclosed as center +/- radius with dyadic BigFloat bounds
(mantissa * 2^exponent at a stated precision of at least 64 bits).
Arithmetic works on integer endpoints over one exponent and rounds
each result outward, so enclosures are sound by construction.

pi comes from the Machin arctangent combination 16 atan(1/5) -
4 atan(1/239), log 2 from 2 atanh(1/3), both memoized by precision, and
rational powers of small integer bases from floor q-th roots of scaled
integers by Newton iteration; the tests cross-check each constant, and
none of them share code with series evaluation.

chu_eval_terms sums the series exactly in integers and certifies its
tail geometrically: once the term-quotient numerator, denominator, and
their derivative combination N'D - ND' each keep a single coefficient
sign from some shift J1 on, the quotient magnitude is monotone toward
|z| past J1, so max(|ratio(j)|, |z|) < 1 bounds every later quotient
and a geometric bound encloses the tail.  The term is read as
t_j = K C_j a(j)/b(j) with C_0 = 1 and C_{j+1}/C_j = p(j)/q(j), where
p, q, a, b are integer polynomials: p/q is z prod (j + u) / prod (j + l)
with no integer factor common to p and q, a and b are the integer
numerators of num and den, and K is the quotient of their denominators.
The tail rule is monotone in j (see _GeometricSum), so the stop index
is predicted in floats and decided exactly on a binary-splitting
product tree of integers P, Q, B, T (Haible and Papanikolaou, ANTS
1998).  Its upper merges divide out the content the left P and the
right Q share (see _merge), which keeps P/Q and T/(B Q) exact; the
partial sum and tail bound are then rounded to the dyadic endpoints
from those integers, with no other gcd taken.  They and the stop index
are the exact rationals a running Fraction sum would give.  The term
cap is decided here alone: default_term_budget gives it from |z| and
the digits for every caller that passes none, and one work budget
bounds it, default or explicit.

direct_sum is the one direct-summation oracle: the low-precision
brute-force sum of an unaccelerated k-series from its term quotient,
normalized by its k = 0 term, which accelerator.vanishing_check applies
to the summand at each shifted point of the unrolling.  Terminating
sums are exact and geometrically convergent sums carry the same
certified tail bound; the slowly convergent positive and alternating
cases use documented asymptotic tail estimates in double precision,
which is why the oracle is capped at six digits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import ceil, gcd, log, log10
from operator import lt, sub
from typing import TYPE_CHECKING, Optional

from hyperaccel.exact_arith import (Scalar, UniPoly, _common_ints, _zeval,
                                    decimal_text, index_roots)

if TYPE_CHECKING:
    from hyperaccel.accelerator import ChuSeries

_F0 = Fraction(0)
_F1 = Fraction(1)

_MIN_PRECISION = 64
_DIGITS_CAP = 10000
_GUARD_DIGITS = 10
# bound on cap * (cap + digits) for a series sum, set for a stop search
# that cost about cap * cap; the stop is now predicted and confirmed on
# the content-reduced product tree, which costs far less, so the budget
# is a margin kept until it is restated from measurements
_SUM_WORK_CAP = 2 * 10 ** 9
# product-tree merges spanning at least this many leaves cancel the
# content the left P and the right Q share; below it a gcd saves about
# what it costs
_CANCEL_LEAVES = 32
_ORACLE_DIGITS_CAP = 6
_ORACLE_TERM_CAP = 300000


def _bits_for(digits: int) -> int:
    return max(_MIN_PRECISION, int(digits * 3.322) + 48)


def _pow10_ceil_exp(n: int, d: int) -> int:
    """Smallest e with n/d <= 10^e, for n, d > 0."""
    # the bit lengths put n/d within a factor 2 of 2^bits, so this start
    # is within two of e; the loops make it exact
    e = int((n.bit_length() - d.bit_length()) * 0.30103) + 1
    while n * 10 ** max(1 - e, 0) <= d * 10 ** max(e - 1, 0):
        e -= 1
    while n * 10 ** max(-e, 0) > d * 10 ** max(e, 0):
        e += 1
    return e


# ---------------------------------------------------------------------------
# Dyadic floats and enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BigFloat:
    """Dyadic float mantissa * 2^exponent at a stated precision in bits.

    It only rounds and stores; Enclosure arithmetic works on the integer
    mantissas and exponents.
    """

    mantissa: int
    exponent: int
    precision: int = _MIN_PRECISION

    def __post_init__(self):
        if self.precision < _MIN_PRECISION:
            raise ValueError("precision below 64 bits")

    @staticmethod
    def from_ratio(n: int, d: int, precision: int = _MIN_PRECISION,
                   mode: str = "nearest") -> "BigFloat":
        """Round n/d to precision bits for d > 0; mode is nearest, floor,
        or ceil, and n and d need have no common factor divided out."""
        precision = max(_MIN_PRECISION, precision)
        if n == 0:
            return BigFloat(0, 0, precision)
        # the bit lengths give e or e + 1 for 2^e <= |n/d| < 2^(e+1)
        e = abs(n).bit_length() - d.bit_length()
        if abs(n) << max(-e, 0) < d << max(e, 0):
            e -= 1
        shift = precision - 1 - e
        d <<= max(-shift, 0)
        q, rem = divmod(n << max(shift, 0), d)
        if mode == "ceil":
            q += 1 if rem else 0
        elif mode != "floor" and (2 * rem > d or (2 * rem == d and q % 2)):
            q += 1
        return BigFloat(q, -shift, precision)

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
        (a, b), (c, d) = Fraction(lo).as_integer_ratio(), Fraction(hi).as_integer_ratio()
        return Enclosure.from_ratio(a * d + c * b, c * b - a * d, 2 * b * d, precision)

    @staticmethod
    def from_ratio(mid: int, half: int, d: int,
                   precision: int = _MIN_PRECISION) -> "Enclosure":
        """[(mid - half)/d, (mid + half)/d] for d > 0, with no common factor
        divided out: the center rounds mid/d to nearest, and the radius
        |center - mid/d| + half/d up to 64 bits."""
        if half < 0:
            raise ValueError("empty interval")
        center = BigFloat.from_ratio(mid, d, precision)
        e = center.exponent
        err = (abs((center.mantissa * d << max(e, 0)) - (mid << max(-e, 0)))
               + (half << max(-e, 0)))
        return Enclosure(center, BigFloat.from_ratio(err, d << max(-e, 0),
                                                     _MIN_PRECISION, "ceil"))

    @staticmethod
    def exact(x: Scalar, precision: int = _MIN_PRECISION) -> "Enclosure":
        """Radius-zero enclosure when x is dyadic, else a one-ulp interval."""
        return Enclosure.from_interval(x, x, precision)

    @staticmethod
    def _from_ends(l: int, h: int, e: int, precision: int) -> "Enclosure":
        """[l 2^e, h 2^e] for l <= h, rounded as from_interval rounds it."""
        return Enclosure.from_ratio((l + h) << max(e, 0), (h - l) << max(e, 0),
                                    2 << max(-e, 0), precision)

    def _ends(self) -> tuple[int, int, int]:
        """(l, h, e) with lo() = l 2^e and hi() = h 2^e."""
        c, r = self.center, self.radius
        e = min(c.exponent, r.exponent)
        m, w = c.mantissa << (c.exponent - e), r.mantissa << (r.exponent - e)
        return m - w, m + w, e

    def _aligned(self, other: "Enclosure") -> tuple[int, int, int, int]:
        """The endpoints of self and other over one exponent."""
        (l1, h1, e1), (l2, h2, e2) = self._ends(), other._ends()
        e = min(e1, e2)
        return l1 << (e1 - e), h1 << (e1 - e), l2 << (e2 - e), h2 << (e2 - e)

    def lo(self) -> Fraction:
        return self.center.to_fraction() - self.radius.to_fraction()

    def hi(self) -> Fraction:
        return self.center.to_fraction() + self.radius.to_fraction()

    def contains_value(self, x: Scalar) -> bool:
        return self.lo() <= Fraction(x) <= self.hi()

    def contains(self, other: "Enclosure") -> bool:
        l1, h1, l2, h2 = self._aligned(other)
        return l1 <= l2 and h2 <= h1

    def overlaps(self, other: "Enclosure") -> bool:
        l1, h1, l2, h2 = self._aligned(other)
        return l1 <= h2 and l2 <= h1

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        (l1, h1, e1), (l2, h2, e2) = self._ends(), other._ends()
        prods = (l1 * l2, l1 * h2, h1 * l2, h1 * h2)
        return Enclosure._from_ends(min(prods), max(prods), e1 + e2,
                                    max(self.center.precision, other.center.precision))

    def reciprocal(self) -> "Enclosure":
        l, h, e = self._ends()
        if l <= 0 <= h:
            raise ZeroDivisionError("interval straddles zero")
        # [1/(h 2^e), 1/(l 2^e)] with l h > 0
        return Enclosure.from_ratio((l + h) << max(-e, 0), (h - l) << max(-e, 0),
                                    2 * l * h << max(e, 0), self.center.precision)

    def __pow__(self, n: int) -> "Enclosure":
        if n < 0:
            return (self ** (-n)).reciprocal()
        l, h, e = self._ends()
        lo, hi = sorted((l ** n, h ** n))
        if n and n % 2 == 0 and l <= 0 <= h:
            lo = 0
        return Enclosure._from_ends(lo, hi, e * n, self.center.precision)

    def decimal(self, digits: int) -> str:
        """Decimal string of the center with a power-of-ten error bound."""
        (m, e), (r, er) = ((x.mantissa, x.exponent) for x in (self.center, self.radius))
        # center * 10^digits = c / 2^k, rounded half to even to i
        k, scale = max(-e, -er, 0), 10 ** digits
        c = m * scale << (e + k)
        i, rem = divmod(c, 1 << k)
        if 2 * rem > 1 << k or (2 * rem == 1 << k and i % 2):
            i += 1
        body = decimal_text(abs(i)).rjust(digits + 1, "0")
        sign = "-" if i < 0 else ""
        text = f"{sign}{body[:-digits]}.{body[-digits:]}" if digits else sign + body
        # radius + |center - i / 10^digits| = err / (10^digits 2^k)
        err = (r * scale << (er + k)) + abs(c - (i << k))
        if err == 0:
            return f"{text} ± 0"
        return f"{text} ± 1e{_pow10_ceil_exp(err, scale << k)}"


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


def radii_within(encs: tuple[Enclosure, ...], digits: int) -> bool:
    """True when the radii of encs sum to at most 10^-digits."""
    e = min(x.radius.exponent for x in encs)
    total = sum(x.radius.mantissa << (x.radius.exponent - e) for x in encs)
    return (total * 10 ** max(digits, 0) << max(e, 0)
            <= 10 ** max(-digits, 0) << max(-e, 0))


def _narrow(enc: Enclosure, digits: int) -> Enclosure:
    """enc, with its radius checked against 10^-digits."""
    if not radii_within((enc,), digits):
        raise RuntimeError("enclosure wider than requested")
    return enc


def _check_digits(digits: int) -> None:
    if digits > _DIGITS_CAP:
        raise ValueError("digits above supported range")


# callers share results, as Enclosure is frozen
@lru_cache(maxsize=8)
def _pi(digits: int) -> Enclosure:
    """pi with radius at most 10^-digits, by 16 atan(1/5) - 4 atan(1/239)."""
    pbits = _bits_for(digits)
    a5, e5 = _atan_inv_scaled(5, pbits)
    a239, e239 = _atan_inv_scaled(239, pbits)
    return _narrow(Enclosure.from_ratio(16 * a5 - 4 * a239, 16 * e5 + 4 * e239,
                                        1 << pbits, pbits), digits)


@lru_cache(maxsize=8)
def _log2(digits: int) -> Enclosure:
    """log 2 with radius at most 10^-digits, by 2 atanh(1/3)."""
    pbits = _bits_for(digits)
    a3, e3 = _atanh_inv_scaled(3, pbits)
    return _narrow(Enclosure.from_ratio(2 * a3, 2 * e3, 1 << pbits, pbits), digits)


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


def _root(base: int, e: Scalar, digits: int) -> Enclosure:
    """base^e for a natural base and rational e, radius at most 10^-digits."""
    if base < 0:
        raise ValueError("negative base")
    pbits = _bits_for(digits)
    if base == 0:
        if e > 0:
            return Enclosure.exact(0, pbits)
        raise ValueError("zero base with non-positive exponent")
    if e == 0 or base == 1:
        return Enclosure.exact(1, pbits)
    p, q = e.numerator, e.denominator
    if q == 1:
        return Enclosure.exact(Fraction(base) ** p, pbits)
    # base^(|p|/q) lies in [m, m + 1] 2^-pbits, held exactly by enc as
    # (2m + 1 ± 1) 2^-(pbits + 1) and rounded once
    m = _iroot(base ** abs(p) << (q * pbits), q)
    enc = Enclosure(BigFloat(2 * m + 1, -pbits - 1, pbits), BigFloat(1, -pbits - 1))
    return _narrow(enc.reciprocal() if p < 0
                   else Enclosure._from_ends(*enc._ends(), pbits), digits)


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
    return _narrow(Enclosure._from_ends(*acc._ends(), _bits_for(digits)), digits)


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


def _values(c: list[int], lo: int, hi: int) -> list[int]:
    """c(j) for lo <= j < hi, as chained running sums of differences at lo."""
    d = max(len(c) - 1, 0)
    diffs = [_zeval(c, j) for j in range(lo, lo + d + 1)]
    for i in range(d):
        for t in range(d, i, -1):
            diffs[t] -= diffs[t - 1]
    vals = repeat(diffs[-1])
    for x in reversed(diffs[:-1]):
        vals = accumulate(vals, initial=x)
    return list(islice(vals, hi - lo))


def _merge(x: tuple[int, int, int, int], y: tuple[int, int, int, int],
           leaves: int) -> tuple[int, int, int, int]:
    """P, Q, B, T over [lo, hi) from x over [lo, mid) and y over [mid, hi),
    a span of the given number of leaves.  From _CANCEL_LEAVES leaves on,
    g = gcd(p1, q2) is divided out of p1 and q2 first: g divides the
    merged P = p1 p2, Q = q1 q2 and T = b2 q2 t1 + b1 p1 t2, so P/Q and
    T/(B Q) keep their values, and each of |P|, |Q|, |T| is the unreduced
    one divided by a positive integer (Cheng, Hanrot, Thome, Zima and
    Zimmermann, ISSAC 2007)."""
    (p1, q1, b1, t1), (p2, q2, b2, t2) = x, y
    if leaves >= _CANCEL_LEAVES:
        g = gcd(p1, q2)
        p1, q2 = p1 // g, q2 // g
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _split(pv: list[int], qv: list[int], av: list[int], bv: list[int],
           lo: int, hi: int) -> tuple[int, int, int, int]:
    """Integers P, Q, B, T over [lo, hi): P/Q = prod p(i)/q(i) and
    T/(B Q) = sum_n a(n)/b(n) prod_{lo <= i < n} p(i)/q(i), with the
    content p1 and q2 share cancelled at the upper merges (see _merge)."""
    if hi - lo == 1:
        return pv[lo], qv[lo], bv[lo], av[lo] * qv[lo]
    mid = (lo + hi) // 2
    return _merge(_split(pv, qv, av, bv, lo, mid),
                  _split(pv, qv, av, bv, mid, hi), hi - lo)


class _GeometricSum:
    """Certified sum of t_j = k C_j a(j)/b(j), C_0 = 1, C_{j+1} = C_j p(j)/q(j).

    Coefficients are ascending integers; q and b have no root at a
    summation index, and rn/rd is t_{j+1}/t_j with |rn/rd| monotone toward
    lim < 1 from j1 >= 1 on.  J is the first j in [j1, cap] with
    rbar_j = max(|rn(j)/rd(j)|, lim) < 1 and |t_j| / (1 - rbar_j) <= tol.
    That rule fails below j0, the first j >= j1 with rbar_j < 1, and is
    monotone from j0 on: past j1 rbar_j does not increase, as |rn/rd| moves
    monotonically toward lim, and |t_{j+1}| = |rn(j)/rd(j)| |t_j| <= |t_j|,
    so |t_j| / (1 - rbar_j) does not increase either.
    """

    def __init__(self, p: list[int], q: list[int], a: list[int], b: list[int],
                 k: Fraction, rn: list[int], rd: list[int], lim: Fraction,
                 j1: int, cap: int, tol: Fraction):
        self.polys, self.leaves = (p, q, a, b), ([], [], [], [])
        self.k, self.rn, self.rd, self.cap = k, rn, rd, cap
        self.ln, self.ld = lim.numerator, lim.denominator
        self.tn, self.td = abs(k.numerator) * tol.denominator, k.denominator * tol.numerator
        self.j0 = j1 + bisect_left(range(j1, cap + 1), True, key=lambda j: lt(*self._rbar(j)))

    def _rbar(self, j: int) -> tuple[int, int]:
        nj, dj = abs(_zeval(self.rn, j)), abs(_zeval(self.rd, j))
        return (self.ln, self.ld) if nj * self.ld < self.ln * dj else (nj, dj)

    def _grow(self, n: int) -> None:
        """Leaf values p(j), q(j), a(j), b(j) for at least j < n."""
        have = len(self.leaves[0])
        if n > have:
            for vals, c in zip(self.leaves, self.polys):
                vals += _values(c, have, max(n, 2 * have))

    def _stops(self, j: int, cn: int, cd: int) -> bool:
        """The rule at j, for C_j = cn/cd."""
        self._grow(j + 1)
        nj, dj = self._rbar(j)
        return nj < dj and (self.tn * abs(cn * self.leaves[2][j]) * dj
                            <= self.td * abs(cd * self.leaves[3][j]) * (dj - nj))

    def predict(self) -> int:
        """J, or cap + 1, by bisection on a float running sum of log |p/q|
        over a window sized from the rate lim and doubled while too short;
        past a zero p(j) every |t_j| is 0."""
        c = log(self.tn) - log(self.td)
        n = self.j0 + 32 + (int(1.1 * max(c, 0) / (log(self.ld) - log(self.ln)))
                            if self.ln else 0)
        while True:
            n = min(n, self.cap + 1)
            self._grow(n)
            pv, qv, av, bv = self.leaves
            z = pv.index(0) if 0 in pv[:n] else n
            logs = list(accumulate(map(sub, map(log, map(abs, pv[:z])),
                                       map(log, map(abs, qv[:z]))), initial=c))

            def small(j: int) -> bool:
                nj, dj = self._rbar(j)
                return (j > z or not av[j] or logs[j] + log(abs(av[j]) * dj)
                        - log(abs(bv[j]) * (dj - nj)) <= 0)

            j = self.j0 + bisect_left(range(self.j0, n), True, key=small)
            if j < n or n > self.cap:
                return j
            n *= 2

    def confirm(self, j: int, pbits: int) -> Optional[tuple[Enclosure, int]]:
        """The enclosure and J from a prediction j: the rule must fail at
        j - 1 (else restart at j0); the tree then grows a leaf at a time."""
        j = min(max(j - 1, self.j0), self.cap)
        self._grow(j + 1)
        P, Q, B, T = _split(*self.leaves, 0, j)
        if j > self.j0 and self._stops(j, P, Q):
            j = self.j0
            P, Q, B, T = _split(*self.leaves, 0, j)
        while not self._stops(j, P, Q):
            if j == self.cap:
                return None
            p, q, a, b = (v[j] for v in self.leaves)
            P, Q, B, T = _merge((P, Q, B, T), (p, q, b, a * q), j + 1)
            j += 1
        # the sum k T/(B Q) and the bound k |P a(j)| d/(|Q b(j)| (d - n)),
        # both over the positive denominator kd |B Q b(j)| (d - n)
        nj, dj = self._rbar(j)
        w = abs(self.leaves[3][j]) * (dj - nj) * (1 if B * Q > 0 else -1)
        kn, kd = self.k.numerator, self.k.denominator
        return Enclosure.from_ratio(kn * T * w, abs(kn * P * self.leaves[2][j] * B) * dj,
                                    kd * B * Q * w, pbits), j


def default_term_budget(z: Fraction, digits: int) -> int:
    """Term cap from the per-term digit gain log10(1/|z|), with fixed slack;
    the gain is taken from z's integer parts, as z may underflow a float.
    Where |z| is too near 1 for their float logarithms to differ, the gain
    is bounded below in integers instead, by (1 - |z|)/3 < (1 - |z|)/ln 10."""
    if abs(z) >= 1:
        raise ValueError("divergent series: |z| >= 1")
    if z == 0:
        return digits + 120
    n, d = abs(z.numerator), z.denominator
    gain = log10(d) - log10(n)
    if gain > 0:
        return ceil(digits / gain) + 120
    return -(-3 * digits * d // (d - n)) + 120


def chu_eval_terms(s: ChuSeries, digits: int,
                   max_terms: Optional[int] = None) -> tuple[Enclosure, int]:
    """Enclosure of the series value with radius at most 10^-digits, and
    the number of terms summed.

    The stop index J is the first j at or past the stability point J1
    where the geometric bound |t_j| / (1 - max(|ratio(j)|, |z|)) is at
    most half of 10^-digits; the quotient magnitude is provably monotone
    from J1 on, so the bound is monotone in j (see _GeometricSum).  J is
    predicted in floats and confirmed exactly on the binary-splitting
    product tree of the partial sum over [0, J), whose integers are
    rounded to the enclosure endpoints with no Fraction.  A series that
    meets no tail rule within the cap (its term quotient has the higher
    degree in its numerator, or no stability point or stop index lies
    within the cap) is still summed when an upper parameter -m makes it
    finite and m + 1 terms fit the cap: exactly over j <= m, with m + 1
    terms.

    The term cap defaults to default_term_budget(z, digits).  Raises,
    in this order, when |z| >= 1, when digits exceeds the supported
    range, when a lower parameter or den root puts a pole at a summation
    index, when the cap times cap + digits exceeds the work budget, or
    when the term cap is hit.
    """
    if abs(s.z) >= 1:
        raise ValueError("divergent series: |z| >= 1")
    _check_digits(digits)
    if (any(l.denominator == 1 and l <= 0 for l in s.lower)
            or s.den.is_zero or index_roots(s.den)):
        raise ValueError("pole of series term")
    cap = default_term_budget(s.z, digits) if max_terms is None else max_terms
    if cap * (cap + digits) > _SUM_WORK_CAP:
        raise ValueError(f"summation work above supported range:"
                         f" {decimal_text(cap)} terms at {digits} digits")
    tol = Fraction(1, 2 * 10 ** digits)
    pbits = _bits_for(digits)
    if s.z == 0:
        t0 = s.term(0)
        return Enclosure.exact(t0, pbits), 1
    num_j, den_j = s.ratio_parts()
    found = None
    if num_j.degree <= den_j.degree:
        j1 = _stability_point(num_j, den_j, cap)
        if j1 is not None:
            lim = abs(num_j.lc / den_j.lc) if num_j.degree == den_j.degree else _F0
            p, q = _common_ints([UniPoly.from_roots([-u for u in s.upper], s.z),
                                 UniPoly.from_roots([-l for l in s.lower])])
            rn, rd = _common_ints([num_j, den_j])
            g = _GeometricSum(p, q, s.num.numerators, s.den.numerators,
                              Fraction(s.den.denominator, s.num.denominator),
                              rn, rd, lim, j1, cap, tol)
            found = g.confirm(g.predict(), pbits)
    if found is None:
        # no tail bound within the cap, but an upper parameter -m may make
        # the series finite: every term past j = m is zero
        ms = [-int(u) for u in s.upper if u.denominator == 1 and u <= 0]
        if not ms or min(ms) + 1 > cap:
            raise ValueError("requested digits unreachable")
        total = sum(s.terms(min(ms) + 1))
        return Enclosure.exact(total, pbits), min(ms) + 1
    return found


# ---------------------------------------------------------------------------
# Direct-summation oracle
# ---------------------------------------------------------------------------


def direct_sum(num: UniPoly, den: UniPoly, target_digits: int) -> Enclosure:
    """Enclosure, at no more than six digits, of the sum over k >= 0 of
    the terms t_0 = 1, t_{k+1} = t_k num(k)/den(k).

    Terminating sums are exact, summed on the product tree; |ratio|
    limits below one get the certified geometric tail bound; ratio
    limits of +1 (with decay exponent above one) and -1 (alternating,
    decay exponent positive) are summed in double precision with an
    integral-estimate or alternating tail.  Everything else raises
    "oracle unavailable", and so does a sum that meets no tail rule
    within the term cap.
    """
    if target_digits > _ORACLE_DIGITS_CAP:
        raise ValueError("oracle unavailable")
    if index_roots(den):
        raise ValueError("oracle unavailable")
    if num.is_zero:
        return Enclosure.exact(1)
    stops = index_roots(num)
    tol = Fraction(1, 2 * 10 ** target_digits)
    if stops:
        # the exact sum over k <= stop is T/Q on the product tree (B = 1)
        m = stops[0] + 1
        p, q = _common_ints([num, den])
        _, Q, _, T = _split(_values(p, 0, m), _values(q, 0, m), [1] * m, [1] * m, 0, m)
        return Enclosure.from_ratio(T if Q > 0 else -T, 0, abs(Q))
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
    g = _GeometricSum(p, q, [1], [1], _F1, p, q, lim, j1, cap, tol)
    found = g.confirm(g.predict(), _MIN_PRECISION)
    if found is None:
        raise ValueError("oracle unavailable")
    return found[0]


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
