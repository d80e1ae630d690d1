"""Arbitrary-precision enclosures for series values and closed forms.

Values are enclosed as center +/- radius with dyadic BigFloat bounds
(mantissa * 2^exponent at a stated precision of at least 64 bits).
Arithmetic works on integer endpoints over one exponent and rounds
each result outward, so enclosures are sound by construction.

pi comes from the Machin arctangent combination 16 atan(1/5) -
4 atan(1/239), log 2 from 2 atanh(1/3), and rational powers of small
integer bases from floor q-th roots of scaled integers, all memoized by
precision; the tests cross-check each constant, and none of them share
code with series evaluation.

chu_eval_terms sums the series and certifies its tail geometrically:
once the term-quotient numerator, denominator, and their derivative
combination N'D - ND' each keep a single coefficient sign from some
shift J1 on, the quotient magnitude is monotone toward |z| past J1, so
max(|ratio(j)|, |z|) < 1 bounds every later quotient and a geometric
bound encloses the tail.  The term is read as t_j = K C_j a(j) with
C_0 = 1 and C_{j+1}/C_j = p(j)/q(j), where p, q, a are integer
polynomials.  With a and b the integer numerators of num and den, b is
folded into the ratio: p/q is z prod (j + u) b(j) / (prod (j + l) b(j + 1))
with no integer factor common to p and q, and K is the quotient of the
denominators of num and den over b(0).  The sum runs in blocks of
leaves, each an exact binary-splitting product tree of integers P, Q, T
(Haible and Papanikolaou, ANTS 1998), carried from block to block in
fixed point at pbits + 128 bits with integer bounds on the error of
each floor (see _BlockedSum).  The tail rule, false below the stop index
J and true from J on, is decided on those bounds as the sum goes, and
the partial sum and tail bound are rounded from both ends of their
intervals; the roundings are monotone, so where the ends agree they are
the exact rationals' (Ziv, ACM TOMS 1991), and where not, the exact tree
over [0, J) decides.  So J and the dyadic endpoints are those a running
Fraction sum would give.  The term cap is decided here alone:
default_term_budget gives it from |z| and the digits for every caller
that passes none, and one work budget bounds it, default or explicit.

direct_sum is the one direct-summation oracle: the low-precision sum
of an unaccelerated k-series normalized by its k = 0 term, a bracket
series with num = den = 1, which accelerator.vanishing_check reads off
the summand at each shifted point of the unrolling (k_series_at).
Terminating sums are exact and geometrically convergent sums carry the
certified tail bound, by the finite and geometric routines that
chu_eval_terms uses too; the slowly convergent positive and
alternating cases use documented asymptotic tail estimates in double
precision, which is why the oracle is capped at six digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import ceil, gcd, isqrt, log10
from typing import TYPE_CHECKING, Iterator, Optional

from hyperaccel.exact_arith import (Scalar, UniPoly, _common_ints, _zeval,
                                    decimal_text, index_roots)

if TYPE_CHECKING:
    from hyperaccel.accelerator import ChuSeries

_F0 = Fraction(0)

_MIN_PRECISION = 64
_DIGITS_CAP = 10000
_GUARD_DIGITS = 10
# bound on cap * (cap + digits) for a series sum, set for a stop search
# that cost about cap * cap; the blocked sum finds the stop in the course
# of summing, at far less cost, so the budget is a margin kept until it is
# restated from measurements
_SUM_WORK_CAP = 2 * 10 ** 9
# product-tree merges spanning at least this many leaves cancel the
# content the left P and the right Q share; below it a gcd saves about
# what it costs
_CANCEL_LEAVES = 32
# product-tree spans of at most this many leaves are summed in one loop,
# which costs less than a call per leaf while the integers are small
_LOOP_LEAVES = 8
# bits the blocked sum carries past the enclosure precision
_GUARD_BITS = 128
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
        """Round n/d to precision bits for d > 0; mode is nearest or ceil,
        and n and d need have no common factor divided out."""
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
        elif 2 * rem > d or (2 * rem == d and q % 2):
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
        """(l, h, e) with the interval [l 2^e, h 2^e]."""
        c, r = self.center, self.radius
        e = min(c.exponent, r.exponent)
        m, w = c.mantissa << (c.exponent - e), r.mantissa << (r.exponent - e)
        return m - w, m + w, e

    def overlaps(self, other: "Enclosure") -> bool:
        (l1, h1, e1), (l2, h2, e2) = self._ends(), other._ends()
        e = min(e1, e2)
        return (l1 << (e1 - e) <= h2 << (e2 - e)
                and l2 << (e2 - e) <= h1 << (e1 - e))

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


def _arctan_scaled(q: int, pbits: int, sign: int) -> tuple[int, int]:
    """Floor-scaled sum_i sign^i / ((2i + 1) q^(2i+1)) at 2^pbits, that is
    atan(1/q) for sign -1 and atanh(1/q) for sign 1, and an error bound in
    ulps.  x_i = floor(2^pbits / q^(2i+1)) is carried by floor division
    by q^2 and each term taken as x_i // (2i + 1), the same floors as
    2^pbits // ((2i + 1) q^(2i+1)) with no big divisor."""
    total = 0
    qq = q * q
    x = (1 << pbits) // q
    i = 0
    while True:
        term = x // (2 * i + 1)
        if term == 0:
            break
        total += term if i % 2 == 0 else sign * term
        x //= qq
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
    a5, e5 = _arctan_scaled(5, pbits, -1)
    a239, e239 = _arctan_scaled(239, pbits, -1)
    return _narrow(Enclosure.from_ratio(16 * a5 - 4 * a239, 16 * e5 + 4 * e239,
                                        1 << pbits, pbits), digits)


@lru_cache(maxsize=8)
def _log2(digits: int) -> Enclosure:
    """log 2 with radius at most 10^-digits, by 2 atanh(1/3)."""
    pbits = _bits_for(digits)
    a3, e3 = _arctan_scaled(3, pbits, 1)
    return _narrow(Enclosure.from_ratio(2 * a3, 2 * e3, 1 << pbits, pbits), digits)


def _iroot(n: int, q: int) -> int:
    """Floor q-th root of n >= 0: math.isqrt for q = 2, else integer
    Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0 or q == 1:
        return n if q == 1 else 0
    if q == 2:
        return isqrt(n)
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


@lru_cache(maxsize=16)
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


def _values(c: list[int]) -> Iterator[int]:
    """c(0), c(1), ... lazily, as chained running sums of the differences
    of c at 0."""
    d = max(len(c) - 1, 0)
    diffs = [_zeval(c, j) for j in range(d + 1)]
    for i in range(d):
        for t in range(d, i, -1):
            diffs[t] -= diffs[t - 1]
    vals = repeat(diffs[-1])
    for x in reversed(diffs[:-1]):
        vals = accumulate(vals, initial=x)
    return vals


def _merge(x: tuple[int, int, int], y: tuple[int, int, int],
           leaves: int) -> tuple[int, int, int]:
    """P, Q, T over [lo, hi) from x over [lo, mid) and y over [mid, hi),
    a span of the given number of leaves: P = p1 p2, Q = q1 q2 and
    T = q2 t1 + p1 t2, so T/Q = t1/q1 + (p1/q1)(t2/q2).  From
    _CANCEL_LEAVES leaves on, g = gcd(p1, q2) is divided out of p1 and q2
    first: g divides P, Q and T, so P/Q and T/Q keep their values, and
    each of |P|, |Q|, |T| is the unreduced one divided by a positive
    integer (Cheng, Hanrot, Thome, Zima and Zimmermann, ISSAC 2007)."""
    (p1, q1, t1), (p2, q2, t2) = x, y
    if leaves >= _CANCEL_LEAVES:
        g = gcd(p1, q2)
        p1, q2 = p1 // g, q2 // g
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _split(pv: list[int], qv: list[int], av: list[int],
           lo: int, hi: int) -> tuple[int, int, int]:
    """Integers P, Q, T over [lo, hi): P/Q = prod p(i)/q(i) and
    T/Q = sum_n a(n) prod_{lo <= i < n} p(i)/q(i).  A span of at most
    _LOOP_LEAVES leaves is summed in one loop, to the unreduced integers;
    a wider one is split at its middle, depth first, and merged, with the
    content p1 and q2 share cancelled at the upper merges (see _merge)."""
    if hi - lo <= _LOOP_LEAVES:
        P, Q, T = 1, 1, 0
        for i in range(lo, hi):
            q = qv[i]
            T = q * (T + P * av[i])
            P *= pv[i]
            Q *= q
        return P, Q, T
    mid = (lo + hi) // 2
    return _merge(_split(pv, qv, av, lo, mid), _split(pv, qv, av, mid, hi), hi - lo)


def _fold(state: tuple[int, int, int, int], P: int, Q: int,
          T: int) -> tuple[int, int, int, int]:
    """The state (c, e, S, e_S) carried over a span with P, Q, T (see
    _split): c <- floor(c P/Q), S <- S + floor(c T/Q),
    e <- floor(e |P|/|Q|) + 2 and e_S <- e_S + ceil(e |T|/|Q|) + 1.  Where
    |c - c*| <= e and |S - S*| <= e_S before, for exact values c* and S*,
    they hold after for c* P/Q and S* + c* T/Q: each floor is off by less
    than 1, and c P/Q and c T/Q by at most e |P/Q| and e |T/Q|."""
    c, e, s, es = state
    aq = abs(Q)
    return (c * P // Q, e * abs(P) // aq + 2, s + c * T // Q,
            es - (-e * abs(T) // aq) + 1)


def _block_leaves(w: int, p: int, q: int) -> int:
    """Leaves of a block at w bits from the leaf p, q on: about w over the
    bits of p q, so P and Q take about w bits, and at least _LOOP_LEAVES."""
    return max(_LOOP_LEAVES, w // max((p * q).bit_length(), 1))


class _BlockedSum:
    """Certified sum of the terms t_j = K C_j a(j) of a series, with C_0 = 1
    and C_{j+1}/C_j = p(j)/q(j), the denominator of the series folded into
    p/q, as _leaf_polys gives them.

    Coefficients are ascending integers; q has no root at a summation index,
    and rn/rd = a(j+1) p(j) / (a(j) q(j)) is t_{j+1}/t_j, with |rn/rd|
    monotone toward lim < 1 from j1 >= 1 on.  J is the first j in [j1, cap] with
    rbar_j = max(|rn(j)/rd(j)|, lim) < 1 and |t_j| / (1 - rbar_j) <= tol.
    That rule fails below j0, the first j >= j1 with rbar_j < 1, and is
    monotone from j0 on: past j1 rbar_j does not increase, as |rn/rd| moves
    monotonically toward lim, and |t_{j+1}| = |rn(j)/rd(j)| |t_j| <= |t_j|,
    so |t_j| / (1 - rbar_j) does not increase either.  So the rule is false
    on [0, J) and true from J on.

    The state (c, e, S, e_S) holds c* = K C_j 2^W and S* = 2^W times the
    partial sum over [0, j) within e and e_S, at W = pbits + _GUARD_BITS,
    from c = floor(K 2^W), e = 1.  Blocks of leaves are summed exactly
    (_split) and folded into it (_fold); the rule is decided on the
    state's interval (_decide) and the enclosure rounded from it
    (_round), or on the exact tree over [0, j) where those cannot decide
    (_exact).  So J and the enclosure are those of a running Fraction
    sum, whatever the block sizes.
    """

    def __init__(self, leaf: tuple, rn: list[int], rd: list[int],
                 lim: Fraction, j1: int, cap: int, tol: Fraction, pbits: int):
        p, q, a, k = leaf
        self.iters = tuple(_values(c) for c in (p, q, a))
        self.leaves: tuple[list[int], list[int], list[int]] = ([], [], [])
        self.k, self.rn, self.rd, self.j1, self.cap = k, rn, rd, j1, cap
        self.ln, self.ld = lim.numerator, lim.denominator
        self.tn, self.td = tol.numerator, tol.denominator
        self.pbits, self.w = pbits, pbits + _GUARD_BITS
        # tol 2^W lies in [r, r + 1)
        self.r = (self.tn << self.w) // self.td

    def _grow(self, n: int) -> None:
        """Leaf values p(j), q(j), a(j) for at least j < n."""
        more = n - len(self.leaves[0])
        if more > 0:
            for vals, it in zip(self.leaves, self.iters):
                vals += islice(it, more)

    def _rbar(self, j: int) -> tuple[int, int]:
        nj, dj = abs(_zeval(self.rn, j)), abs(_zeval(self.rd, j))
        return (self.ln, self.ld) if nj * self.ld < self.ln * dj else (nj, dj)

    def _decide(self, j: int, c: int, e: int) -> Optional[bool]:
        """The rule at j for |c - K C_j 2^W| <= e: |t_j| dj 2^W lies within
        (|c| -+ e) |a(j)| dj, set against tol (dj - nj) 2^W in
        [(dj - nj) r, (dj - nj)(r + 1)); None where the interval straddles."""
        a = abs(self.leaves[2][j])
        # as dj - nj <= dj, the rule fails where (|c| - e) |a(j)| > r
        if j < self.j1 or (abs(c) - e) * a > self.r:
            return False
        nj, dj = self._rbar(j)
        if nj >= dj:
            return False
        x, gap = a * dj, dj - nj
        if (abs(c) + e) * x <= gap * self.r:
            return True
        if (abs(c) - e) * x >= gap * (self.r + 1):
            return False
        return None

    def run(self) -> Optional[tuple[Enclosure, int]]:
        """The enclosure and J, or None when the rule fails through cap.
        A block [lo, hi) is taken where the rule fails at hi; where not,
        J lies in (lo, hi] or the test cannot tell, and the block is tried
        again at half the leaves, down to one."""
        pv, qv = self.leaves[:2]
        self._grow(1)
        state = ((self.k.numerator << self.w) // self.k.denominator, 1, 0, 0)
        lo, m = 0, None
        while True:
            hi = min(lo + (m or _block_leaves(self.w, pv[lo], qv[lo])), self.cap)
            self._grow(hi + 1)
            end = _fold(state, *_split(*self.leaves, lo, hi))
            found = self._decide(hi, *end[:2])
            if found is not False and hi - lo > 1:
                m = (hi - lo + 1) // 2
                continue
            if found:
                return self._round(hi, end) or self._exact(hi), hi
            if found is None and (enc := self._exact(hi)) is not None:
                return enc, hi
            if hi == self.cap:
                return None
            lo, state = hi, end

    def _round(self, j: int, state: tuple[int, int, int, int]
               ) -> Optional[Enclosure]:
        """The enclosure at J = j from the state, where the roundings of
        both ends of the partial sum and of the error box agree."""
        c, e, s, es = state
        w, one = self.w, 1 << self.w
        center = BigFloat.from_ratio(s - es, one, self.pbits)
        if center != BigFloat.from_ratio(s + es, one, self.pbits):
            return None
        # |center - partial sum| + tail bound, over 2^f (dj - nj)
        f = max(w, -center.exponent)
        m = center.mantissa << (f + center.exponent)
        lo, hi = (s - es) << (f - w), (s + es) << (f - w)
        nj, dj = self._rbar(j)
        gap, x = dj - nj, abs(self.leaves[2][j]) * dj << (f - w)
        near = max(lo - m, m - hi, 0) * gap + max(abs(c) - e, 0) * x
        far = max(m - lo, hi - m) * gap + (abs(c) + e) * x
        radius = BigFloat.from_ratio(far, gap << f, _MIN_PRECISION, "ceil")
        if radius != BigFloat.from_ratio(near, gap << f, _MIN_PRECISION, "ceil"):
            return None
        return Enclosure(center, radius)

    def _exact(self, j: int) -> Optional[Enclosure]:
        """The enclosure where the rule holds at j, decided on the exact tree
        over [0, j): C_j = P/Q and the partial sum K T/Q; else None."""
        P, Q, T = _split(*self.leaves, 0, j)
        nj, dj = self._rbar(j)
        kn, kd = self.k.numerator, self.k.denominator
        half = abs(kn * P * self.leaves[2][j]) * dj
        if j < self.j1 or nj >= dj or half * self.td > self.tn * kd * abs(Q) * (dj - nj):
            return None
        # the sum k T/Q and the bound k |P a(j)| d/(|Q| (d - n)), both over
        # the positive denominator kd |Q| (d - n)
        w = (dj - nj) * (1 if Q > 0 else -1)
        return Enclosure.from_ratio(kn * T * w, half, kd * Q * w, self.pbits)


def _leaf_polys(s: ChuSeries) -> tuple[list[int], list[int], tuple[int, ...],
                                       Fraction]:
    """p, q, a and K with t_j = K C_j a(j), C_0 = 1 and C_{j+1}/C_j =
    p(j)/q(j).  With a and b the integer numerators of num and den, t_j is
    z^j prod (u)_j / prod (l)_j a(j)/b(j) times the quotient of their
    denominators; b is folded into the ratio, so p/q is
    z prod (j + u) b(j) / (prod (j + l) b(j + 1)) as integers with no
    common factor, and K is that quotient over b(0)."""
    b = s.den
    p, q = _common_ints([UniPoly.from_roots([-u for u in s.upper], s.z) * b,
                         UniPoly.from_roots([-l for l in s.lower]) * b.shift(1)])
    return (p, q, s.num.numerators,
            Fraction(b.denominator, s.num.denominator * b.numerators[0]))


def _finite_stop(s: ChuSeries) -> Optional[int]:
    """The least m with an upper parameter -m, past which every term is
    zero; None when there is none."""
    return min((-int(u) for u in s.upper if u.denominator == 1 and u <= 0),
               default=None)


def _finite_sum(s: ChuSeries, m: int, pbits: int) -> Enclosure:
    """The exact sum of the terms j <= m, K T/Q on the product tree."""
    p, q, a, k = _leaf_polys(s)
    P, Q, T = _split(*(list(islice(_values(c), m + 1)) for c in (p, q, a)), 0, m + 1)
    sign = 1 if Q > 0 else -1
    return Enclosure.from_ratio(sign * k.numerator * T, 0,
                                sign * k.denominator * Q, pbits)


def _geometric_sum(s: ChuSeries, cap: int, tol: Fraction,
                   pbits: int) -> Optional[tuple[Enclosure, int]]:
    """The enclosure and stop index J of the geometric tail rule at
    tolerance tol (see _BlockedSum); None when the term quotient has the
    higher degree in its numerator, or no stability point or J lies within
    the cap."""
    leaf = p, q, a, _ = _leaf_polys(s)
    rn, rd = UniPoly(a).shift(1) * UniPoly(tuple(p)), UniPoly(a) * UniPoly(tuple(q))
    j1 = _stability_point(rn, rd, cap) if rn.degree <= rd.degree else None
    if j1 is None:
        return None
    lim = abs(rn.lc / rd.lc) if rn.degree == rd.degree else _F0
    return _BlockedSum(leaf, *_common_ints([rn, rd]), lim, j1, cap, tol, pbits).run()


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
    from J1 on, so the bound is monotone in j.  The terms are summed in
    blocks, exact product trees of three integers P, Q, T over the term
    ratio with den folded in, carried across in guarded fixed point
    (see _BlockedSum); J and the endpoints are decided on the fixed
    point's error bounds where they can be, and on the exact tree where
    not, so both are those of the exact partial sum.  A series that
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
    found = _geometric_sum(s, cap, tol, pbits)
    if found is None:
        # no tail bound within the cap, but an upper parameter -m may make
        # the series finite: every term past j = m is zero
        m = _finite_stop(s)
        if m is None or m + 1 > cap:
            raise ValueError("requested digits unreachable")
        return _finite_sum(s, m, pbits), m + 1
    return found


# ---------------------------------------------------------------------------
# Direct-summation oracle
# ---------------------------------------------------------------------------


def direct_sum(s: ChuSeries, target_digits: int) -> Enclosure:
    """Enclosure, at no more than six digits, of a bracket series with
    num = den = 1, whose terms are t_0 = 1, t_{k+1} = t_k z prod (k + u) /
    prod (k + l).

    Terminating sums are exact, summed on the product tree; |ratio|
    limits below one get the certified geometric tail bound; ratio
    limits of +1 (with decay exponent above one) and -1 (alternating,
    decay exponent positive) are summed in double precision with an
    integral-estimate or alternating tail.  Everything else raises
    "oracle unavailable", and so does a sum that meets no tail rule
    within the term cap.
    """
    if (target_digits > _ORACLE_DIGITS_CAP
            or any(l.denominator == 1 and l <= 0 for l in s.lower)):
        raise ValueError("oracle unavailable")
    if s.z == 0:
        return Enclosure.exact(1)
    m = _finite_stop(s)
    if m is not None:
        return _finite_sum(s, m, _MIN_PRECISION)
    if len(s.upper) > len(s.lower):
        raise ValueError("oracle unavailable")
    limit = s.z if len(s.upper) == len(s.lower) else _F0
    tol = Fraction(1, 2 * 10 ** target_digits)
    if abs(limit) < 1:
        found = _geometric_sum(s, 4000, tol, _MIN_PRECISION)
        if found is None:
            raise ValueError("oracle unavailable")
        return found[0]
    if abs(limit) > 1:
        raise ValueError("oracle unavailable")
    # the decay exponent of t_k ~ k^-alpha (limit 1) or of |t_k| (limit -1)
    alpha = sum(s.lower) - sum(s.upper)
    p, q = _leaf_polys(s)[:2]
    if limit == 1:
        if alpha <= 1:
            raise ValueError("oracle unavailable")
        return _oracle_float(p, q, float(tol), float(alpha))
    if alpha <= 0:
        raise ValueError("oracle unavailable")
    return _oracle_float(p, q, float(tol))


def _horner(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _oracle_float(num: list[int], den: list[int], tol: float,
                  alpha: Optional[float] = None) -> Enclosure:
    """The double-precision sum of t_0 = 1, t_{k+1} = t_k num(k)/den(k)
    for a ratio limit of +1 with decay exponent alpha, or of -1 when
    alpha is None.  Only the stop rule differs: from k = 64 on, the
    integral estimate of the tail within tol, or from k = 8 on, a term
    |t_k| <= tol with the alternating tail t_k/2."""
    nf = [float(c) for c in num]
    df = [float(c) for c in den]
    total, t = 0.0, 1.0
    for k in range(_ORACLE_TERM_CAP):
        done = False
        if alpha is None:
            tail, spread = t / 2.0, abs(t) * 0.6
            done = k >= 8 and abs(t) <= tol
        elif k >= 64:
            tail = t * (k / (alpha - 1.0) + 0.5)
            spread = abs(tail) * (alpha + 3.0) * 6.0 / k
            done = spread + 1e-9 * (1.0 + abs(total)) <= tol
        if done:
            c = Fraction(total + tail)
            r = Fraction(spread + 1e-9 * (1.0 + abs(total)))
            return Enclosure.from_interval(c - r, c + r)
        total += t
        t *= _horner(nf, float(k)) / _horner(df, float(k))
    raise ValueError("oracle unavailable")
