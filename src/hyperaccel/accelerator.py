"""Accelerated series streams and their bracket normal form.

Summing a verified recurrence p1(n) F(n+r, k) + p2(n) F(n, k) =
(cert F)(n, k+1) - (cert F)(n, k) over k >= 0 turns the k-sum FF(n)
into

    FF(n) = g1(n) + g2(n) FF(n + r),
    g1(n) = -cert(n, 0) F(n, 0) / p2(n),     g2(n) = -p1(n) / p2(n),

and unrolling from a start point n0 yields the accelerated series.  The
stream is normalized by F(n0, 0), so every term is an exact rational
number built from the certificate, p1, p2, and the n-shift ratio of the
summand evaluated along nu_j = n0 + r j.  The certificate and the ratio
enter at k = 0: row 0 of the certificate's grids, and the products of
the rows [u, s] of the ratio's affine factors (m k + s n + u)/d,
UniPolys in n, so each term costs a few Horner evaluations.
AccelStream generates the terms lazily and compares the term quotient
t_{j+1}/t_j with a series' on one integer image of their factors; it
expands the quotient into UniPolys on use.

Unrolling is valid only when the remainder after m steps dies off.
vanishing_check estimates that remainder in double precision: the
running product of g2 times the value of the original series at the
shifted point, each summand there normalized by its own k = 0 term.
That series is read off the affine factors of F(n, k+1)/F(n, k) at the
point as a bracket series (k_series_at), with nothing expanded and no
root search, and summed by the direct-summation oracle,
numerics.direct_sum, at two digits; a point where the oracle refuses
fails the check.  It is a numeric heuristic, not a proof; the exact
certificate of correctness is agreement of the summed stream with its
closed form.

The bracket normal form rewrites the stream as scale * T_j with

    T_j = z^j * prod (u)_j / prod (l)_j * num(j) / den(j),

where (x)_j is a rising factorial, num is a primitive integer
polynomial with positive leading coefficient, and den is a product of
primitive integer linear factors.  Rising-factorial quotients whose
parameters differ by an integer are folded into num and den, so the
remaining upper and lower parameter lists share no integer gaps.  The
parameters are read off the rational roots of the quotient's numerator
and denominator (exact_arith.rational_roots).  The form depends only on
the reduced quotient, so streams with equal forms are termwise
proportional.  ChuSeries.terms builds a window of terms with the rising
factorials as one running product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import prod
from typing import Iterator, Optional, Sequence

from hyperaccel.exact_arith import (VARS, Scalar, UniPoly, _Bound,
                                    _kronecker_zero, _unipoly, _zeval, _zmul,
                                    index_roots, rational_roots)
from hyperaccel.hypergeom_terms import HypTerm, k_ratio_parts, n_ratio_parts
from hyperaccel.numerics import direct_sum
from hyperaccel.telescoper import Recurrence

_F0 = Fraction(0)
_F1 = Fraction(1)

_REMAINDER_TOL = 1e-30
_ORACLE_DIGITS = 2
_UNROLL_STEPS = 200
_N_INDEX = VARS.index("n")


# ---------------------------------------------------------------------------
# Convergence rate
# ---------------------------------------------------------------------------


def convergence_rate(rec: Recurrence) -> Fraction:
    """Limit of -p1(n)/p2(n) as n grows; 0 when deg p1 < deg p2.

    Raises when deg p1 exceeds deg p2, since the unrolled stream then
    cannot converge.
    """
    p1, p2 = rec.p1, rec.p2
    if p2.is_zero or p1.degree > p2.degree:
        raise ValueError("divergent acceleration")
    if p1.degree < p2.degree:
        return _F0
    return -p1.lc / p2.lc


# ---------------------------------------------------------------------------
# Remainder estimate
# ---------------------------------------------------------------------------


def k_series_at(term: HypTerm, n: Scalar) -> ChuSeries:
    """sum_k F(n, k)/F(n, 0) as a bracket series with num = den = 1, read
    off the factors of F(n, k+1)/F(n, k): with c = s n + u, a factor
    (m k + s n + u)/d gives the parameter c/m and the factor m/d of z, or
    c/d to z when m = 0.  Equal upper and lower parameters are kept.
    Raises ValueError when a factor free of k vanishes in the
    denominator, and ValueError("unbound variable: x") for a free x."""
    sign, num, den = k_ratio_parts(term)
    z = sign
    params: tuple[list[Fraction], list[Fraction]] = ([], [])
    for side, factors in enumerate((num, den)):
        for f in factors:
            free = f.variables() - {"n", "k"}
            if free:
                raise ValueError(f"unbound variable: {min(free)}")
            c, m = Fraction(f.row[_N_INDEX] * n + f.row[-1], f.den), f.coeff("k")
            if m:
                params[side].append(c / m)
            elif side and not c:
                raise ValueError("pole of series term")
            # the factor is m (k + c/m), or c when m = 0
            z = z / (m or c) if side else z * (m or c)
    return ChuSeries(z, tuple(params[0]), tuple(params[1]), UniPoly.one(),
                     UniPoly.one())


def vanishing_check(term: HypTerm, rec: Recurrence, n0: Scalar) -> bool:
    """Numeric estimate that the unrolling remainder dies off.

    After m unrolling steps the remainder is gauged by the running
    product of g2(nu_o) over o <= m times the original series at
    nu_{m+1}, each evaluated relative to its own k = 0 summand.  The
    product runs in double precision with the series value from the
    direct-summation oracle (numerics.direct_sum) at two digits; the
    estimate must fall below 1e-30 within 200 steps and decrease
    monotonically over the final ten steps.  A geometric |g2| below one
    passes; fabricated coefficients with |g2| >= 1 fail, and so does a
    series the oracle refuses to sum at some shifted point.
    """
    p1, p2 = rec.p1, rec.p2
    nu = Fraction(n0)
    pre = 1.0
    vals = []
    for m in range(_UNROLL_STEPS + 1):
        p2v = p2.eval(nu)
        if p2v == 0:
            raise ValueError(f"pole in accelerated stream at term {m}")
        pre *= abs(float(-p1.eval(nu) / p2v))
        nu += rec.r
        # a refused k-sum, or one beyond the float range, is not gauged
        try:
            total = direct_sum(k_series_at(term, nu), _ORACLE_DIGITS)
            vals.append(pre * abs(float(total.center.to_fraction())))
        except (ValueError, OverflowError):
            return False
    if not vals[-1] < _REMAINDER_TOL:
        return False
    last = vals[-10:]
    return all(last[i + 1] <= last[i] for i in range(len(last) - 1))


# ---------------------------------------------------------------------------
# Exact stream generation
# ---------------------------------------------------------------------------


def _stream_parts(term: HypTerm, rec: Recurrence) -> tuple[UniPoly, ...]:
    """p1, p2, and the numerators and denominators of the certificate and
    of the n-shift ratio at k = 0, as polynomials in n: row 0 of the
    certificate's grids, and for the ratio, whose sign is 1, the product
    of the rows [u, s] of its factors (m k + s n + u)/d over the product
    of their d."""
    _, num, den = n_ratio_parts(term, rec.r)
    parts = [rec.p1, rec.p2]
    # a zero grid has no row 0
    parts.extend(UniPoly(grid[0] if grid else ()) for grid in rec.cert)
    for factors in (num, den):
        rows = ((f.row[-1], f.row[_N_INDEX]) for f in factors)
        parts.append(_unipoly(reduce(_zmul, rows, [1]), prod(f.den for f in factors)))
    return tuple(parts)


def iter_accelerated(parts: Sequence[UniPoly], r: int,
                     n0: Scalar) -> Iterator[Fraction]:
    """Exact accelerated terms t_j, normalized by F(n0, 0), from the
    `_stream_parts` of a summand and its recurrence with n-offset r.

    The certificate and the n-shift ratio enter only at k = 0, so their
    numerators and denominators are reduced once to polynomials in n and
    evaluated by Horner at each nu_j.  The parts are kept apart (not a
    reduced quotient), so a zero of a denominator at nu_j is reported as
    a pole at term j.
    """
    p1, p2, cert_num, cert_den, rho_num, rho_den = parts
    nu = Fraction(n0)
    pre = _F1
    j = 0
    while True:
        p2v = p2.eval(nu)
        cdv = cert_den.eval(nu)
        rdv = rho_den.eval(nu)
        if p2v == 0 or cdv == 0 or rdv == 0:
            raise ValueError(f"pole in accelerated stream at term {j}")
        yield pre * (-cert_num.eval(nu) / cdv) / p2v
        pre *= (-p1.eval(nu) / p2v) * (rho_num.eval(nu) / rdv)
        nu += r
        j += 1


def _quotient_factors(parts: Sequence[UniPoly], r: int, n0: Scalar):
    """The factors (p, a, b), each p(a + b j), of the term quotient's
    numerator -p1(nu) cert(nu + r, 0) rho(nu, 0), without its sign, and
    denominator cert(nu, 0) p2(nu + r), nu = n0 + r j."""
    p1, p2, cn, cd, rn, rd = parts
    nu = Fraction(n0)
    return ([(p1, nu, r), (cn, nu + r, r), (rn, nu, r), (cd, nu, r)],
            [(cd, nu + r, r), (rd, nu, r), (cn, nu, r), (p2, nu + r, r)])


def stream_ratio(parts: Sequence[UniPoly], r: int,
                 n0: Scalar) -> tuple[UniPoly, UniPoly]:
    """Term quotient t_{j+1}/t_j of the accelerated stream from the
    `_stream_parts` of a summand and its recurrence with n-offset r: the
    `_quotient_factors` expanded in j, no common factor divided out."""
    num, den = (prod((p.compose(a, b) for p, a, b in side), start=UniPoly.one())
                for side in _quotient_factors(parts, r, n0))
    return -num, den


class _JProduct:
    """scalar/den times the product of the p(a + b j) over the (p, a, b)
    in polys, as integer polynomials m^d p((u + v j)/m) over den, the
    product of the p's denominators and the m^d; scalar starts at 1."""

    def __init__(self, polys: Sequence[tuple[UniPoly, Scalar, Scalar]]):
        self.scalar, self.den, self.factors = 1, 1, []
        for p, a, b in polys:
            a, b = Fraction(a), Fraction(b)
            m = a.denominator * b.denominator
            self.den *= p.denominator * m ** max(p.degree, 0)
            self.factors.append((p.numerators, a.numerator * b.denominator,
                                 b.numerator * a.denominator, m))

    def bound(self) -> _Bound:
        """A factor's l1 norm is at most sum |c_i| (|u| + |v|)^i m^(d-i).
        The degree is 0: it only spaces the powers of k, and there is no k."""
        return _Bound(abs(self.scalar) * prod(
            _zeval([abs(c) for c in p], abs(u) + abs(v), m)
            for p, u, v, m in self.factors), 0)

    def image(self, b: int, kb: int) -> int:
        """The value at j = 2^b; there is no k, so kb is unused."""
        return self.scalar * prod(_zeval(p, u + (v << b), m)
                                  for p, u, v, m in self.factors)


class AccelStream:
    """Lazily generated accelerated terms with their term quotient.

    source, rec, and n0 identify the stream; term(j) and take(count)
    yield exact rational terms from a growing cache.  ratio, built on
    first use, is t_{j+1}/t_j as stream_ratio's pair in j.
    """

    def __init__(self, source: HypTerm, rec: Recurrence, n0: Scalar):
        self.source = source
        self.rec = rec
        self.n0 = Fraction(n0)
        self._parts = _stream_parts(source, rec)
        self._it = iter_accelerated(self._parts, rec.r, n0)
        self._cache: list[Fraction] = []

    @cached_property
    def ratio(self) -> tuple[UniPoly, UniPoly]:
        return stream_ratio(self._parts, self.rec.r, self.n0)

    def term(self, j: int) -> Fraction:
        while len(self._cache) <= j:
            self._cache.append(next(self._it))
        return self._cache[j]

    def take(self, count: int) -> list[Fraction]:
        return [self.term(j) for j in range(count)]

    def same_quotient(self, series: ChuSeries) -> bool:
        """Whether t_{j+1}/t_j equals the term quotient dn/dd of a series
        with num and den nonzero, dn sd = sn dd for sn/sd the `ratio`,
        decided on the factors by one image (`exact_arith._kronecker_zero`)."""
        sn, sd = _quotient_factors(self._parts, self.rec.r, self.n0)
        s = series
        # dn = num(j+1) den(j) z prod (j + u), dd = num(j) den(j+1) prod (j + l)
        left = _JProduct([(s.num, 1, 1), (s.den, 0, 1), *sd,
                          (UniPoly.from_roots([-u for u in s.upper], s.z), 0, 1)])
        right = _JProduct([(s.num, 0, 1), (s.den, 1, 1), *sn,
                           (UniPoly.from_roots([-l for l in s.lower]), 0, 1)])
        # sn carries the sign -1
        left.scalar, right.scalar = right.den, -left.den
        return _kronecker_zero(lambda x, y: x - y, (left, right))


def accelerated_stream(term: HypTerm, rec: Recurrence, n0: Scalar,
                       check_vanishing: bool = True) -> AccelStream:
    """Accelerated stream at start point n0, guarded against poles.

    The rational roots of p2 are tested exactly against the progression
    n0 + r j, so a pole is reported with its term index before any term
    is generated.  Unless disabled, the remainder estimate must pass
    vanishing_check, else ValueError("remainder does not vanish").
    """
    p2 = rec.p2
    poles = [0] if p2.is_zero else index_roots(p2, n0, rec.r)
    if poles:
        raise ValueError(f"pole in accelerated stream at term {poles[0]}")
    if check_vanishing and not vanishing_check(term, rec, n0):
        raise ValueError("remainder does not vanish")
    return AccelStream(term, rec, n0)


def stream_proportional(s1: Sequence[Fraction], s2: Sequence[Fraction],
                        j_max: Optional[int] = None) -> Optional[Fraction]:
    """Constant c with s1_j = c * s2_j for all j <= j_max, or None.

    j_max defaults to the last index both sequences cover.  Returns
    None when no single constant works or when both streams vanish
    identically over the window, where the constant is not determined.
    """
    if j_max is None:
        j_max = min(len(s1), len(s2)) - 1
    if j_max < 0 or len(s1) <= j_max or len(s2) <= j_max:
        raise ValueError("streams shorter than the comparison window")
    const: Optional[Fraction] = None
    for j in range(j_max + 1):
        x, y = s1[j], s2[j]
        if (x == 0) != (y == 0):
            return None
        if y != 0:
            c = x / y
            if const is None:
                const = c
            elif c != const:
                return None
    return const


# ---------------------------------------------------------------------------
# Bracket normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChuSeries:
    """Series sum_j z^j prod (u)_j / prod (l)_j * num(j)/den(j).

    terms(count) gives the first count terms by a running product;
    term(j) is the last of terms(j + 1).  ratio_parts() is the term
    quotient as a numerator and denominator in j.
    """

    z: Fraction
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    num: UniPoly
    den: UniPoly

    def terms(self, count: int) -> list[Fraction]:
        """Exact terms 0..count-1; raises ZeroDivisionError on a denominator zero.

        The rising-factorial part P_j = z^j prod (u)_j / prod (l)_j is
        kept as a running product, so count terms cost O(count) steps.
        """
        out: list[Fraction] = []
        prod = _F1
        for j in range(count):
            d = self.den.eval(j)
            if d == 0:
                raise ZeroDivisionError("pole of series term")
            out.append(prod * self.num.eval(j) / d)
            if j + 1 < count:
                step = self.z
                for u in self.upper:
                    step *= u + j
                for l in self.lower:
                    step /= l + j
                prod *= step
        return out

    def term(self, j: int) -> Fraction:
        """Exact j-th term; raises ZeroDivisionError on a denominator zero."""
        return self.terms(j + 1)[j]

    def ratio_parts(self) -> tuple[UniPoly, UniPoly]:
        """Numerator and denominator in j of the term quotient
        term(j+1)/term(j), with no common factor divided out."""
        num = (self.num.shift(1) * self.den
               * UniPoly.from_roots([-u for u in self.upper], self.z))
        den = (self.num * self.den.shift(1)
               * UniPoly.from_roots([-l for l in self.lower]))
        return num, den


def _rooted_split(p: UniPoly) -> tuple[list[Fraction], UniPoly]:
    """Rational roots with multiplicity and the monic rootless cofactor."""
    roots = rational_roots(p)
    rest = p.exact_div(UniPoly.from_roots(roots, p.lc)) if roots else p.scale(1 / p.lc)
    return roots, rest


def chu_normalize(ratio: tuple[UniPoly, UniPoly],
                  t0: Fraction) -> tuple[ChuSeries, Fraction]:
    """Bracket normal form of a stream from its term quotient, a
    (numerator, denominator) pair in j, and its first term.

    Returns (series, scale) with scale * series.term(j) equal to the j-th
    stream term for every j.  The series depends only on the quotient
    reduced to lowest terms.  Raises ValueError("non-Chu-normalizable")
    when the quotient does not have the required shape.
    """
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
    # fold integer-gap parameter pairs into the polynomial parts; a fold
    # only removes lowers, so an upper without a mate never gains one
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
    s_num, s_den = series.ratio_parts()
    if s_num * d_in != n_in * s_den:
        raise ValueError("non-Chu-normalizable")
    scale = t0 * den.eval(0) / num.eval(0)
    return series, scale
