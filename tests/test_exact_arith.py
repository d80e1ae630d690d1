"""Exact-arithmetic core: fixed oracles plus algebraic property tests.

UniPoly keeps integer numerators over one common denominator and runs on
the Z[x] list primitives.  `_RefUni` below is the earlier representation,
a tuple of Fraction coefficients with the schoolbook algorithms over Q,
kept here only as a reference; every UniPoly operation is compared with
it coefficient by coefficient on Hypothesis polynomials.
"""

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperaccel.builtin_data import quarter_dataset
from hyperaccel.exact_arith import (
    VARS,
    MultiPoly,
    UniPoly,
    _primitive_pair,
    _zdiv,
    _zeval,
    _zmul,
    _zsub,
    decimal_text,
    index_roots,
    rational_roots,
)

from quotient_helpers import quotient_eval, same_quotient

F = Fraction


def P(*coeffs):
    return UniPoly.from_coeffs(coeffs)


@dataclass(frozen=True)
class _RefUni:
    """Reference: Fraction coefficients with no trailing zero."""

    coeffs: tuple

    @staticmethod
    def of(cs):
        """From a coefficient list or the coefficients of a UniPoly."""
        cs = [F(c) for c in (cs.coeffs if isinstance(cs, UniPoly) else cs)]
        while cs and not cs[-1]:
            cs.pop()
        return _RefUni(tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else F(0)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _RefUni.of(out)

    def __neg__(self):
        return _RefUni(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _RefUni):
            return _RefUni.of([c * other for c in self.coeffs])
        out = [F(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(other.coeffs):
                out[i + j] += x * y
        return _RefUni.of(out)

    def __pow__(self, e):
        out = _RefUni.of([1])
        for _ in range(e):
            out = out * self
        return out

    def eval(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, a, b):
        out, line = _RefUni(()), _RefUni.of([a, b])
        for c in reversed(self.coeffs):
            out = out * line + _RefUni.of([c])
        return out

    def derivative(self):
        return _RefUni.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other):
        d = other.degree
        rem = list(self.coeffs)
        quo = [F(0)] * max(self.degree - d + 1, 0)
        for k in reversed(range(len(quo))):
            quo[k] = rem[k + d] / other.lc
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= quo[k] * c
        return _RefUni.of(quo), _RefUni.of(rem[:d])

    def content(self):
        if not self.coeffs:
            return F(0)
        return F(gcd(*(c.numerator for c in self.coeffs)),
                 lcm(*(c.denominator for c in self.coeffs)))

    def primitive(self):
        if not self.coeffs:
            return self
        p = self * (1 / self.content())
        return p if p.lc > 0 else -p

    def monic(self):
        return self * (1 / self.lc) if self.coeffs else self

    def gcd(self, other):
        """Euclid over Q with monic remainders."""
        a, b = self, other
        while b.coeffs:
            a, b = b, a.divmod(b)[1].monic()
        return a.monic()


# -- UniPoly.shift ---------------------------------------------------------


def test_poly_shift_quadratic():
    # [TRIVIAL] hand expansion of 27(x+1)^2 + 42(x+1) + 17
    assert P(17, 42, 27).shift(1) == P(86, 96, 27)


def test_poly_shift_rational_offset():
    p = P(0, 0, 1)
    assert p.shift(F(1, 2)) == P(F(1, 4), 1, 1)


@settings(max_examples=60)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=20), max_size=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)
def test_poly_shift_roundtrip(coeffs, s):
    p = UniPoly.from_coeffs(coeffs)
    assert p.shift(s).shift(-s) == p


@settings(max_examples=60)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=10), max_size=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
def test_poly_shift_matches_eval(coeffs, s, x):
    p = UniPoly.from_coeffs(coeffs)
    assert p.shift(s).eval(x) == p.eval(x + s)


# -- rational_roots ----------------------------------------------------------


def test_rational_roots_two_linear_factors():
    p = UniPoly.from_roots([-1, F(-1, 3)], lead=3)
    assert rational_roots(p) == [F(-1), F(-1, 3)]


def test_rational_roots_irreducible_quadratic():
    assert rational_roots(P(17, 42, 27)) == []


def test_rational_roots_multiplicity():
    assert rational_roots(P(0, 0, 0, 1)) == [0, 0, 0]


def test_rational_roots_zero_poly_raises():
    with pytest.raises(ValueError, match="zero polynomial has all roots"):
        rational_roots(UniPoly.zero())


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=1, max_size=4))
def test_rational_roots_recovers_constructed_roots(roots):
    p = UniPoly.from_roots(roots, lead=2)
    assert rational_roots(p) == sorted(roots)


def _reference_int_divisors(m):
    m = abs(m)
    out = []
    i = 1
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            if i != m // i:
                out.append(m // i)
        i += 1
    return sorted(out)


def _reference_rational_roots(p):
    """Divisor-product search: every +-d(a0)/d(lc) tested in Fraction."""
    roots = []
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        roots.append(F(0))
        coeffs.pop(0)
    q = UniPoly.from_coeffs(coeffs).primitive()
    if q.degree < 1:
        return sorted(roots)
    candidates = set()
    for num in _reference_int_divisors(int(q.coeffs[0])):
        for den in _reference_int_divisors(int(q.lc)):
            candidates.add(F(num, den))
            candidates.add(F(-num, den))
    for r in sorted(candidates):
        while q.degree >= 1 and q.eval(r) == 0:
            roots.append(r)
            q = q.exact_div(UniPoly.from_coeffs([-r, 1]))
    return sorted(roots)


@st.composite
def _rooted_polys(draw):
    """Rational linear factors, some repeated, times an integer cofactor."""
    special = st.sampled_from([F(0), F(1), F(-1)])
    roots = draw(st.lists(st.one_of(special, st.fractions(min_value=-9, max_value=9,
                                                          max_denominator=6)),
                          max_size=4))
    if roots:
        roots += draw(st.lists(st.sampled_from(roots), max_size=2))
    lead = draw(st.fractions(min_value=-20, max_value=20, max_denominator=5))
    cofactor = UniPoly.from_coeffs(draw(st.lists(st.integers(-12, 12), min_size=1, max_size=3)))
    assume(lead != 0 and not cofactor.is_zero)
    return UniPoly.from_roots(roots, lead) * cofactor


@settings(max_examples=150, deadline=None)
@given(_rooted_polys())
@example(UniPoly.from_roots([F(2, 3)] * 3 + [F(-1, 2)] * 2, lead=5))
@example(UniPoly.from_roots([0, 0, 1, -1, 1], lead=-7))
@example(UniPoly.from_roots([F(-3, 4), F(5, 6)], lead=F(-2, 9)) * P(1, 0, 1))
@example(P(F(1, 2), F(-3, 7), F(5, 3)))
@example(P(-1, 0, 0, 0, 1))
def test_rational_roots_match_divisor_product_search(p):
    assert rational_roots(p) == _reference_rational_roots(p)


def test_rational_roots_fr1_degree_nine_denominator():
    # the gcd-reduced denominator of FR-1's stream quotient in chu_normalize
    p = P(1637344800, 10246676160, 28155201410, 44594872697, 44880614883,
          29768942817, 13016187567, 3618355050, 580412304, 40940640)
    expected = [F(-9, 4), F(-20, 9), F(-17, 9), F(-7, 4), F(-14, 9), F(-7, 6)]
    assert rational_roots(p) == sorted(expected)
    assert rational_roots(p.scale(F(-3, 5))) == sorted(expected)


def test_index_roots_on_a_progression():
    # roots -2, 1/2, 1, 3 (twice), 9 along 1 + 2j: the indices are 0, 1
    # and 4, each once; -2 lies behind the start and 1/2 between steps
    p = UniPoly.from_roots([-2, F(1, 2), 3, 3, 9, 1], lead=F(-5, 3))
    assert index_roots(p, 1, 2) == [0, 1, 4]
    assert index_roots(p) == [1, 3, 9]
    assert index_roots(p, F(1, 2), F(1, 2)) == [0, 1, 5, 17]
    assert index_roots(P(7)) == []
    with pytest.raises(ValueError, match="zero polynomial has all roots"):
        index_roots(UniPoly.zero())


# -- UniPoly ring structure ---------------------------------------------------

small_polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=8), max_size=5).map(
    UniPoly.from_coeffs
)


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_unipoly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + UniPoly.zero() == p
    assert p * UniPoly.one() == p


@settings(max_examples=60)
@given(small_polys, small_polys)
@example(P(1, 2, 1), P(1, 1))
def test_unipoly_divmod_identity(p, q):
    # the reference's division with remainder, and exact_div where the
    # remainder is zero; a nonzero remainder makes exact_div refuse
    if q.is_zero:
        with pytest.raises(ZeroDivisionError):
            p.exact_div(q)
        return
    quo, rem = _RefUni.of(p).divmod(_RefUni.of(q))
    assert quo * _RefUni.of(q) + rem == _RefUni.of(p)
    assert rem.degree < q.degree
    if rem.coeffs:
        with pytest.raises(ValueError, match="non-exact polynomial division"):
            p.exact_div(q)
    else:
        assert p.exact_div(q).coeffs == quo.coeffs


# -- MultiPoly ----------------------------------------------------------------


def test_multipoly_parser_roundtrip():
    p = MultiPoly.from_string("-3a^2 b + 1/2 k n^2 - 7 + c")
    point = {"a": 2, "b": 3, "c": 5, "k": 4, "n": 3}
    assert p.eval(point) == -3 * 4 * 3 + F(1, 2) * 4 * 9 - 7 + 5


def test_multipoly_parser_juxtaposition_spaces():
    assert MultiPoly.from_string("2 a b") == MultiPoly.from_string("2ab")
    assert MultiPoly.from_string("a b - a c") == (
        MultiPoly.var("a") * MultiPoly.var("b") - MultiPoly.var("a") * MultiPoly.var("c")
    )


def test_multipoly_shift_var():
    p = MultiPoly.from_string("n^2 + k")
    assert p.shift_var("n", 1) == MultiPoly.from_string("n^2 + 2n + 1 + k")


def test_multipoly_coeffs_in():
    p = MultiPoly.from_string("2k^2 n + k - 3")
    cs = p.coeffs_in("k")
    assert cs == [
        MultiPoly.const(-3),
        MultiPoly.one(),
        MultiPoly.from_string("2n"),
    ]


def test_theorem_style_evaluation_oracle():
    # [PAPER] the degree-4 recurrence coefficient evaluates to 2 when every
    # shift parameter is zero and the index is 1: only -2n^3 + 4n^4 survive.
    p1, p2, cert = quarter_dataset()
    zeros = {v: 0 for v in "abcdef"}
    assert p2.subst(zeros).eval({"n": 1}) == 2
    # [PAPER] the certificate at the same point is -1: the core collapses
    # to 3n^2 - 2n = 1 and the -n^2 prefactor gives -1.
    assert quotient_eval(cert, {**zeros, "n": 1, "k": 0}) == -1


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.fractions(min_value=-9, max_value=9, max_denominator=4)), max_size=4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.fractions(min_value=-9, max_value=9, max_denominator=4)), max_size=4),
)
def test_multipoly_mul_matches_eval(t1, t2):
    def build(ts):
        p = MultiPoly.zero()
        for ea, en, c in ts:
            p = p + MultiPoly.from_dict({(ea, 0, 0, 0, 0, 0, en, 0, 0): c})
        return p

    p, q = build(t1), build(t2)
    point = {"a": F(2, 3), "n": F(-3, 2)}
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)


# -- _primitive_pair -----------------------------------------------------------


def test_primitive_pair_content_reduction():
    n = MultiPoly.var("n")
    num, den = _primitive_pair(2 * (n * n), -4 * n)
    assert same_quotient((num, den), (-n, MultiPoly.const(2)))
    # content only: the shared factor n is not cancelled, and den's
    # leading coefficient turns positive
    assert num == -(n * n)
    assert den == 2 * n


# -- UniPoly.gcd and the integer coefficient lists it runs on -------------------

gcd_factors = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                       max_size=4).map(UniPoly.from_coeffs)


@settings(max_examples=80, deadline=None)
@given(gcd_factors, gcd_factors, gcd_factors)
@example(P(1, 1), P(2, 1), P(F(1, 2), 3))
@example(P(), P(), P(1, 1))
@example(P(3), P(), P())
def test_unipoly_gcd_is_monic_common_divisor(a, b, c):
    # a c and b c share the factor c, which the gcd must contain
    ac, bc = a * c, b * c
    g = ac.gcd(bc)
    assert g.coeffs == _RefUni.of(ac).gcd(_RefUni.of(bc)).coeffs
    assert g == bc.gcd(ac)
    if ac.is_zero and bc.is_zero:
        assert g.is_zero
        return
    assert g.lc == 1
    # exact_div raises unless g divides
    assert ac.exact_div(g) * g == ac
    assert bc.exact_div(g) * g == bc
    if not c.is_zero:
        assert g.exact_div(c) * c == g


_int_lists = st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=5).map(
    lambda cs: _zsub(cs, []))


@settings(max_examples=80, deadline=None)
@given(_int_lists, _int_lists, _int_lists)
def test_integer_lists_match_unipoly(a, b, c):
    ref = _RefUni.of
    assert ref(_zmul(a, b)) == ref(a) * ref(b)
    assert ref(_zsub(a, b)) == ref(a) - ref(b)
    assert _zsub(a, a) == []
    for x in (F(0), F(-3), F(2, 5), F(-7, 4)):
        scale = x.denominator ** max(len(a) - 1, 0)
        assert _zeval(a, x.numerator, x.denominator) == scale * ref(a).eval(x)
    if b:
        # an exact quotient in Z[x] comes back whole
        assert _zdiv(_zmul(_zsub(a, c), b), b) == _zsub(a, c)
        quo, rem = ref(a).divmod(ref(b))
        if rem.coeffs or any(q.denominator != 1 for q in quo.coeffs):
            with pytest.raises(ValueError, match="non-exact"):
                _zdiv(a, b)


# -- UniPoly against the reference ---------------------------------------------

_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=8)


def _is_normal(p):
    """Integer numerators, no trailing zero, positive denominator, jointly
    in lowest terms."""
    num, den = p.numerators, p.denominator
    return (all(isinstance(c, int) for c in num) and den > 0
            and (not num or (num[-1] != 0 and gcd(den, *num) == 1))
            and (num or den == 1))


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys, _fracs, st.integers(0, 3))
@example(P(), P(F(1, 2)), F(0), 0)
def test_unipoly_ring_ops_match_reference(p, q, c, e):
    rp, rq = _RefUni.of(p), _RefUni.of(q)
    for got, want in ((p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                      (p * q, rp * rq), (p.scale(c), rp * c), (p * c, rp * c),
                      (p ** e, rp ** e)):
        assert got.coeffs == want.coeffs
        assert _is_normal(got)


@settings(max_examples=80, deadline=None)
@given(small_polys, _fracs | st.integers(-20, 20))
@example(P(F(-1, 3), 0, F(5, 2)), 0)
@example(P(F(-1, 3), 0, F(5, 2)), F(-7, 2))
@example(P(), F(1, 2))
def test_unipoly_eval_matches_reference(p, x):
    got = p.eval(x)
    assert type(got) is Fraction and got == _RefUni.of(p).eval(F(x))


@settings(max_examples=80, deadline=None)
@given(small_polys, _fracs, _fracs.filter(bool))
@example(P(1, 2, 3), F(-1, 2), F(1))
def test_unipoly_shift_compose_derivative_match_reference(p, a, b):
    rp = _RefUni.of(p)
    assert p.shift(a).coeffs == rp.compose(a, 1).coeffs
    assert p.compose(a, b).coeffs == rp.compose(a, b).coeffs
    assert p.derivative().coeffs == rp.derivative().coeffs
    assert all(_is_normal(u) for u in (p.shift(a), p.compose(a, b), p.derivative()))


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys.filter(lambda q: not q.is_zero), small_polys)
@example(P(F(2, 3), 1), P(F(-1, 2), F(3, 4)), P(1))
def test_unipoly_exact_div_of_planted_products(p, q, noise):
    quo = (p * q).exact_div(q)
    assert quo == p and _is_normal(quo)
    rem = _RefUni.of(p * q + noise).divmod(_RefUni.of(q))[1]
    if rem.coeffs:
        with pytest.raises(ValueError, match="non-exact polynomial division"):
            (p * q + noise).exact_div(q)


@settings(max_examples=80, deadline=None)
@given(small_polys, small_polys)
@example(P(F(-6, 5), F(9, 10)), P())
def test_unipoly_content_primitive_gcd_match_reference(p, q):
    rp, rq = _RefUni.of(p), _RefUni.of(q)
    assert p.content() == rp.content()
    assert p.primitive().coeffs == rp.primitive().coeffs
    assert p.gcd(q).coeffs == rp.gcd(rq).coeffs
    assert p.lc == rp.lc


@settings(max_examples=80, deadline=None)
@given(st.lists(_fracs | st.integers(-50, 50), max_size=6))
@example([F(1, 2), F(0), 0])
@example([0, 0])
def test_unipoly_coeffs_round_trip(cs):
    p = UniPoly.from_coeffs(cs)
    assert p.coeffs == _RefUni.of(cs).coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert UniPoly.from_coeffs(p.coeffs) == p and _is_normal(p)
    assert [p.coeff(i) for i in range(-1, len(cs) + 1)] == (
        [F(0)] + [F(c) for c in cs] + [F(0)])


@settings(max_examples=80, deadline=None)
@given(st.lists(_fracs, max_size=4), _fracs.filter(bool))
@example([F(1, 2), F(1, 2), F(-3)], F(-4, 9))
def test_unipoly_equal_by_two_routes_hash_equal(roots, lead):
    # from_roots against the product of linear factors, and a round trip
    # through a scale
    by_roots = UniPoly.from_roots(roots, lead)
    by_product = UniPoly.from_coeffs([lead])
    for r in roots:
        by_product = by_product * UniPoly.from_coeffs([-r, 1])
    by_scale = by_roots.scale(F(3, 7)).scale(F(7, 3))
    assert by_roots == by_product == by_scale
    assert hash(by_roots) == hash(by_product) == hash(by_scale)
    assert len({by_roots, by_product, by_scale}) == 1
    want = _RefUni.of([lead])
    for r in roots:
        want = want * _RefUni.of([-r, 1])
    assert by_roots.coeffs == want.coeffs


@settings(max_examples=80, deadline=None)
@given(small_polys, st.sampled_from(["n", "k", "j"]))
def test_unipoly_multipoly_round_trip(p, name):
    m = MultiPoly.from_unipoly(p, name)
    assert m.as_unipoly(name) == p
    i = VARS.index(name)
    assert dict(m.terms) == {tuple(e if v == i else 0 for v in range(len(VARS))): c
                           for e, c in enumerate(_RefUni.of(p).coeffs) if c}


# -- decimal_text ----------------------------------------------------------------


@contextmanager
def _int_str_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40000).flatmap(lambda b: st.integers(-(2 ** b), 2 ** b)),
       st.integers(1, 20000).flatmap(lambda b: st.integers(1, 2 ** b)))
@example(2 ** 2000, 1)
@example(2 ** 2000 - 1, 10 ** 602)
@example(-(10 ** 4300), 10 ** 4301 + 1)
@example(0, 3)
def test_decimal_text_matches_str_of_any_size(n, d):
    with _int_str_limit(0):
        want_int, want_frac = str(n), str(F(n, d))
    assert decimal_text(n) == want_int
    assert decimal_text(F(n, d)) == want_frac


def test_decimal_text_ignores_and_keeps_the_int_str_limit():
    n = 7 ** 20000
    with _int_str_limit(0):
        want = str(n)
    with _int_str_limit(640):
        assert decimal_text(n) == want
        assert decimal_text(F(-1, n)) == "-1/" + want
        assert sys.get_int_max_str_digits() == 640


@pytest.mark.parametrize("base, e, s", [
    *((2, m, s) for m in (1999, 2000, 2001, 3999, 4000, 4001, 7999, 8000, 8001)
      for s in (-1, 0, 1)),
    *((10, k, s) for k in (602, 603, 1204, 1205, 2408, 2409, 4816, 4817)
      for s in (-1, 0, 1)),
])
def test_decimal_text_at_piece_and_power_boundaries(base, e, s):
    """2^m + s around the piece width and its doubles, where the split
    changes level, and 10^k + s, where the digit count changes."""
    n = base ** e + s
    with _int_str_limit(0):
        want = str(n)
    with _int_str_limit(640):
        assert decimal_text(n) == want
        assert decimal_text(-n) == "-" + want
        assert decimal_text(F(1, n)) == "1/" + want
