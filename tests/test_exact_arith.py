"""Exact-arithmetic core: fixed oracles plus algebraic property tests."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperaccel.builtin_data import quarter_dataset
from hyperaccel.exact_arith import (
    MultiPoly,
    NRat,
    RatFunc,
    UniPoly,
    rational_roots,
)

F = Fraction


def P(*coeffs):
    return UniPoly.from_coeffs(coeffs)


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
def test_unipoly_divmod_identity(p, q):
    if q.is_zero:
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


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
    assert cert.eval({**zeros, "n": 1, "k": 0}) == -1


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


# -- RatFunc ------------------------------------------------------------------


def test_ratfunc_content_reduction():
    n = MultiPoly.var("n")
    rf = RatFunc.new(2 * (n * n), 4 * n)
    half_n = RatFunc.new(n, MultiPoly.const(2))
    assert rf.equals(half_n)
    # content-only: the shared factor n is not cancelled
    assert rf.num == n * n
    assert rf.den == 2 * n


def test_ratfunc_eval_pole():
    n = MultiPoly.var("n")
    rf = RatFunc.new(MultiPoly.one(), n)
    with pytest.raises(ZeroDivisionError, match="pole"):
        rf.eval({"n": 0})


def test_ratfunc_eval_unbound():
    rf = RatFunc.new(MultiPoly.var("a"), MultiPoly.one())
    with pytest.raises(ValueError, match="unbound variable"):
        rf.eval({"n": 1})


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc.new(MultiPoly.one(), MultiPoly.zero())


@settings(max_examples=40)
@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=5),
)
def test_ratfunc_field_ops_match_eval(c1, c2, c3, c4):
    n, k = MultiPoly.var("n"), MultiPoly.var("k")
    r1 = RatFunc.new(n * c1 + MultiPoly.const(c2), n * n + MultiPoly.one())
    r2 = RatFunc.new(k * c3 + MultiPoly.const(1), k * k + MultiPoly.const(c4 * c4) + MultiPoly.one())
    point = {"n": F(3, 7), "k": F(-2, 5)}
    s = (r1 + r2).eval(point)
    p = (r1 * r2).eval(point)
    assert s == r1.eval(point) + r2.eval(point)
    assert p == r1.eval(point) * r2.eval(point)


def test_ratfunc_equality_cross_multiplication():
    n = MultiPoly.var("n")
    a = RatFunc.new(n * n - MultiPoly.one(), n - MultiPoly.one())
    b = RatFunc.new(n + MultiPoly.one(), MultiPoly.one())
    assert a.equals(b)
    assert not a.equals(RatFunc.new(n, MultiPoly.one()))


# -- NRat ---------------------------------------------------------------------


def test_nrat_full_reduction():
    x = UniPoly.x()
    r = NRat.new(x * x - UniPoly.one(), x - UniPoly.one())
    assert r.num == x + UniPoly.one()
    assert r.den == UniPoly.one()


@settings(max_examples=40)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=3),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=3),
)
def test_nrat_ops_match_eval(cs1, cs2):
    p1 = UniPoly.from_coeffs(cs1)
    p2 = UniPoly.from_coeffs(cs2 + [1])
    r1 = NRat.new(p1, p2)
    r2 = NRat.new(p2, UniPoly.from_coeffs([1, 1]))
    # the poles are the roots of p2 (at most three) and of x + 1 (at -1),
    # so one of the four points is off them
    x = next(x for x in (F(5, 3), F(7, 4), F(11, 5), F(13, 6)) if p2.eval(x) != 0)
    assert (r1 + r2).eval(x) == r1.eval(x) + r2.eval(x)
    assert (r1 * r2).eval(x) == r1.eval(x) * r2.eval(x)


# -- UniPoly over NRat (the solver's polynomials in k) --------------------------

small_ints = st.lists(st.integers(-4, 4), max_size=3)
nrats = st.builds(
    lambda num, den: NRat.new(UniPoly.from_coeffs(num), UniPoly.from_coeffs(den + [1])),
    small_ints, small_ints)
nrat_polys = st.lists(nrats, max_size=4).map(UniPoly.from_coeffs)
nrat_factors = st.lists(nrats, max_size=3).map(UniPoly.from_coeffs)
NR1 = NRat.const(1)


@settings(max_examples=50, deadline=None)
@given(nrat_polys, nrat_polys)
def test_nrat_poly_divmod_identity(a, b):
    if b.is_zero:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


@settings(max_examples=50, deadline=None)
@given(nrat_factors, nrat_factors, nrat_factors)
def test_nrat_poly_gcd_is_monic_common_divisor(a, b, c):
    # a c and b c share the factor c, which the gcd must contain
    ac, bc = a * c, b * c
    g = ac.gcd(bc)
    if ac.is_zero and bc.is_zero:
        assert g.is_zero
        return
    assert g.lc == NR1
    assert ac.divmod(g)[1].is_zero
    assert bc.divmod(g)[1].is_zero
    if not c.is_zero:
        assert g.divmod(c)[1].is_zero


@settings(max_examples=50, deadline=None)
@given(nrat_polys, st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_nrat_poly_shift_roundtrip(p, s):
    assert p.shift(s).shift(-s) == p


def test_nrat_scalar_product_keeps_normal_form():
    r = NRat.new(P(1, 2), P(3, 6, 9))
    for c in (F(-3, 4), 5, F(1, 7)):
        assert r * c == NRat.new(r.num.scale(c), r.den)
        assert (r * c).den == r.den
    assert (r * 0).is_zero and not r * 0
