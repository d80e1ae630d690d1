"""Enclosure arithmetic, reference constants, and certified series sums."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperaccel.accelerator import ChuSeries, accelerated_stream
from hyperaccel.catalog import catalog_entries, entry
from hyperaccel.exact_arith import (UniPoly, _common_ints, _zeval, index_roots,
                                    rational_roots)
from hyperaccel.hypergeom_terms import (FamilyId, family_instantiate,
                                        k_ratio_at, k_shift_ratio)
from hyperaccel.numerics import (
    _SUM_WORK_CAP,
    BigFloat,
    ClosedForm,
    Enclosure,
    _bits_for,
    _GeometricSum,
    _atan_inv_scaled,
    _atanh_inv_scaled,
    _iroot,
    _log2,
    _narrow,
    _oracle_geometric,
    _pi,
    _pow10_ceil_exp,
    _root,
    _split,
    _stability_point,
    _values,
    chu_eval_terms,
    closedform_eval,
    default_term_budget,
    direct_sum,
    radii_within,
)
from hyperaccel.telescoper import derive_recurrence

from quotient_helpers import quotient_eval

F = Fraction

# [DERIVED] 50-digit truncations, pinned from an independent oracle run and
# re-derived here against the module's own cross-check formulas.
PI_50 = "3.14159265358979323846264338327950288419716939937510"
LOG2_50 = "0.69314718055994530941723212145817656807550013436025"
SQRT2_50 = "1.41421356237309504880168872420969807856967187537694"
SQRT3_50 = "1.73205080756887729352744634150587236694280525381038"
CBRT2_50 = "1.25992104989487316476721060727822835057025146470150"


def _dec(s: str) -> Fraction:
    whole, frac = s.split(".")
    return F(int(whole + frac), 10 ** len(frac))


def _window(s: str) -> tuple[Fraction, Fraction]:
    """Interval that provably contains the truncated constant."""
    lo = _dec(s)
    return lo, lo + F(1, 10 ** (len(s.split(".")[1])))


def _traps(enc: Enclosure, fixture: str) -> bool:
    lo, hi = _window(fixture)
    return enc.lo() <= hi and lo <= enc.hi()


def _rt1() -> ChuSeries:
    return ChuSeries(F(1, 4), (F(1, 3), F(1), F(5, 3)),
                     (F(7, 6), F(3, 2), F(11, 6)),
                     UniPoly.from_coeffs([2, 3]), UniPoly.one())


def _pm1() -> ChuSeries:
    return ChuSeries(F(1, 64), (F(1), F(1)), (F(5, 4), F(7, 4)),
                     UniPoly.from_coeffs([118, 297, 189]),
                     UniPoly.from_coeffs([2, 9, 9]))


def _n27_3() -> ChuSeries:
    return ChuSeries(F(-1, 27), (F(1, 2), F(1)), (F(4, 3), F(5, 3)),
                     UniPoly.from_coeffs([17, 28]), UniPoly.one())


# -- BigFloat ----------------------------------------------------------------


def _from_fraction(x: Fraction, precision: int = 64, mode: str = "nearest") -> BigFloat:
    return BigFloat.from_ratio(*x.as_integer_ratio(), precision, mode)


def test_bigfloat_requires_64_bits():
    with pytest.raises(ValueError, match="precision below 64 bits"):
        BigFloat(1, 0, 32)


def test_bigfloat_dyadic_round_trip():
    # [TRIVIAL] dyadic values survive conversion exactly
    x = F(-7, 256)
    assert _from_fraction(x, 64).to_fraction() == x


def test_bigfloat_rounding_modes_bracket():
    lo = _from_fraction(F(1, 3), 64, "floor").to_fraction()
    hi = _from_fraction(F(1, 3), 64, "ceil").to_fraction()
    assert lo < F(1, 3) < hi
    assert hi - lo == F(1, 2 ** 65)  # one ulp at this scale


@given(st.fractions(min_value=-9, max_value=9, max_denominator=997))
@settings(max_examples=60)
def test_bigfloat_nearest_within_half_ulp(x):
    bf = _from_fraction(x, 64)
    if x == 0:
        assert bf.to_fraction() == 0
    else:
        assert abs(bf.to_fraction() - x) <= abs(x) * F(1, 2 ** 64)


def _reference_from_fraction(x: Fraction, precision: int, mode: str) -> BigFloat:
    """The Fraction rounding that the integer-pair kernel replaced."""
    precision = max(64, precision)
    if x == 0:
        return BigFloat(0, 0, precision)
    ax = abs(x)
    e = ax.numerator.bit_length() - ax.denominator.bit_length()
    while F(2) ** e > ax:
        e -= 1
    while F(2) ** (e + 1) <= ax:
        e += 1
    shift = precision - 1 - e
    scaled = x * F(2) ** shift
    q, rem = divmod(scaled.numerator, scaled.denominator)
    if mode == "floor":
        m = q
    elif mode == "ceil":
        m = q + (1 if rem else 0)
    else:
        m = q + (1 if 2 * rem > scaled.denominator
                 or (2 * rem == scaled.denominator and q % 2) else 0)
    return BigFloat(m, -shift, precision)


def _reference_from_interval(lo: Fraction, hi: Fraction, precision: int) -> Enclosure:
    """The Fraction form of Enclosure.from_interval."""
    mid = (lo + hi) / 2
    center = _reference_from_fraction(mid, precision, "nearest")
    err = abs(center.to_fraction() - mid) + (hi - lo) / 2
    return Enclosure(center, _reference_from_fraction(err, 64, "ceil"))


_MODES = st.sampled_from(["nearest", "floor", "ceil"])


@given(st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40),
       st.integers(2, 10 ** 9), st.integers(-200, 200), _MODES,
       st.sampled_from([64, 65, 200]))
@settings(max_examples=300)
# ties at 64 bits: 2^64 + 1 and 2^64 + 3 have 65 bits ending in a half
@example(2 ** 64 + 1, 1, 3, 0, "nearest", 64)
@example(2 ** 64 + 3, 1, 3, 0, "nearest", 64)
@example(-(2 ** 64 + 3), 1, 3, -7, "nearest", 64)
@example(-(2 ** 64 + 1), 5, 6, 9, "ceil", 64)
@example(0, 7, 2, 3, "floor", 64)
def test_ratio_rounding_matches_fraction_rounding(n, d, g, shift, mode, precision):
    # (n g, d g) scaled by 2^shift, never reduced, against the reduced value
    x = F(n, d) * F(2) ** shift
    num, den = n * g << max(shift, 0), d * g << max(-shift, 0)
    got = BigFloat.from_ratio(num, den, precision, mode)
    assert got == _from_fraction(x, precision, mode)
    assert got == _reference_from_fraction(x, precision, mode)


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 30),
       st.integers(1, 10 ** 30), st.integers(2, 10 ** 9),
       st.sampled_from([64, 100]))
@settings(max_examples=200)
@example(5, 0, 4, 3, 64)
@example(1, 1, 3, 2, 64)
def test_enclosure_from_unreduced_pairs_matches_from_interval(mid, half, d, g,
                                                              precision):
    lo, hi = F(mid - half, d), F(mid + half, d)
    enc = Enclosure.from_ratio(mid * g, half * g, d * g, precision)
    want = Enclosure.from_interval(lo, hi, precision)
    assert (enc.lo(), enc.hi()) == (want.lo(), want.hi())
    assert enc == want == _reference_from_interval(lo, hi, precision)


def test_enclosure_from_ratio_rejects_negative_half_width():
    with pytest.raises(ValueError, match="empty interval"):
        Enclosure.from_ratio(1, -1, 3)


@given(st.integers(-10 ** 30, 10 ** 30).filter(bool),
       st.integers(-10 ** 30, 10 ** 30).filter(bool))
@settings(max_examples=60)
@example(2 ** 64 + 1, 2 ** 20)
@example(-(2 ** 63 + 1), 2 ** 20)
def test_enclosure_exact_matches_its_fraction_form(num, den):
    # a dyadic x that rounds to itself gets radius zero, others one ulp
    x = F(num, den)
    for precision in (64, 80):
        center = _reference_from_fraction(x, precision, "nearest")
        want = (Enclosure(center, BigFloat(0, 0, 64)) if center.to_fraction() == x
                else _reference_from_interval(x, x, precision))
        assert Enclosure.exact(x, precision) == want


@given(st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=6),
       st.integers(0, 500), st.integers(0, 40))
@settings(max_examples=100)
def test_leaf_values_match_horner(coeffs, lo, count):
    assert _values(coeffs, lo, lo + count) == [_zeval(coeffs, j)
                                                for j in range(lo, lo + count)]


@given(st.fractions(min_value=-9, max_value=9, max_denominator=499),
       st.fractions(min_value=-9, max_value=9, max_denominator=499))
@settings(max_examples=60)
def test_enclosure_interval_soundness(a, b):
    lo, hi = min(a, b), max(a, b)
    enc = Enclosure.from_interval(lo, hi, 64)
    assert enc.contains_value(lo) and enc.contains_value(hi)


@given(st.fractions(min_value=-5, max_value=5, max_denominator=99),
       st.fractions(min_value=-5, max_value=5, max_denominator=99),
       st.fractions(min_value=-5, max_value=5, max_denominator=99),
       st.fractions(min_value=-5, max_value=5, max_denominator=99))
@settings(max_examples=60)
def test_enclosure_product_soundness(a, b, c, d):
    e1 = Enclosure.from_interval(min(a, b), max(a, b), 64)
    e2 = Enclosure.from_interval(min(c, d), max(c, d), 64)
    assert (e1 * e2).contains_value(a * c)


def test_enclosure_even_power_straddles_zero():
    enc = Enclosure.from_interval(-2, 1, 64) ** 2
    assert enc.contains_value(0) and enc.contains_value(4)
    assert enc.lo() >= -F(1, 2 ** 40)


def test_enclosure_reciprocal_straddle_rejected():
    with pytest.raises(ZeroDivisionError, match="straddles zero"):
        Enclosure.from_interval(-1, 1, 64).reciprocal()


def test_enclosure_negative_radius_rejected():
    with pytest.raises(ValueError, match="negative radius"):
        Enclosure(BigFloat(1, 0, 64), BigFloat(-1, -10, 64))


def test_enclosure_decimal_format():
    assert Enclosure.exact(F(30)).decimal(5) == "30.00000 ± 0"
    text = _pi(30).decimal(25)
    assert text.startswith("3.1415926535897932384626434 ±"[:20])


# The Fraction endpoint arithmetic that the integer endpoints replaced,
# rounded by the Fraction rounding of _reference_from_interval.


def _ref_mul(a: Enclosure, b: Enclosure) -> Enclosure:
    prods = [a.lo() * b.lo(), a.lo() * b.hi(), a.hi() * b.lo(), a.hi() * b.hi()]
    return _reference_from_interval(min(prods), max(prods),
                                    max(a.center.precision, b.center.precision))


def _ref_reciprocal(a: Enclosure) -> Enclosure:
    lo, hi = a.lo(), a.hi()
    if lo <= 0 <= hi:
        raise ZeroDivisionError("interval straddles zero")
    return _reference_from_interval(1 / hi, 1 / lo, a.center.precision)


def _ref_pow(a: Enclosure, n: int) -> Enclosure:
    if n < 0:
        return _ref_reciprocal(_ref_pow(a, -n))
    if n == 0:
        return _reference_from_interval(F(1), F(1), a.center.precision)
    lo, hi = a.lo(), a.hi()
    ends = sorted((lo ** n, hi ** n))
    if n % 2 == 0 and lo <= 0 <= hi:
        ends[0] = F(0)
    return _reference_from_interval(ends[0], ends[1], a.center.precision)


def _ref_decimal(a: Enclosure, digits: int) -> str:
    c = a.center.to_fraction()
    scale = 10 ** digits
    x = c * scale
    q, rem = divmod(x.numerator, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and q % 2):
        q += 1
    body = str(abs(q)).rjust(digits + 1, "0")
    sign = "-" if q < 0 else ""
    text = f"{sign}{body[:-digits]}.{body[-digits:]}" if digits else f"{sign}{body}"
    err = a.radius.to_fraction() + abs(c - F(q, scale))
    if err == 0:
        return f"{text} ± 0"
    e = 0
    while F(10) ** (e - 1) >= err:
        e -= 1
    while F(10) ** e < err:
        e += 1
    return f"{text} ± 1e{e}"


def _result(f):
    """f(), or the message of the ZeroDivisionError it raises."""
    try:
        return f()
    except ZeroDivisionError as ex:
        return str(ex)


# centres and radii with their own exponents, so that radius 0, negative
# endpoints and intervals straddling or touching zero all occur
_MANTISSAS = st.integers(-2 ** 20, 2 ** 20) | st.integers(-2 ** 130, 2 ** 130)
_ENCLOSURES = st.builds(
    lambda m, e, p, r, er: Enclosure(BigFloat(m, e, p), BigFloat(r, er, 64)),
    _MANTISSAS, st.integers(-200, 60), st.sampled_from([64, 100]),
    st.just(0) | st.integers(1, 2 ** 20) | st.integers(1, 2 ** 70),
    st.integers(-260, 60))
_STRADDLE = Enclosure(BigFloat(-3, -2, 64), BigFloat(5, -1, 64))
_TOUCH = Enclosure(BigFloat(3, -4, 64), BigFloat(3, -4, 64))
_POINT = Enclosure(BigFloat(-(2 ** 70 + 1), -90, 100), BigFloat(0, 0, 64))
# 2.5 rounds to 2 at 0 digits; the radius 1 sums to 10^0 with _POINT's 0
_TIE = Enclosure(BigFloat(5, -1, 64), BigFloat(1, 0, 64))


@given(_ENCLOSURES, _ENCLOSURES)
@settings(max_examples=300)
@example(_STRADDLE, _TOUCH)
@example(_TOUCH, _POINT)
@example(_POINT, _POINT)
def test_enclosure_products_and_comparisons_match_fraction_endpoints(a, b):
    assert a * b == _ref_mul(a, b)
    for x, y in ((a, b), (b, a), (a, a)):
        assert x.overlaps(y) == (x.lo() <= y.hi() and y.lo() <= x.hi())
        assert x.contains(y) == (x.lo() <= y.lo() and y.hi() <= x.hi())


@given(_ENCLOSURES, st.integers(-4, 5), st.integers(0, 40))
@settings(max_examples=300)
@example(_STRADDLE, 2, 3)
@example(_STRADDLE, -3, 0)
@example(_TOUCH, 4, 5)
@example(_TOUCH, -1, 5)
@example(_POINT, -2, 30)
@example(_POINT, 0, 30)
@example(_TIE, 1, 0)
def test_enclosure_powers_and_decimals_match_fraction_endpoints(a, n, digits):
    assert _result(lambda: a ** n) == _result(lambda: _ref_pow(a, n))
    assert _result(a.reciprocal) == _result(lambda: _ref_reciprocal(a))
    assert a.decimal(digits) == _ref_decimal(a, digits)


@given(_ENCLOSURES, _ENCLOSURES, st.integers(-5, 80))
@settings(max_examples=200)
@example(_POINT, _POINT, 3)
@example(_TIE, _POINT, 0)
def test_radii_within_matches_fraction_sum(a, b, digits):
    total = a.radius.to_fraction() + b.radius.to_fraction()
    assert radii_within((a, b), digits) == (total <= F(10) ** -digits)
    assert radii_within((a,), digits) == (a.radius.to_fraction() <= F(10) ** -digits)


# -- Reference constants ------------------------------------------------------


def _pi_alt(digits: int) -> Enclosure:
    """Cross-check enclosure of pi from 8 atan(1/3) + 4 atan(1/7)."""
    pbits = _bits_for(digits)
    a3, e3 = _atan_inv_scaled(3, pbits)
    a7, e7 = _atan_inv_scaled(7, pbits)
    return _narrow(Enclosure.from_ratio(8 * a3 + 4 * a7, 8 * e3 + 4 * e7,
                                        1 << pbits, pbits), digits)


def _log2_alt(digits: int) -> Enclosure:
    """Cross-check enclosure of log 2 from 2 atanh(1/5) + 2 atanh(1/7)."""
    pbits = _bits_for(digits)
    a5, e5 = _atanh_inv_scaled(5, pbits)
    a7, e7 = _atanh_inv_scaled(7, pbits)
    return _narrow(Enclosure.from_ratio(2 * a5 + 2 * a7, 2 * e5 + 2 * e7,
                                        1 << pbits, pbits), digits)


def test_pi_fifty_digits():
    enc = _pi(50)
    assert enc.radius.to_fraction() <= F(1, 10 ** 50)
    assert _traps(enc, PI_50)


def test_pi_cross_check_formula():
    # [DERIVED] Machin combination against an independent arctangent pair
    assert _pi(120).overlaps(_pi_alt(120))


def test_pi_prefix_consistency():
    assert _pi(64).decimal(40) == _pi(100).decimal(40)


def test_pi_square_contains_pi_squared():
    assert (_pi(30) ** 2).contains(_pi(60) ** 2)


def test_log2_fifty_digits():
    enc = _log2(50)
    assert enc.radius.to_fraction() <= F(1, 10 ** 50)
    assert _traps(enc, LOG2_50)
    assert enc.overlaps(_log2_alt(50))


def test_sqrt2_fifty_digits():
    enc = _root(2, F(1, 2), 50)
    assert enc.radius.to_fraction() <= F(1, 10 ** 50)
    assert _traps(enc, SQRT2_50)
    assert (enc ** 2).contains_value(2)


def test_sqrt3_and_cbrt2():
    assert _traps(_root(3, F(1, 2), 50), SQRT3_50)
    cbrt = _root(2, F(1, 3), 50)
    assert _traps(cbrt, CBRT2_50)
    assert (cbrt ** 3).contains_value(2)


def test_root_integer_exponent_exact():
    enc = _root(2, 3, 20)
    assert enc.center.to_fraction() == 8 and enc.radius.mantissa == 0
    assert _root(3, -1, 20).contains_value(F(1, 3))


def test_root_negative_exponent():
    enc = _root(2, F(-4, 3), 30)
    assert (enc ** -3).contains_value(16)


@pytest.mark.parametrize("base, e", [(2, F(-4, 3)), (3, F(-1, 2)), (2, F(5, 3))])
def test_root_matches_fraction_endpoints(base, e):
    for digits in (20, 60):
        pbits = _bits_for(digits)
        m = _iroot(base ** abs(e.numerator) << (e.denominator * pbits), e.denominator)
        lo, hi = F(m, 2 ** pbits), F(m + 1, 2 ** pbits)
        if e < 0:
            lo, hi = 1 / hi, 1 / lo
        assert _root(base, e, digits) == _reference_from_interval(lo, hi, pbits)


def test_root_errors():
    with pytest.raises(ValueError, match="negative base"):
        _root(-2, F(1, 2), 10)
    with pytest.raises(ValueError, match="non-positive exponent"):
        _root(0, -1, 10)
    assert _root(0, F(1, 2), 10).center.mantissa == 0


def test_digits_cap():
    with pytest.raises(ValueError, match="digits above supported range"):
        closedform_eval(ClosedForm.make(1, exp_pi=1), 10001)


def test_refinement_nesting():
    assert _pi(20).contains(_pi(40))
    assert _log2(20).contains(_log2(40))
    assert _root(2, F(1, 2), 20).contains(_root(2, F(1, 2), 40))


# -- Closed forms -------------------------------------------------------------


def test_closedform_canonical_fold():
    cf = ClosedForm.make(F(315, 16), exp_pi=1, exp_2=F(-1, 2))
    assert cf.coeff == F(315, 32) and cf.exp_2 == F(1, 2)
    cf = ClosedForm.make(9, exp_pi=-1, exp_2=F(-4, 3), exp_3=F(1, 2))
    assert cf.coeff == F(9, 4) and cf.exp_2 == F(2, 3) and cf.exp_pi == -1


def test_closedform_zero_coeff_rejected():
    with pytest.raises(ValueError, match="zero coefficient"):
        ClosedForm(F(0))


def test_closedform_fractional_pi_exponent_rejected():
    with pytest.raises(ValueError, match="unsupported closed-form exponent"):
        closedform_eval(ClosedForm(F(1), exp_pi=F(1, 2)), 10)


def test_closedform_rational_is_exact():
    enc = closedform_eval(ClosedForm.make(30), 20)
    assert enc.center.to_fraction() == 30 and enc.radius.mantissa == 0


def test_closedform_five_pi_over_four_sqrt3():
    # [DERIVED] bound 5 pi / (4 sqrt 3) from the pinned digit windows
    enc = closedform_eval(ClosedForm.make(F(5, 4), exp_pi=1, exp_3=F(-1, 2)), 30)
    plo, phi = _window(PI_50)
    slo, shi = _window(SQRT3_50)
    assert enc.hi() >= F(5, 4) * plo / shi and enc.lo() <= F(5, 4) * phi / slo
    assert enc.radius.to_fraction() <= F(1, 10 ** 30)


def test_closedform_three_quarter_pi_squared():
    enc = closedform_eval(ClosedForm.make(F(3, 4), exp_pi=2), 20)
    plo, phi = _window(PI_50)
    assert enc.hi() >= F(3, 4) * plo * plo and enc.lo() <= F(3, 4) * phi * phi


def test_closedform_log2_multiple():
    enc = closedform_eval(ClosedForm.make(24, exp_log2=1), 30)
    llo, lhi = _window(LOG2_50)
    assert enc.hi() >= 24 * llo and enc.lo() <= 24 * lhi


def test_closedform_contains_higher_precision_center():
    cf = ClosedForm.make(F(9, 2), exp_3=F(1, 2), exp_pi=-1)
    low = closedform_eval(cf, 15)
    high = closedform_eval(cf, 30)
    assert low.contains_value(high.center.to_fraction())


_CLOSED_PINS = json.loads((Path(__file__).parent / "closedform_pins.json").read_text())


def _pin(enc: Enclosure) -> str:
    c, r = enc.center, enc.radius
    text = f"{c.mantissa} {c.exponent} {r.mantissa} {r.exponent}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("digits", [50, 300, 2000])
def test_closed_forms_match_pins(digits):
    """Centre and radius of every display's constant, pinned as a sha256 of
    their mantissas and exponents from the Fraction endpoint arithmetic at
    commit 0212ce0e738b474ca6f94dd1f08a8af219b1a3d4 by

        PYTHONPATH=src python -c "import hashlib, json
        from hyperaccel.catalog import catalog_entries
        from hyperaccel.numerics import closedform_eval
        def pin(x):
            c, r = x.center, x.radius
            return hashlib.sha256(f'{c.mantissa} {c.exponent} {r.mantissa} {r.exponent}'.encode()).hexdigest()
        es = [e for e in catalog_entries() if e.chu is not None and e.closed is not None]
        pins = {str(d): {e.id: pin(closedform_eval(e.closed, d)) for e in es}
                for d in (50, 300, 2000)}
        print(json.dumps(pins, indent=1))" > tests/closedform_pins.json
    """
    pins = _CLOSED_PINS[str(digits)]
    assert len(pins) == 95
    for rid, want in pins.items():
        assert _pin(closedform_eval(entry(rid).closed, digits)) == want, rid


def test_constants_are_memoized_in_a_bounded_cache():
    for const in (_pi, _log2):
        assert const(60) is const(60)
        assert const(60) == const.__wrapped__(60)
        size = const.cache_info().maxsize
        assert size is not None and size <= 16
        for digits in range(20, 23 + size):
            const(digits)
        assert const.cache_info().currsize <= size


# -- chu_eval_terms -----------------------------------------------------------


def test_chu_eval_rt1_matches_closed_form():
    # [DERIVED] series value against 5 pi / (4 sqrt 3) at 50 digits
    enc, _ = chu_eval_terms(_rt1(), 50)
    cf = closedform_eval(ClosedForm.make(F(5, 4), exp_pi=1, exp_3=F(-1, 2)), 50)
    assert enc.overlaps(cf)
    assert enc.radius.to_fraction() + cf.radius.to_fraction() <= F(1, 10 ** 48)


def test_chu_eval_first_term_of_rt1_is_two():
    assert _rt1().term(0) == 2


def test_chu_eval_pm1_fifty_digits_within_thirty_terms():
    enc, terms = chu_eval_terms(_pm1(), 50)
    assert terms <= 30
    assert enc.overlaps(closedform_eval(ClosedForm.make(6, exp_pi=2), 50))


def test_chu_eval_alternating_log2_series():
    enc, _ = chu_eval_terms(_n27_3(), 50)
    assert enc.overlaps(closedform_eval(ClosedForm.make(24, exp_log2=1), 50))


def test_chu_eval_z_zero_sums_first_term():
    s = ChuSeries(F(0), (F(1, 2),), (F(4, 3),),
                  UniPoly.from_coeffs([3, 1]), UniPoly.one())
    enc, terms = chu_eval_terms(s, 20)
    assert terms == 1 and enc.contains_value(3)


def test_chu_eval_divergent_rejected():
    s = ChuSeries(F(3, 2), (), (), UniPoly.one(), UniPoly.one())
    with pytest.raises(ValueError, match=r"\|z\| >= 1"):
        chu_eval_terms(s, 10)


def test_chu_eval_pole_in_lower_parameter():
    s = ChuSeries(F(1, 4), (F(1),), (F(-2),), UniPoly.one(), UniPoly.one())
    with pytest.raises(ValueError, match="pole of series term"):
        chu_eval_terms(s, 10)


def test_chu_eval_pole_in_polynomial_denominator():
    s = ChuSeries(F(1, 4), (F(1),), (F(5, 4),),
                  UniPoly.one(), UniPoly.from_roots([3]))
    with pytest.raises(ValueError, match="pole of series term"):
        chu_eval_terms(s, 10)


def test_chu_eval_term_cap():
    with pytest.raises(ValueError, match="requested digits unreachable"):
        chu_eval_terms(_rt1(), 50, max_terms=5)


def test_chu_eval_nested_refinement():
    e10, e20, e30 = (chu_eval_terms(_rt1(), d)[0] for d in (10, 20, 30))
    assert e10.contains(e20) and e20.contains(e30)
    assert e10.radius.to_fraction() > e20.radius.to_fraction() > e30.radius.to_fraction()
    assert e10.contains_value(e20.center.to_fraction())


def test_chu_eval_digits_per_term_rate_law():
    # [DERIVED] terms needed at 50 digits track digits / -log10 |z| closely
    s2764_2 = ChuSeries(F(27, 64), (F(5, 6), F(7, 6)), (F(5, 4), F(7, 4)),
                        UniPoly.from_coeffs([111, 256, 148]),
                        UniPoly.from_coeffs([1, 3, 2]))
    s1627_2 = ChuSeries(F(16, 27), (F(7, 12), F(5, 6), F(13, 12)),
                        (F(1), F(7, 3), F(5, 3)),
                        UniPoly.from_coeffs([113, 237, 99]), UniPoly.one())
    cases = [(_rt1(), F(1, 4)), (_n27_3(), F(1, 27)), (_pm1(), F(1, 64)),
             (s2764_2, F(27, 64)), (s1627_2, F(16, 27))]
    for series, rate in cases:
        _, t50 = chu_eval_terms(series, 50, max_terms=800)
        _, t25 = chu_eval_terms(series, 25, max_terms=800)
        per_digit = 1 / -math.log10(float(rate))
        # the additive constant cancels in the difference; it stays small
        assert abs((t50 - t25) - 25 * per_digit) <= 5, (rate, t50, t25)
        assert abs(t50 - 50 * per_digit) <= 5 + 25, (rate, t50)


# -- chu_eval_terms against the running-Fraction reference -------------------


def _reference_eval_terms(s: ChuSeries, digits: int, max_terms=None):
    """The summation loop chu_eval_terms replaced: a running Fraction sum
    with the same stability point, tail rule and term cap (by default
    default_term_budget's), and the same finite-sum fallback for series
    the tail rule cannot bound within the cap."""
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
    cap = default_term_budget(s.z, digits) if max_terms is None else max_terms
    tol = F(1, 2 * 10 ** digits)
    pbits = _bits_for(digits)
    if s.z == 0:
        t0 = s.term(0)
        return Enclosure.from_interval(t0, t0, pbits), 1
    num_j, den_j = s.ratio_parts()
    j1 = (_stability_point(num_j, den_j, cap)
          if num_j.degree <= den_j.degree else None)
    if j1 is not None:
        lim = abs(num_j.lc / den_j.lc) if num_j.degree == den_j.degree else F(0)
        zpow, poch, partial = F(1), F(1), F(0)
        j = 0
        while j <= cap:
            t = zpow * poch * s.num.eval(j) / s.den.eval(j)
            if j >= j1:
                rbar = max(abs(num_j.eval(j) / den_j.eval(j)), lim)
                if rbar < 1:
                    bound = abs(t) / (1 - rbar)
                    if bound <= tol:
                        enc = Enclosure.from_interval(partial - bound,
                                                      partial + bound, pbits)
                        return enc, j
            partial += t
            for u in s.upper:
                poch *= u + j
            for l in s.lower:
                poch /= l + j
            zpow *= s.z
            j += 1
    # finite through an upper parameter -m: the exact sum over j <= m
    ms = [int(-u) for u in s.upper if u.denominator == 1 and u <= 0]
    if not ms or min(ms) + 1 > cap:
        raise ValueError("requested digits unreachable")
    zpow, poch, total = F(1), F(1), F(0)
    for j in range(min(ms) + 1):
        total += zpow * poch * s.num.eval(j) / s.den.eval(j)
        for u in s.upper:
            poch *= u + j
        for l in s.lower:
            poch /= l + j
        zpow *= s.z
    return Enclosure.from_interval(total, total, pbits), min(ms) + 1


def _outcome(evaluate, s: ChuSeries, digits: int, max_terms=None):
    """Exact enclosure endpoints and term count, or the error raised."""
    try:
        enc, terms = evaluate(s, digits, max_terms)
    except ValueError as ex:
        return str(ex)
    return enc.lo(), enc.hi(), terms


def _same_as_reference(s: ChuSeries, digits: int, max_terms=None):
    got = _outcome(chu_eval_terms, s, digits, max_terms)
    assert got == _outcome(_reference_eval_terms, s, digits, max_terms)
    return got


def test_chu_eval_matches_reference_on_every_display():
    displays = [e for e in catalog_entries() if e.chu is not None]
    assert len(displays) == 95
    for e in displays:
        got = _same_as_reference(e.chu, 60)
        assert not isinstance(got, str), e.id


_PARAM = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _chu_series(draw):
    z = draw(st.fractions(min_value=-1, max_value=1, max_denominator=12)
             .filter(lambda x: abs(x) < 1))
    upper = tuple(draw(st.lists(_PARAM, max_size=3)))
    lower = tuple(draw(st.lists(
        _PARAM.filter(lambda x: x.denominator > 1 or x > 0), max_size=3)))
    num = UniPoly.from_coeffs(draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        min_size=1, max_size=3).filter(lambda cs: cs[-1] != 0)))
    root = draw(st.none() | st.integers(min_value=0, max_value=6))
    if root is not None:
        num = num * UniPoly.from_roots([root])
    den = UniPoly.from_coeffs(draw(st.lists(
        st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4),
        min_size=1, max_size=3)))
    return ChuSeries(z, upper, lower, num, den)


# J == J1 == 1: the first term after j = 0 already meets the tail rule
_FIRST_STOP = ChuSeries(F(1, 10 ** 6), (F(1),), (F(2),),
                        UniPoly.one(), UniPoly.one())
# terminating through the upper parameter -2, and num vanishing at j = 1
_TERMINATING = ChuSeries(F(-3, 4), (F(-2), F(1, 3)), (F(5, 2), F(7, 4)),
                         UniPoly.from_roots([1], 3),
                         UniPoly.from_coeffs([1, 2]))


@given(_chu_series(), st.integers(min_value=1, max_value=25))
@settings(max_examples=80, deadline=None)
@example(_FIRST_STOP, 3)
@example(_TERMINATING, 12)
# more upper than lower parameters: finite through -3, summed exactly
@example(ChuSeries(F(1, 2), (F(-3),), (), UniPoly.one(), UniPoly.one()), 5)
@example(ChuSeries(F(0), (F(1, 2),), (F(4, 3),), UniPoly.from_coeffs([3, 1]),
                   UniPoly.one()), 5)
# z and a(j)/b(j) far below the smallest float: the stop index is predicted
# from logarithms of integers
@example(ChuSeries(F(1, 10 ** 400), (F(1, 2),), (F(3, 2),), UniPoly.one(),
                   UniPoly.from_coeffs([10 ** 400, 1])), 20)
# the leaf p(4) = 0 lies before the stop index 8: every later term is zero
@example(ChuSeries(F(1, 3), (F(-4), F(1, 2)), (F(3, 2), F(5, 4)),
                   UniPoly.one(), UniPoly.one()), 10)
# num = (3j + 2)(j - 9) vanishes at j = 9, where the same series without
# the factor j - 9 stops at 5 digits; the term quotient's denominator
# carries num(j), so the stability point moves to 16 and the leaf
# a(9) = 0 falls inside the product tree
@example(ChuSeries(F(1, 4), (F(1, 3), F(1), F(5, 3)), (F(7, 6), F(3, 2), F(11, 6)),
                   UniPoly.from_coeffs([2, 3]) * UniPoly.from_roots([9]),
                   UniPoly.one()), 5)
def test_chu_eval_matches_reference_on_random_series(s, digits):
    _same_as_reference(s, digits)


def test_chu_eval_stop_at_stability_point():
    j1 = _stability_point(*_FIRST_STOP.ratio_parts(), 30)
    assert _same_as_reference(_FIRST_STOP, 3)[2] == j1 == 1


def test_chu_eval_terminating_series_is_exact_sum():
    lo, hi, terms = _same_as_reference(_TERMINATING, 12)
    assert lo <= sum(_TERMINATING.term(j) for j in range(3)) <= hi
    assert terms >= 3 and _TERMINATING.term(terms) == 0


def test_chu_eval_term_cap_boundary_matches_reference():
    cases = ((_rt1(), 50), (_n27_3(), 40), (entry("FR-2").chu, 30))
    for s, digits in cases:
        _, _, j = _same_as_reference(s, digits, 1000)
        assert _same_as_reference(s, digits, j)[2] == j
        short = _same_as_reference(s, digits, j - 1)
        assert short == "requested digits unreachable"
    # below its stop index J = 4 the terminating series falls back to its
    # exact 3-term sum, which a cap of 2 cannot hold
    _, _, j = _same_as_reference(_TERMINATING, 12, 1000)
    assert j == 4
    lo, hi, terms = _same_as_reference(_TERMINATING, 12, 3)
    assert terms == 3 and lo <= sum(_TERMINATING.terms(3)) == F(-40329, 13475) <= hi
    assert _same_as_reference(_TERMINATING, 12, 2) == "requested digits unreachable"


def _geometric_sum(s: ChuSeries, digits: int, cap: int) -> _GeometricSum:
    """The geometric sum chu_eval_terms sets up for s."""
    num_j, den_j = s.ratio_parts()
    p, q = _common_ints([UniPoly.from_roots([-u for u in s.upper], s.z),
                         UniPoly.from_roots([-l for l in s.lower])])
    rn, rd = _common_ints([num_j, den_j])
    return _GeometricSum(p, q, s.num.numerators, s.den.numerators,
                         F(s.den.denominator, s.num.denominator), rn, rd,
                         abs(num_j.lc / den_j.lc), _stability_point(num_j, den_j, cap),
                         cap, F(1, 2 * 10 ** digits))


def _plain_split(pv, qv, av, bv, lo, hi):
    """The product tree with no content cancelled: the reference for
    _split."""
    if hi - lo == 1:
        return pv[lo], qv[lo], bv[lo], av[lo] * qv[lo]
    mid = (lo + hi) // 2
    p1, q1, b1, t1 = _plain_split(pv, qv, av, bv, lo, mid)
    p2, q2, b2, t2 = _plain_split(pv, qv, av, bv, mid, hi)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200).flatmap(
    lambda n: st.lists(st.integers(-60, 60), min_size=4 * n, max_size=4 * n)))
@example([6, -4, 3, 3] * 40 + [0, -4, 3, 3] + [-10, -4, -5, 3] * 59)
@example([2 ** 40, 12, 1, -7] * 64)
def test_split_cancels_content_without_changing_values(vals):
    # leaves p(j), q(j), a(j), b(j) interleaved; q and b must not vanish,
    # so a drawn 0 reads as 61 there
    pv, av = vals[0::4], vals[2::4]
    qv, bv = ([x or 61 for x in vals[i::4]] for i in (1, 3))
    n = len(pv)
    got, want = _split(pv, qv, av, bv, 0, n), _plain_split(pv, qv, av, bv, 0, n)
    (p, q, b, t), (p0, q0, b0, t0) = got, want
    assert F(p, q) == F(p0, q0)
    assert F(t, b * q) == F(t0, b0 * q0)
    for x, x0 in zip((p, q, t), (p0, q0, t0)):
        assert abs(x).bit_length() <= abs(x0).bit_length()


def test_split_keeps_fr2_a_quarter_of_the_unreduced_size():
    # FR-2 at 300 digits sums J = 4070 terms; over [0, J) the reduced T
    # had 24266 bits against 149212 when the cancellation was introduced
    digits = 300
    s = entry("FR-2").chu
    cap = default_term_budget(s.z, digits)
    g = _geometric_sum(s, digits, cap)
    _, j = g.confirm(g.predict(), _bits_for(digits))
    t = _split(*g.leaves, 0, j)[3]
    t0 = _plain_split(*g.leaves, 0, j)[3]
    assert 4 * abs(t).bit_length() <= abs(t0).bit_length()


@pytest.mark.parametrize("s, digits", [(_rt1(), 50), (entry("FR-2").chu, 30),
                                       (_TERMINATING, 12)],
                         ids=["RT1", "FR-2", "terminating"])
def test_confirmation_recovers_the_stop_index_from_any_prediction(s, digits):
    # too early, exact and too late by 5; from the late guess the rule
    # already holds at J + 4, so the search restarts from j0
    lo, hi, j = _same_as_reference(s, digits, 1000)
    g = _geometric_sum(s, digits, 1000)
    assert g.predict() == j
    for guess in (j - 5, j, j + 5):
        enc, got = g.confirm(guess, _bits_for(digits))
        assert (enc.lo(), enc.hi(), got) == (lo, hi, j), guess


def test_chu_eval_digits_cap():
    with pytest.raises(ValueError, match="digits above supported range"):
        chu_eval_terms(_rt1(), 10001)


# -- direct_sum on summands ---------------------------------------------------


def _quarter_series_instance():
    params = [F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3)]
    return family_instantiate(FamilyId.QUARTER, params)


def test_oracle_matches_accelerated_stream():
    # [DERIVED] unaccelerated sum against the telescoped stream total
    term = _quarter_series_instance()
    enc = direct_sum(*k_ratio_at(k_shift_ratio(term), 1), 4)
    stream = accelerated_stream(term, derive_recurrence(term), 1)
    assert enc.contains_value(sum(stream.take(60), F(0)))


def test_oracle_alternating_instance():
    term = family_instantiate(FamilyId.NEG_QUARTER, [F(2, 3), F(1), F(-1, 3)])
    enc = direct_sum(*k_ratio_at(k_shift_ratio(term), F(2, 3)), 5)
    stream = accelerated_stream(term, derive_recurrence(term, shifts=(2,)), F(2, 3))
    assert enc.contains_value(sum(stream.take(60), F(0)))


def test_oracle_terminating_binomial_sum():
    # [TRIVIAL] independent exact replay of the finite sum
    term = family_instantiate(FamilyId.SIXTEEN_27_A, [F(-1), F(1, 2)])
    enc = direct_sum(*k_ratio_at(k_shift_ratio(term), 4), 6)
    rho = k_shift_ratio(term)
    total, t = F(0), F(1)
    for k in range(8):
        total += t
        t *= quotient_eval(rho, {"n": F(4), "k": F(k)})
    assert enc.contains_value(total)
    assert enc.radius.to_fraction() <= F(1, 10 ** 18)


def test_oracle_terminating_sum_matches_running_fraction_sum():
    # the stop grows with n: 1002 terms at n = 1001, as the vanishing
    # check meets them at large start points
    term = family_instantiate(FamilyId.SIXTEEN_27_A, [F(-100), F(1, 2)])
    num, den = k_ratio_at(k_shift_ratio(term), 1001)
    total, t = F(0), F(1)
    for k in range(index_roots(num)[0] + 1):
        total += t
        t *= num.eval(k) / den.eval(k)
    assert index_roots(num)[0] == 1001
    assert direct_sum(num, den, 2) == Enclosure.exact(total)


def test_oracle_digits_capped_at_six():
    term = _quarter_series_instance()
    with pytest.raises(ValueError, match="oracle unavailable"):
        direct_sum(*k_ratio_at(k_shift_ratio(term), 1), 12)


def test_oracle_rejects_nonconvergent_point():
    # decay exponent 2 n - 1/3 drops to 2/3 at n = 1/2: no convergence
    term = _quarter_series_instance()
    with pytest.raises(ValueError, match="oracle unavailable"):
        direct_sum(*k_ratio_at(k_shift_ratio(term), F(1, 2)), 3)


def test_oracle_refinement_consistent():
    term = _quarter_series_instance()
    rough = direct_sum(*k_ratio_at(k_shift_ratio(term), 1), 3)
    fine = direct_sum(*k_ratio_at(k_shift_ratio(term), 1), 5)
    assert rough.contains_value(fine.center.to_fraction())


def _reference_oracle_geometric(num, den, lim, tol):
    """The running-Fraction loop _oracle_geometric replaced."""
    j1 = _stability_point(num, den, 4000)
    total, t = F(0), F(1)
    k = 0
    while k <= 4000:
        if k >= j1:
            rbar = max(abs(num.eval(k) / den.eval(k)), lim)
            if rbar < 1:
                bound = abs(t) / (1 - rbar)
                if bound <= tol:
                    return Enclosure.from_interval(total - bound,
                                                   total + bound)
        total += t
        t *= num.eval(k) / den.eval(k)
        k += 1
    raise ValueError("oracle unavailable")


@pytest.mark.parametrize("n0", [F(1, 2), F(3, 2), F(-1, 3)])
def test_oracle_geometric_matches_reference(n0):
    # FR-2's recipe; its unaccelerated term quotient tends to -4/27 or 4/27
    term = family_instantiate(FamilyId.TWENTY7_32, [F(1), F(1, 2)])
    num, den = k_ratio_at(k_shift_ratio(term), n0)
    lim = abs(num.lc / den.lc)
    assert num.degree == den.degree and lim < 1
    for digits in (1, 4, 6):
        tol = F(1, 2 * 10 ** digits)
        got = _oracle_geometric(num, den, lim, tol)
        want = _reference_oracle_geometric(num, den, lim, tol)
        assert (got.lo(), got.hi()) == (want.lo(), want.hi())


# -- decimal error exponents and the summation work budget ---------------------


@settings(max_examples=100)
@given(st.integers(1, 6000).flatmap(lambda b: st.integers(1, 2 ** b)),
       st.integers(1, 6000).flatmap(lambda b: st.integers(1, 2 ** b)))
@example(10 ** 5000, 1)
@example(1, 10 ** 5000)
@example(10 ** 4300 + 1, 1)
@example(1, 3)
def test_pow10_ceil_exp_is_the_smallest_cover(num, den):
    x = F(num, den)
    e = _pow10_ceil_exp(num, den)
    assert x <= F(10) ** e
    assert x > F(10) ** (e - 1)


_PINS = json.loads((Path(__file__).parent / "stop_index_pins.json").read_text())
_SERIES_PINS = json.loads((Path(__file__).parent / "series_pins.json").read_text())
_LONGEST = ("FR-2", "S1627-1", "S1627-2", "S1627-3", "S1627-4", "S2764-1")


@pytest.mark.parametrize("digits", [50, 300, 2000])
def test_stop_indices_match_pins(digits):
    """Terms summed for each display at its default cap, as check-all
    prints them, pinned from the term-by-term stop search at commit
    62060736b0d5dd06924a709d0b8c72499b09fc7a by

        PYTHONPATH=src python -c "import json
        from hyperaccel.catalog import catalog_entries, verify_entry
        ids = [e.id for e in catalog_entries() if e.chu is not None]
        pins = {str(d): {i: verify_entry(i, d).terms_used for i in ids}
                for d in (50, 300, 2000)}
        print(json.dumps(pins, indent=1))" > tests/stop_index_pins.json

    and the series enclosure of each, centre and radius, pinned as a
    sha256 of their mantissas and exponents from the unreduced product
    tree at commit 4182a409921e91680d06a68001c8a6724e73fb8f by

        PYTHONPATH=src python -c "import hashlib, json
        from hyperaccel.catalog import catalog_entries, verify_entry
        def pin(x):
            c, r = x.center, x.radius
            return hashlib.sha256(f'{c.mantissa} {c.exponent} {r.mantissa} {r.exponent}'.encode()).hexdigest()
        ids = [e.id for e in catalog_entries() if e.chu is not None]
        longest = ('FR-2', 'S1627-1', 'S1627-2', 'S1627-3', 'S1627-4', 'S2764-1')
        pins = {str(d): {i: pin(verify_entry(i, d).lhs) for i in (longest if d == 2000 else ids)}
                for d in (50, 300, 2000)}
        print(json.dumps(pins, indent=1))" > tests/series_pins.json

    All 95 displays at 50 and 300 digits; at 2000 digits the six longest
    sums only, which keeps the suite fast.
    """
    pins, encs = _PINS[str(digits)], _SERIES_PINS[str(digits)]
    assert len(pins) == 95
    assert len(encs) == (len(_LONGEST) if digits == 2000 else 95)
    for rid in _LONGEST if digits == 2000 else pins:
        chu = entry(rid).chu
        enc, terms = chu_eval_terms(chu, digits)
        assert terms == pins[rid], rid
        assert _pin(enc) == encs[rid], rid


def test_summation_work_budget_boundary():
    digits = 50
    cap = math.isqrt(_SUM_WORK_CAP)
    while cap * (cap + digits) > _SUM_WORK_CAP:
        cap -= 1
    _, terms = chu_eval_terms(_rt1(), digits, cap)
    assert terms < cap
    with pytest.raises(ValueError, match="summation work above supported range"):
        chu_eval_terms(_rt1(), digits, cap + 1)


@pytest.mark.parametrize("digits", [4265, 5000])
def test_default_cap_keeps_within_the_work_budget(digits):
    # the default cap follows the digit gain of z: Q1's (z = 1/4, 8300
    # terms at 5000 digits) stays within the work budget, while FR-2's
    # (z = 27/32) exceeds it from about 3400 digits on and is refused
    # before any summing, as an explicit cap above the budget is
    q1, fr2 = entry("Q1").chu, entry("FR-2").chu
    cap = default_term_budget(q1.z, digits)
    assert cap * (cap + digits) <= _SUM_WORK_CAP
    enc, terms = chu_eval_terms(q1, digits)
    assert terms < cap
    assert enc.radius.to_fraction() <= F(1, 10 ** digits)
    explicit, same = chu_eval_terms(q1, digits, terms)
    assert (same, explicit.lo(), explicit.hi()) == (terms, enc.lo(), enc.hi())
    cap = default_term_budget(fr2.z, digits)
    assert cap * (cap + digits) > _SUM_WORK_CAP
    with pytest.raises(ValueError, match=f"^summation work above supported range:"
                                         f" {cap} terms at {digits} digits$"):
        chu_eval_terms(fr2, digits)
    with pytest.raises(ValueError, match="summation work above supported range"):
        chu_eval_terms(q1, digits, 10 * digits)


def test_summation_work_budget_admits_the_catalog_at_2000_digits():
    for e in catalog_entries():
        if e.chu is not None:
            cap = default_term_budget(e.chu.z, 2000)
            assert cap * (cap + 2000) <= _SUM_WORK_CAP, e.id
