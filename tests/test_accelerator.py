"""Tests for accelerated stream generation and bracket normal form."""

import math
import random
from fractions import Fraction as F
from itertools import count, islice

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from hyperaccel import accelerator, exact_arith, hypergeom_terms, numerics
from hyperaccel.accelerator import (
    AccelStream,
    ChuSeries,
    accelerated_stream,
    chu_normalize,
    convergence_rate,
    k_series_at,
    stream_proportional,
    vanishing_check,
)
from hyperaccel.catalog import catalog_entries
from hyperaccel.exact_arith import Affine, MultiPoly, UniPoly
from hyperaccel.hypergeom_terms import (FamilyId, family_instantiate, k_shift_ratio,
                                        n_shift_ratio)
from hyperaccel.numerics import direct_sum
from hyperaccel.telescoper import Recurrence, derive_recurrence, zeilberger_two_term

import oracle_reference
from control_summands import family_point
from multipoly_helpers import poly_grid, symbolic
from quotient_helpers import quotient_eval, same_quotient


def _instance(family: FamilyId, params, r: int):
    term = family_instantiate(family, [F(p) for p in params])
    rec = zeilberger_two_term(term, r)
    assert rec is not None
    return term, rec


def _quarter_example():
    return _instance(FamilyId.QUARTER, ["1/3", "1/3", "1", "1/3", "1/3", "2/3"], 1)


def _neg_quarter_example():
    return _instance(FamilyId.NEG_QUARTER, ["2/3", "1", "-1/3"], 2)


def _neg_27_example():
    return _instance(FamilyId.NEG_27, ["1/2", "0", "-1/2", "0"], 1)


_UNIT_CERT = (((1,),), ((1,),))


def _fake_rec(g2: F, r: int = 1) -> Recurrence:
    return Recurrence(r=r, p1=UniPoly.from_coeffs([-g2]), p2=UniPoly.one(),
                      cert=_UNIT_CERT)


def _upoly(coeffs) -> UniPoly:
    return UniPoly.from_coeffs([F(c) for c in coeffs])


# ---------------------------------------------------------------------------
# Convergence rate
# ---------------------------------------------------------------------------


def test_rate_quarter_family():
    _, rec = _quarter_example()
    assert convergence_rate(rec) == F(1, 4)


def test_rate_neg_quarter_family():
    _, rec = _neg_quarter_example()
    assert convergence_rate(rec) == F(-1, 4)


def test_rate_neg_27_family():
    _, rec = _neg_27_example()
    assert convergence_rate(rec) == F(-1, 27)


def test_rate_zero_when_p1_degree_smaller():
    rec = Recurrence(r=1, p1=_upoly([3]), p2=_upoly([1, 2]), cert=_UNIT_CERT)
    assert convergence_rate(rec) == 0


def test_rate_divergent_when_p1_degree_larger():
    rec = Recurrence(r=1, p1=_upoly([0, 1]), p2=UniPoly.one(), cert=_UNIT_CERT)
    with pytest.raises(ValueError, match="divergent acceleration"):
        convergence_rate(rec)


# ---------------------------------------------------------------------------
# Remainder estimate
# ---------------------------------------------------------------------------


def test_direct_sum_matches_exact_partial_sum():
    term, _ = _quarter_example()
    rho = k_shift_ratio(term)
    total, t = F(0), F(1)
    for k in range(300):
        total += t
        t *= quotient_eval(rho, {"n": F(5), "k": k})
    # the tail past 300 terms is below 10^-18 at n = 5
    enc = direct_sum(k_series_at(term, F(5)), 6)
    assert abs(enc.center.to_fraction() - total) <= F(1, 10 ** 6)


def test_direct_sum_divergence_is_an_error():
    # (2)_k / (1)_k has term ratio (k+2)/(k+1) -> terms grow linearly
    from hyperaccel.hypergeom_terms import GammaFactor, HypTerm

    grow = HypTerm(gammas=(
        GammaFactor(MultiPoly.from_string("k + 2"), 1),
        GammaFactor(MultiPoly.const(2), -1),
        GammaFactor(MultiPoly.from_string("k + 1"), -1),
        GammaFactor(MultiPoly.const(1), 1),
    ), sign_base=1)
    with pytest.raises(ValueError, match="oracle unavailable"):
        direct_sum(k_series_at(grow, F(3)), 2)


def test_vanishing_check_passes_quarter_example():
    term, rec = _quarter_example()
    assert vanishing_check(term, rec, F(1))


def test_vanishing_check_passes_neg_27_example():
    term, rec = _neg_27_example()
    assert vanishing_check(term, rec, F(1))


def test_vanishing_check_rejects_fabricated_growth():
    term, _ = _quarter_example()
    assert not vanishing_check(term, _fake_rec(F(2)), F(1))


def test_vanishing_check_fails_where_the_oracle_refuses():
    # from n0 = -1/2 the first shifted point is 1/2, where the k-sum's
    # decay exponent 2 n - 1/3 is 2/3: the series does not converge there
    term, rec = _quarter_example()
    assert not vanishing_check(term, rec, F(-1, 2))
    with pytest.raises(ValueError, match="remainder does not vanish"):
        accelerated_stream(term, rec, F(-1, 2))


# one recipe of each family; FR-2, the only twenty7-32 recipe, is refused
VANISHING_PINS = {
    "GUILLERA-QUARTER": True, "NQ1": True, "N27-1": True, "F427-1": True,
    "S1627-1": True, "S1627-3": True, "S64-1": True, "S64-4": True,
    "S2764-1": True, "FR-1": True, "FR-2": False,
}


def test_vanishing_verdict_pinned_per_family(derivation_recipes):
    got = {e.id: vanishing_check(term, rec, e.derivation.n0)
           for e, term, rec in derivation_recipes if e.id in VANISHING_PINS}
    assert got == VANISHING_PINS
    families = {e.derivation.family for e, _, _ in derivation_recipes
                if e.id in VANISHING_PINS}
    assert families == set(FamilyId)


def _count_calls(monkeypatch, name):
    """Count the calls of an accelerator module function from here on."""
    calls = []
    fn = getattr(accelerator, name)
    monkeypatch.setattr(accelerator, name,
                        lambda *args: calls.append(1) or fn(*args))
    return calls


def test_remainder_check_expands_nothing(monkeypatch):
    # each k-sum is read off the factors of F(n, k+1)/F(n, k): no expanded
    # ratio, no substitution into one, and no root search for parameters
    examples = [_quarter_example(), _neg_27_example()]

    def refuse(*args, **kwargs):
        raise AssertionError("a remainder check expanded its k-sum")

    monkeypatch.setattr(MultiPoly, "grid", refuse)
    monkeypatch.setattr(Affine, "subst", refuse)
    for module in (accelerator, exact_arith, hypergeom_terms, numerics):
        for name in ("k_shift_ratio", "rational_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for term, rec in examples:
        assert vanishing_check(term, rec, F(1))


def _oracle_outcome(evaluate):
    """The enclosure evaluate() returns, or the type and text of its error."""
    try:
        return evaluate()
    except (ValueError, OverflowError, ZeroDivisionError) as ex:
        return type(ex).__name__, str(ex)


def _same_as_oracle_reference(term, n0, digits):
    got = _oracle_outcome(lambda: direct_sum(k_series_at(term, n0), digits))
    want = _oracle_outcome(lambda: oracle_reference.direct_sum(
        *oracle_reference.k_ratio_at(k_shift_ratio(term), n0), digits))
    assert got == want, (n0, digits)
    return got


def test_k_series_matches_reference_oracle_on_random_summands():
    # every family at parameters a/b, |a| <= 6 and b <= 4, from start
    # points a/b, -8 <= a <= 30 and b <= 3, and FR-2's summand; the cases
    # reach the finite, geometric, positive and alternating branches and
    # the refusals
    rng = random.Random(19)
    cases = [(family_instantiate(FamilyId.TWENTY7_32, [F(1), F(1, 2)]),
              F(rng.randint(-8, 30), rng.randint(1, 3))) for _ in range(10)]
    for family in FamilyId:
        for _ in range(20):
            params = [F(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in family.param_names]
            cases.append((family_point(family, params),
                          F(rng.randint(-8, 30), rng.randint(1, 3))))
    outcomes = [_same_as_oracle_reference(term, n0, digits)
                for term, n0 in cases for digits in (2, 4)]
    assert sum(isinstance(x, tuple) for x in outcomes) > 0
    assert sum(not isinstance(x, tuple) for x in outcomes) > len(outcomes) // 2


def test_k_series_matches_reference_oracle_on_every_recipe(derivation_recipes):
    assert len(derivation_recipes) == 95
    for e, term, rec in derivation_recipes:
        nu = F(e.derivation.n0)
        for _ in range(5):
            nu += rec.r
            _same_as_oracle_reference(term, nu, 2)


def test_k_series_reads_factors_free_of_k_into_z(monkeypatch):
    # every factor a Gamma factor gives moves with k, so factors free of k
    # are planted here: 3 (k + 1) / (2 k + 1) gives z = 3/2, and a zero
    # factor free of k in the denominator is refused as a ValueError
    k1, two_k1 = (Affine.from_poly(MultiPoly.from_string(t))
                  for t in ("k + 1", "2k + 1"))
    three, zero = (Affine.from_poly(MultiPoly.const(c)) for c in (3, 0))
    term, _ = _quarter_example()
    monkeypatch.setattr(accelerator, "k_ratio_parts",
                        lambda t: (F(1), (k1, three), (two_k1,)))
    assert k_series_at(term, 1) == ChuSeries(F(3, 2), (F(1),), (F(1, 2),),
                                             UniPoly.one(), UniPoly.one())
    monkeypatch.setattr(accelerator, "k_ratio_parts",
                        lambda t: (F(1), (k1,), (two_k1, zero)))
    with pytest.raises(ValueError, match="pole of series term"):
        k_series_at(term, 1)


# ---------------------------------------------------------------------------
# Exact stream generation
# ---------------------------------------------------------------------------


def test_stream_first_term_is_g1_over_term0():
    term, rec = _quarter_example()
    t0 = AccelStream(term, rec, F(1)).term(0)
    cert0 = quotient_eval(symbolic(rec).cert, {"n": F(1), "k": 0})
    p2v = rec.p2.eval(F(1))
    assert t0 == -cert0 / p2v


def test_dual_path_exactness_quarter():
    term, rec = _quarter_example()
    s = accelerated_stream(term, rec, F(1))
    terms = s.take(201)
    num, den = s.ratio
    acc = terms[0]
    for j in range(200):
        acc *= num.eval(j) / den.eval(j)
        assert acc == terms[j + 1]


def test_dual_path_exactness_neg_quarter():
    term, rec = _neg_quarter_example()
    s = accelerated_stream(term, rec, F(2, 3))
    terms = s.take(101)
    num, den = s.ratio
    acc = terms[0]
    for j in range(100):
        acc *= num.eval(j) / den.eval(j)
        assert acc == terms[j + 1]


def test_stream_builds_its_parts_once(monkeypatch):
    term, rec = _quarter_example()
    calls = _count_calls(monkeypatch, "_stream_parts")
    s = AccelStream(term, rec, F(1))
    num, den = s.ratio
    terms = s.take(3)
    assert terms[1] == terms[0] * num.eval(0) / den.eval(0)
    assert len(calls) == 1


def test_stream_cache_is_stable():
    term, rec = _quarter_example()
    s = accelerated_stream(term, rec, F(1), check_vanishing=False)
    a = s.term(5)
    assert s.take(6)[5] == a
    assert s.term(5) == a


def test_pole_on_progression_is_reported_with_its_index():
    term, rec = _quarter_example()
    # p2 vanishing at n = n0 + 3 turns into a pole at stream term 3
    shifted = Recurrence(r=1, p1=rec.p1, p2=_upoly([-4, 1]), cert=rec.cert)
    with pytest.raises(ValueError, match="at term 3"):
        accelerated_stream(term, shifted, F(1), check_vanishing=False)


def test_remainder_failure_blocks_stream():
    term, _ = _quarter_example()
    with pytest.raises(ValueError, match="remainder does not vanish"):
        accelerated_stream(term, _fake_rec(F(2)), F(1))


def test_stream_ratio_matches_consecutive_terms():
    term, rec = _neg_27_example()
    s = AccelStream(term, rec, F(1))
    num, den = s.ratio
    terms = s.take(12)
    for j in range(11):
        assert num.eval(j) / den.eval(j) == terms[j + 1] / terms[j]


_line_polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                       max_size=4).map(UniPoly.from_coeffs)
_line_points = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=100, deadline=None)
@given(polys=st.lists(st.tuples(_line_polys, _line_points, _line_points),
                      min_size=1, max_size=4),
       scalar=st.integers(-50, 50), b=st.integers(1, 12))
def test_j_product_bound_and_image_match_expansion(polys, scalar, b):
    """A `_JProduct` of the p(a + b j) is scalar/den times integer
    factors: its image at 2^b is den/scalar times the expanded product's
    value there, and its bound holds for the l1 norm of the expansion of
    the integer factors."""
    product = accelerator._JProduct(polys)
    product.scalar = scalar
    assert product.den > 0
    expanded = UniPoly.one()
    for p, a, step in polys:
        expanded = expanded * p.compose(a, step)
    integer = expanded * (scalar * product.den)
    assert product.image(b, 0) == integer.eval(2 ** b)
    assert all(c.denominator == 1 for c in integer.coeffs)
    bound = product.bound()
    assert sum(abs(c) for c in integer.coeffs) <= bound.norm


def _display_variants(s):
    """The display and six num variants, scaled by 3 and by -1, shifted by
    1, -1 and 1/7, and with num(0) set to 0, each with z, -z and 2z."""
    num = s.num
    nums = [num, num * 3, num * -1, num.shift(1), num.shift(-1),
            num.shift(F(1, 7)), num - UniPoly.from_coeffs([num.coeff(0)])]
    return [ChuSeries(z, s.upper, s.lower, p, s.den)
            for p in nums for z in (s.z, -s.z, 2 * s.z)]


def test_same_quotient_matches_the_expanded_cross_product(derivation_recipes):
    """On every display with a recipe, and on 20 variants of each, the
    stream's Kronecker verdict is dn sd == sn dd on the expanded term
    quotients of the series and of `stream_ratio`."""
    verdicts = []
    for e, term, rec in derivation_recipes:
        if e.chu is None:
            continue
        stream = AccelStream(term, rec, e.derivation.n0)
        sn, sd = stream.ratio
        for series in _display_variants(e.chu):
            dn, dd = series.ratio_parts()
            want = dn * sd == sn * dd
            assert stream.same_quotient(series) is want, e.id
            verdicts.append(want)
    assert len(verdicts) == 1407
    assert 67 <= sum(verdicts) < len(verdicts)


def _reference_iter_accelerated(term, rec, n0):
    """Stream terms with cert and rho_n evaluated as MultiPolys at each step."""
    rho_n = n_shift_ratio(term, rec.r)
    p1, p2, cert = rec.p1, rec.p2, symbolic(rec).cert
    nu = F(n0)
    pre = F(1)
    j = 0
    while True:
        p2v = p2.eval(nu)
        if p2v == 0:
            raise ValueError(f"pole in accelerated stream at term {j}")
        try:
            cv = quotient_eval(cert, {"n": nu, "k": 0})
            rv = quotient_eval(rho_n, {"n": nu, "k": 0})
        except ZeroDivisionError:
            raise ValueError(f"pole in accelerated stream at term {j}") from None
        yield pre * (-cv) / p2v
        pre *= (-p1.eval(nu) / p2v) * rv
        nu += rec.r
        j += 1


def _stream_terms(term, rec, n0):
    """AccelStream's terms as an unbounded iterator."""
    return map(AccelStream(term, rec, n0).term, count())


def _first_terms(stream, count):
    """Up to count terms, ending with the error text if a pole stops the stream."""
    out = []
    try:
        out.extend(islice(stream, count))
    except ValueError as exc:
        out.append(str(exc))
    return out


def test_stream_terms_match_multipoly_evaluation(derivation_recipes):
    for e, term, rec in derivation_recipes:
        n0 = e.derivation.n0
        assert (_first_terms(_stream_terms(term, rec, n0), 30)
                == _first_terms(_reference_iter_accelerated(term, rec, n0), 30)), e.id


# rational heights up to 4: the bracket form's rational_roots factors the
# quotient's end coefficients by trial division, which takes seconds on
# some neg-64 tuples already at these heights
_heights = st.builds(F, st.integers(-4, 4), st.integers(1, 4))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_family_streams_match_reference_and_bracket_form(data):
    """Over random tuples of every family with a recurrence (twenty7-32
    has none), the stream's first terms, or the pole that stops them,
    are those of the MultiPoly evaluation; where the window has no pole
    and the stream a bracket form, scale * series reproduces it."""
    family = data.draw(st.sampled_from(
        [f for f in FamilyId if f is not FamilyId.TWENTY7_32]),
        label="family")
    params = data.draw(st.tuples(*[_heights] * len(family.param_names)),
                       label="params")
    n0 = data.draw(st.builds(F, st.integers(1, 8), st.integers(1, 4)), label="n0")
    term = family_point(family, params)
    rec = derive_recurrence(term)
    assume(rec is not None)
    terms = _first_terms(_stream_terms(term, rec, n0), 12)
    assert terms == _first_terms(_reference_iter_accelerated(term, rec, n0), 12)
    assume(len(terms) == 12 and all(isinstance(t, F) for t in terms))
    stream = accelerated_stream(term, rec, n0, check_vanishing=False)
    try:
        series, scale = chu_normalize(stream.ratio, terms[0])
    except ValueError:
        event("no bracket form")
        return
    assert [scale * t for t in series.terms(12)] == terms


@pytest.mark.parametrize("cert_num", ["1", "k", "n + 2k"])
def test_cert_denominator_pole_keeps_its_index(cert_num):
    # cert = cert_num / (n - 4) has a pole at n = n0 + 3, also where its
    # numerator vanishes identically at k = 0 (cert_num = k)
    term, rec = _quarter_example()
    n = MultiPoly.var("n")
    cert = (MultiPoly.from_string(cert_num), n - MultiPoly.const(4))
    poled = Recurrence(r=1, p1=rec.p1, p2=rec.p2, cert=tuple(map(poly_grid, cert)))
    got = _first_terms(_stream_terms(term, poled, F(1)), 10)
    assert got == _first_terms(_reference_iter_accelerated(term, poled, F(1)), 10)
    assert got[3:] == ["pole in accelerated stream at term 3"]


# ---------------------------------------------------------------------------
# Stream proportionality
# ---------------------------------------------------------------------------


def test_proportional_finds_the_constant():
    s2 = [F(1, 2) ** j for j in range(20)]
    s1 = [F(7, 3) * x for x in s2]
    assert stream_proportional(s1, s2) == F(7, 3)


def test_proportional_respects_window():
    s2 = [F(1)] * 10
    s1 = [F(2)] * 9 + [F(3)]
    assert stream_proportional(s1, s2, j_max=8) == F(2)
    assert stream_proportional(s1, s2) is None


def test_proportional_zero_pattern_mismatch_is_none():
    assert stream_proportional([F(0), F(1)], [F(1), F(1)]) is None


def test_proportional_all_zero_is_undetermined():
    assert stream_proportional([F(0)] * 5, [F(0)] * 5) is None


def test_proportional_short_window_is_an_error():
    with pytest.raises(ValueError):
        stream_proportional([F(1)], [F(1)], j_max=3)


# ---------------------------------------------------------------------------
# Bracket normal form
# ---------------------------------------------------------------------------


def test_chu_normalize_quarter_example():
    term, rec = _quarter_example()
    s = accelerated_stream(term, rec, F(1), check_vanishing=False)
    series, scale = chu_normalize(s.ratio, s.term(0))
    assert series.z == F(1, 4)
    assert series.upper == (F(2, 3),)
    assert series.lower == (F(11, 6),)
    assert series.num == _upoly([17, 42, 27])
    assert series.den == _upoly([1, 4, 3])  # (j+1)(3j+1)
    assert scale * series.term(0) == s.term(0)


def test_chu_normalize_neg_quarter_example():
    term, rec = _neg_quarter_example()
    s = accelerated_stream(term, rec, F(2, 3), check_vanishing=False)
    series, _ = chu_normalize(s.ratio, s.term(0))
    assert series.z == F(-1, 4)
    assert series.upper == (F(1, 2), F(1))
    assert series.lower == (F(4, 3), F(5, 3))
    assert series.num == _upoly([17, 30])
    assert series.den == UniPoly.one()


def test_chu_normalize_neg_27_example():
    term, rec = _neg_27_example()
    s = accelerated_stream(term, rec, F(1), check_vanishing=False)
    series, _ = chu_normalize(s.ratio, s.term(0))
    assert series.z == F(-1, 27)
    assert series.upper == (F(1, 2), F(1))
    assert series.lower == (F(4, 3), F(5, 3))
    assert series.num == _upoly([17, 28])
    assert series.den == UniPoly.one()


def test_chu_scale_reproduces_stream_termwise():
    term, rec = _quarter_example()
    s = accelerated_stream(term, rec, F(1), check_vanishing=False)
    series, scale = chu_normalize(s.ratio, s.term(0))
    got = stream_proportional(s.take(40), [series.term(j) for j in range(40)])
    assert got == scale


def test_chu_round_trip_ratio_identity():
    term, rec = _neg_quarter_example()
    s = accelerated_stream(term, rec, F(2, 3), check_vanishing=False)
    series, _ = chu_normalize(s.ratio, s.term(0))
    assert same_quotient(series.ratio_parts(), s.ratio)


def test_chu_rejects_unequal_degrees():
    # ratio (j+1) has numerator degree 1, denominator degree 0
    ratio = (_upoly([1, 1]), UniPoly.one())
    with pytest.raises(ValueError, match="non-Chu-normalizable"):
        chu_normalize(ratio, F(1))


def test_chu_rejects_zero_first_term():
    ratio = (_upoly([F(1, 2)]), UniPoly.one())
    with pytest.raises(ValueError, match="non-Chu-normalizable"):
        chu_normalize(ratio, F(0))


def test_chu_constant_ratio_is_pure_geometric():
    series, scale = chu_normalize((_upoly([F(-1, 3)]), UniPoly.one()), F(5))
    assert series == ChuSeries(z=F(-1, 3), upper=(), lower=(),
                               num=UniPoly.one(), den=UniPoly.one())
    assert scale == F(5)


def test_chu_folds_integer_gap_parameters():
    # z^j (1/3)_j / (7/3)_j: gap 2 folds into den (j+1/3)(j+4/3) scaled primitive
    base = ChuSeries(z=F(1, 2), upper=(F(1, 3),), lower=(F(7, 3),),
                     num=UniPoly.one(), den=UniPoly.one())
    series, _ = chu_normalize(base.ratio_parts(), base.term(0))
    assert series.upper == ()
    assert series.lower == ()
    assert series.den == _upoly([1, 3]) * _upoly([4, 3])  # (3j+1)(3j+4)
    assert same_quotient(series.ratio_parts(), base.ratio_parts())


def test_chu_den_has_no_nonnegative_integer_roots():
    # upper 0 would put a root of den at j = 0 after folding against lower 2
    base = ChuSeries(z=F(1, 2), upper=(F(0),), lower=(F(2),),
                     num=UniPoly.one(), den=UniPoly.one())
    with pytest.raises(ValueError, match="non-Chu-normalizable"):
        chu_normalize(base.ratio_parts(), F(1))


def test_chu_closing_identity_check_rejects_wrong_series(monkeypatch):
    # a series built from the quotient's own roots and rootless parts
    # always satisfies the closing identity, so a wrong series quotient
    # is planted to reach the check
    base = ChuSeries(z=F(1, 2), upper=(F(1, 3),), lower=(F(5, 4),),
                     num=_upoly([2, 1]), den=UniPoly.one())
    ratio = base.ratio_parts()
    series, _ = chu_normalize(ratio, F(1))
    assert series.ratio_parts() == base.ratio_parts()
    parts = ChuSeries.ratio_parts
    monkeypatch.setattr(ChuSeries, "ratio_parts",
                        lambda self: (parts(self)[0].scale(2), parts(self)[1]))
    with pytest.raises(ValueError, match="non-Chu-normalizable"):
        chu_normalize(ratio, F(1))


def _per_j_product(s, j):
    """Integers (top, bottom) with term j = top / bottom, from the direct
    product z^j prod (u)_j / prod (l)_j * num(j) / den(j); bottom is 0 at
    a pole."""
    num, den = s.num.eval(j), s.den.eval(j)
    top = s.z.numerator ** j * num.numerator * den.denominator
    bottom = s.z.denominator ** j * num.denominator * den.numerator
    for u in s.upper:
        top *= math.prod(u.numerator + i * u.denominator for i in range(j))
        bottom *= u.denominator ** j
    for l in s.lower:
        top *= l.denominator ** j
        bottom *= math.prod(l.numerator + i * l.denominator for i in range(j))
    return top, bottom


def test_series_terms_match_per_j_product_on_all_displays():
    displays = [e.chu for e in catalog_entries() if e.chu is not None]
    assert len(displays) == 95
    for s in displays:
        terms = s.terms(101)
        assert len(terms) == 101
        for j, t in enumerate(terms):
            top, bottom = _per_j_product(s, j)
            assert t.numerator * bottom == t.denominator * top, (s, j)


@pytest.mark.parametrize("lower, den", [
    ((F(-2), F(1, 3)), UniPoly.one()),   # (l)_j vanishes from j = 3 on
    ((F(5, 2),), _upoly([-3, 1])),        # den(3) = 0
    ((F(0),), UniPoly.one()),             # (0)_j vanishes from j = 1 on
])
def test_series_terms_raise_at_the_first_pole(lower, den):
    s = ChuSeries(z=F(-1, 3), upper=(F(1, 2), F(0)), lower=lower,
                  num=_upoly([1, 1]), den=den)
    pole = next(j for j in range(10) if _per_j_product(s, j)[1] == 0)
    assert len(s.terms(pole)) == pole
    with pytest.raises(ZeroDivisionError):
        s.terms(pole + 1)
    with pytest.raises(ZeroDivisionError):
        s.term(pole)


def test_chu_series_term_values():
    series = ChuSeries(z=F(1, 4), upper=(F(2, 3),), lower=(F(11, 6),),
                       num=_upoly([17, 42, 27]), den=_upoly([1, 4, 3]))
    assert series.term(0) == F(17)
    assert series.term(1) == F(1, 4) * F(2, 3) / F(11, 6) * F(86, 8)
