"""Tests for recurrence verification and Gosper-style derivation."""

import json
import os
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaccel.catalog import derivation_term, entry
from hyperaccel.exact_arith import MultiPoly, _zmul, _zsub
from hyperaccel.hypergeom_terms import (
    FamilyId,
    family_instantiate,
    family_term,
    k_shift_ratio,
    n_shift_ratio,
)
from hyperaccel.telescoper import (
    _Product,
    _kronecker_zero,
    _normal_form,
    _nullspace,
    builtin_recurrence,
    builtin_residual,
    derive_recurrence,
    recurrence_residual,
    same_ratio,
    specialize,
    verify_recurrence,
    zeilberger_two_term,
)

from control_summands import alt_control_double_offset, alt_control_single_offset
from quotient_helpers import quotient_eval

_N_IDX = 6  # position of n in the exponent vectors


def _coeff(p: MultiPoly, **powers: int) -> F:
    names = "abcdefnkj"
    key = tuple(powers.get(v, 0) for v in names)
    return dict(p.terms).get(key, F(0))


# ---------------------------------------------------------------------------
# Stored recurrences: exact symbolic verification
# ---------------------------------------------------------------------------


def test_builtin_quarter_residual_is_zero():
    assert builtin_residual(FamilyId.QUARTER).is_zero


def test_builtin_neg_quarter_residual_is_zero():
    assert builtin_residual(FamilyId.NEG_QUARTER).is_zero


def test_builtin_neg_27_residual_is_zero():
    assert builtin_residual(FamilyId.NEG_27).is_zero


def test_builtin_dataset_spot_values():
    q = builtin_recurrence(FamilyId.QUARTER)
    assert _coeff(q.p1, n=4) == -1
    assert _coeff(q.p2, n=4) == 4
    assert q.r == 1
    nq = builtin_recurrence(FamilyId.NEG_QUARTER)
    assert nq.r == 2
    assert _coeff(nq.p1, n=4) == -1
    assert _coeff(nq.p2, n=4) == -4
    n27 = builtin_recurrence(FamilyId.NEG_27)
    assert n27.r == 1
    assert _coeff(n27.p1, n=6) == -16
    assert _coeff(n27.p2, n=6) == -432


def test_builtin_recurrence_only_for_stored_families():
    assert builtin_recurrence(FamilyId.FOUR_27) is None
    assert builtin_recurrence(FamilyId.TWENTY7_32) is None


# ---------------------------------------------------------------------------
# Parameterized derivation against the stored data
# ---------------------------------------------------------------------------


def test_derive_matches_stored_quarter():
    params = (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))
    term = family_instantiate(FamilyId.QUARTER, params)
    rec = zeilberger_two_term(term, 1)
    assert rec is not None
    assert verify_recurrence(term, rec)
    spec = specialize(builtin_recurrence(FamilyId.QUARTER),
                      dict(zip("abcdef", params)))
    assert same_ratio(rec, spec)


def test_derive_matches_stored_neg_quarter():
    params = (F(2, 3), F(1), F(-1, 3))
    term = family_instantiate(FamilyId.NEG_QUARTER, params)
    rec = zeilberger_two_term(term, 2)
    assert rec is not None
    assert verify_recurrence(term, rec)
    spec = specialize(builtin_recurrence(FamilyId.NEG_QUARTER),
                      dict(zip("abc", params)))
    assert same_ratio(rec, spec)


def test_derive_matches_stored_neg_27():
    params = (F(1, 2), F(0), F(-1, 2), F(0))
    term = family_instantiate(FamilyId.NEG_27, params)
    rec = zeilberger_two_term(term, 1)
    assert rec is not None
    assert verify_recurrence(term, rec)
    spec = specialize(builtin_recurrence(FamilyId.NEG_27),
                      dict(zip("abcd", params)))
    assert same_ratio(rec, spec)


@pytest.mark.parametrize("family,params", [
    (FamilyId.FOUR_27, (F(1, 4), F(3, 4), F(-1, 2))),
    (FamilyId.SIXTEEN_27_A, (F(-1, 3), F(1, 3))),
    (FamilyId.SIXTEEN_27_B, (F(1, 4), F(1, 4))),
    (FamilyId.SIXTY4_B, (F(-3, 4), F(1, 2), F(-1))),
    (FamilyId.TWENTY7_64, (F(1), F(0), F(0))),
    (FamilyId.NEG_64, (F(-2, 3), F(2, 3), F(0))),
])
def test_derive_families_without_stored_data(family, params):
    term = family_instantiate(family, params)
    rec = zeilberger_two_term(term, 1)
    assert rec is not None
    assert recurrence_residual(term, rec).is_zero
    assert not rec.p2.is_zero


def test_derive_search_walks_shift_values():
    params = (F(2, 3), F(1), F(-1, 3))
    term = family_instantiate(FamilyId.NEG_QUARTER, params)
    assert zeilberger_two_term(term, 1) is None
    rec = derive_recurrence(term)
    assert rec is not None and rec.r == 2


def test_staircase_family_has_no_recurrence():
    term = family_instantiate(FamilyId.TWENTY7_32, (F(1), F(1, 2)))
    assert derive_recurrence(term) is None


def test_alternating_controls_have_no_unit_shift_recurrence():
    single = alt_control_single_offset(F(1, 3), F(1, 2), F(1, 4))
    double = alt_control_double_offset(F(1, 3), F(1, 2), F(1, 4), F(3, 4))
    for term in (single, double):
        assert zeilberger_two_term(term, 1, max_deg=8) is None


def test_derivation_requires_instantiated_summand():
    with pytest.raises(ValueError):
        zeilberger_two_term(family_term(FamilyId.QUARTER), 1)


def test_derived_normalization_conventions():
    params = (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))
    term = family_instantiate(FamilyId.QUARTER, params)
    rec = zeilberger_two_term(term, 1)
    p1 = rec.p1.as_unipoly("n")
    p2 = rec.p2.as_unipoly("n")
    assert p2.lc > 0
    c1, c2 = p1.content(), p2.content()
    assert c1.denominator == 1 and c2.denominator == 1
    from math import gcd
    assert gcd(c1.numerator, c2.numerator) == 1


# ---------------------------------------------------------------------------
# The residual numerator against exact evaluation
# ---------------------------------------------------------------------------


def _residual_at(term, rec, point):
    """p1 rho_n + p2 - (cert(k+1) rho_k - cert) at a rational point, in
    Fractions; None at a pole of any quotient."""
    k1 = {**point, "k": point["k"] + 1}
    try:
        rho_n = quotient_eval(n_shift_ratio(term, rec.r), point)
        rho_k = quotient_eval(k_shift_ratio(term), point)
        cert, cert_k1 = quotient_eval(rec.cert, point), quotient_eval(rec.cert, k1)
    except ZeroDivisionError:
        return None
    return rec.p1.eval(point) * rho_n + rec.p2.eval(point) - (cert_k1 * rho_k - cert)


def test_residual_verdict_matches_exact_evaluation(derivation_recipes):
    """On the 39 solver recurrences and one seeded single-coefficient
    corruption of p1 or p2 for each, the residual numerator is zero
    exactly when the identity evaluates to zero at random rational (n, k)."""
    rng = random.Random(2024)
    solved = [(term, rec) for e, term, rec in derivation_recipes
              if builtin_recurrence(e.derivation.family) is None]
    assert len(solved) == 39
    cases = []
    for term, rec in solved:
        cases.append((term, rec, True))
        part = rng.choice(("p1", "p2"))
        mono, _ = rng.choice(getattr(rec, part).terms)
        delta = MultiPoly.from_dict({mono: F(rng.choice([1, -1, 2]))})
        bad = replace(rec, **{part: getattr(rec, part) + delta})
        cases.append((term, bad, False))
    for term, rec, holds in cases:
        values = []
        while len(values) < 3:
            point = {v: F(rng.randint(-60, 60), rng.randint(1, 40)) for v in "nk"}
            value = _residual_at(term, rec, point)
            if value is not None:
                values.append(value)
        assert recurrence_residual(term, rec).is_zero is holds
        assert all(v == 0 for v in values) is holds


def test_zero_certificate_denominator_raises():
    params = (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))
    term = family_instantiate(FamilyId.QUARTER, params)
    rec = zeilberger_two_term(term, 1)
    with pytest.raises(ZeroDivisionError):
        recurrence_residual(term, replace(rec, cert=(rec.cert[0], MultiPoly.zero())))


# ---------------------------------------------------------------------------
# The Kronecker zero test against the expanded residual
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(derivation_recipes):
    """(summand, recurrence) for the 39 recipes the solver derives."""
    out = [(term, rec) for e, term, rec in derivation_recipes
           if builtin_recurrence(e.derivation.family) is None]
    assert len(out) == 39
    return out


def _product(poly, shifted=False):
    den, terms = poly.int_terms("n", "k")
    assert den == 1
    return _Product(1, [(terms, shifted)])


def _difference(f, g):
    return f - g


@pytest.mark.parametrize("t", range(1, 80, 7))
def test_kronecker_image_keeps_large_constants_apart_from_n(t):
    """n - c is not zero for c = 2^t and 2^t - 1: X = 2^B exceeds the
    norm bound, so n -> X never meets the constant."""
    for c in (2 ** t, 2 ** t - 1):
        parts = [_product(_NV), _product(MultiPoly.const(c))]
        assert _kronecker_zero(_difference, parts) is False


@pytest.mark.parametrize("d", range(7))
def test_kronecker_image_keeps_k_apart_from_powers_of_n(d):
    """k - n^d is not zero: k -> X^(D+1) lies above every n^i, i <= D."""
    parts = [_product(_KV), _product(MultiPoly.var("n", d))]
    assert _kronecker_zero(_difference, parts) is False


_small = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
    min_size=1, max_size=4).map(
    lambda ts: sum((MultiPoly.var("n", i) * MultiPoly.var("k", j) * c
                    for i, j, c in ts), MultiPoly.zero()))


@settings(max_examples=100, deadline=None)
@given(polys=st.lists(st.tuples(_small, st.booleans()), min_size=1, max_size=3),
       scalar=st.integers(-50, 50), b=st.integers(1, 12))
def test_product_bound_and_image_match_expansion(polys, scalar, b):
    """A _Product's bound holds for its expansion (l1 norm and degree in
    n), and its image is the expansion evaluated at (2^b, 2^(b (D+1)))."""
    expanded = MultiPoly.const(scalar)
    for f, shifted in polys:
        expanded = expanded * (f.shift_var("k", 1) if shifted else f)
    den, terms = expanded.int_terms("n", "k")
    assert den == 1
    product = _Product(scalar, [_product(f, shifted).factors[0]
                                for f, shifted in polys])
    bound = product.bound()
    assert sum(abs(c) for *_, c in terms) <= bound.norm
    assert max((i for i, _, _ in terms), default=0) <= bound.deg
    kb = b * (bound.deg + 1)
    assert product.image(b, kb) == sum(c * 2 ** (b * i + kb * j)
                                       for i, j, c in terms)


@settings(max_examples=150, deadline=None)
@given(f=_small, g=_small, h=_small, shift=st.booleans(),
       same=st.booleans())
def test_kronecker_zero_matches_expansion(f, g, h, shift, same):
    """f g+ - h (g+ the shift k -> k+1 when shift is set) is zero exactly
    when its image is; with same, h is the expanded f g+, so it is."""
    gk = g.shift_var("k", 1) if shift else g
    if same:
        h = f * gk
    want = (f * gk - h).is_zero
    parts = [_product(f), _product(g, shift), _product(h)]
    assert _kronecker_zero(lambda a, b, c: a * b - c, parts) is want


def test_kronecker_test_matches_expanded_residual(derivation_recipes):
    """On all 95 recipes, the 39 solver recurrences and the 56 stored ones
    specialized, the Kronecker image and the expanded residual agree."""
    for e, term, rec in derivation_recipes:
        assert verify_recurrence(term, rec) is True, e.id
        assert recurrence_residual(term, rec).is_zero, e.id


_PARTS = ("p1", "p2", "cert_num", "cert_den")


def _perturbed(rec, part, delta):
    cn, cd = rec.cert
    if part == "cert_num":
        return replace(rec, cert=(cn + delta, cd))
    if part == "cert_den":
        return replace(rec, cert=(cn, cd + delta))
    return replace(rec, **{part: getattr(rec, part) + delta})


def _verdict(check, term, rec):
    try:
        return check(term, rec)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, 38), part=st.sampled_from(_PARTS),
       a=st.integers(0, 12), b=st.integers(0, 6),
       delta=st.one_of(st.sampled_from([1, -1, 2, -2, 2 ** 200, -2 ** 200]),
                       st.integers(-10 ** 6, 10 ** 6).filter(bool),
                       st.fractions(max_denominator=10 ** 4).filter(bool)))
def test_kronecker_test_matches_residual_after_perturbation(
        solved, index, part, a, b, delta):
    """Adding delta n^a k^b to one of p1, p2, Cn or Cd gives the same
    verdict from the image as from the expanded residual."""
    term, rec = solved[index]
    mono = MultiPoly.var("n", a) * MultiPoly.var("k", b) * F(delta)
    bad = _perturbed(rec, part, mono)
    want = _verdict(lambda t, r: recurrence_residual(t, r).is_zero, term, bad)
    assert _verdict(verify_recurrence, term, bad) == want


def test_kronecker_test_rejects_single_unit_changes(solved):
    """A change of 1 in any one coefficient of p1, p2, Cn or Cd breaks
    every solver recurrence, and the image sees it."""
    for term, rec in solved:
        for part, poly in zip(_PARTS, (rec.p1, rec.p2, *rec.cert)):
            for mono, _ in poly.terms[:3]:
                bad = _perturbed(rec, part, MultiPoly.from_dict({mono: 1}))
                assert verify_recurrence(term, bad) is False


def test_kronecker_test_zero_certificate_denominator_raises(solved):
    term, rec = solved[0]
    with pytest.raises(ZeroDivisionError):
        verify_recurrence(term, replace(rec, cert=(rec.cert[0], MultiPoly.zero())))


def test_kronecker_test_rejects_free_parameters(solved):
    with pytest.raises(ValueError, match="free parameter"):
        verify_recurrence(family_term(FamilyId.QUARTER),
                          builtin_recurrence(FamilyId.QUARTER))
    term, rec = solved[0]
    with pytest.raises(ValueError):
        verify_recurrence(term, replace(rec, p1=rec.p1 + MultiPoly.var("a")))
    with pytest.raises(ValueError):
        verify_recurrence(term, replace(
            rec, cert=(rec.cert[0], rec.cert[1] * MultiPoly.var("f"))))


def test_solver_recheck_is_live(monkeypatch):
    """zeilberger_two_term re-checks what `_assemble` returns: a recurrence
    with p2 off by one is refused."""
    import hyperaccel.telescoper as telescoper
    assemble = telescoper._assemble

    def corrupted(*args):
        rec = assemble(*args)
        return replace(rec, p2=rec.p2 + MultiPoly.one())

    monkeypatch.setattr(telescoper, "_assemble", corrupted)
    term = family_instantiate(FamilyId.QUARTER,
                              (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3)))
    with pytest.raises(RuntimeError, match="re-verification"):
        zeilberger_two_term(term, 1)


def test_kronecker_test_multiplies_no_polynomials(monkeypatch):
    """The zero test builds no MultiPoly product: it holds with
    MultiPoly.__mul__ replaced by a function that raises."""
    params = (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))
    term = family_instantiate(FamilyId.QUARTER, params)
    rec = specialize(builtin_recurrence(FamilyId.QUARTER), dict(zip("abcdef", params)))
    bad = replace(rec, p1=rec.p1 + MultiPoly.one())

    def refuse(self, other):
        raise AssertionError("MultiPoly product in the zero test")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
    assert verify_recurrence(term, rec) is True
    assert verify_recurrence(term, bad) is False


def test_specialize_rejects_vanishing_certificate_denominator():
    base = builtin_recurrence(FamilyId.QUARTER)
    rec = replace(base, cert=(base.cert[0], MultiPoly.from_string("a - 1")))
    assert specialize(rec, {"a": 2}).cert[1] == MultiPoly.one()
    with pytest.raises(ZeroDivisionError):
        specialize(rec, {"a": 1})


# ---------------------------------------------------------------------------
# Solver outputs pinned text for text
# ---------------------------------------------------------------------------

_PINS = os.path.join(os.path.dirname(__file__), "zeilberger_pins.json")

_CONTROLS = {
    "alt-single (1/3, 1/2, 1/4)":
        lambda: alt_control_single_offset(F(1, 3), F(1, 2), F(1, 4)),
    "alt-double (1/3, 1/2, 1/4, 3/4)":
        lambda: alt_control_double_offset(F(1, 3), F(1, 2), F(1, 4), F(3, 4)),
    "neg-quarter (2/3, 1, -1/3)":
        lambda: family_instantiate(FamilyId.NEG_QUARTER, (F(2, 3), F(1), F(-1, 3))),
    "twenty7-32 (1, 1/2)":
        lambda: family_instantiate(FamilyId.TWENTY7_32, (F(1), F(1, 2))),
}


def test_solver_outputs_match_pinned_text():
    """Every solver call of a derive pass (39 recipes) and six controls
    give the r, p1, p2 and certificate text recorded from the solver over
    rational-function coefficients."""
    with open(_PINS) as fh:
        pins = json.load(fh)
    assert sum("recipe" in p for p in pins) == 39
    assert sum("control" in p for p in pins) == 6
    for pin in pins:
        if "recipe" in pin:
            term = derivation_term(entry(pin["recipe"]))
        else:
            term = _CONTROLS[pin["control"]]()
        rec = zeilberger_two_term(term, pin["r"], max_deg=8)
        want = pin["result"]
        if want is None:
            assert rec is None, pin
            continue
        assert rec is not None and rec.r == pin["r"], pin
        cert_num, cert_den = rec.cert
        got = {"p1": str(rec.p1), "p2": str(rec.p2),
               "cert_num": str(cert_num), "cert_den": str(cert_den)}
        assert got == want, pin.get("recipe", pin.get("control"))


# ---------------------------------------------------------------------------
# Factor-level normal form
# ---------------------------------------------------------------------------

_KV = MultiPoly.var("k")
_NV = MultiPoly.var("n")


def _prod(fs):
    out = MultiPoly.one()
    for f in fs:
        out = out * f
    return out


_affine = st.builds(
    lambda m, u0, u1: _KV * m + MultiPoly.const(u0) + _NV * u1,
    st.sampled_from([1, 2, 3, -1, F(1, 2)]),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.sampled_from([0, 0, 1, 2]))


@st.composite
def _factor_lists(draw):
    """sk, num and den lists of affine factors; some den factors are
    scaled copies of num factors shifted by 0..3 in k, so pairs meet."""
    num = draw(st.lists(_affine, max_size=4))
    den = draw(st.lists(_affine, max_size=3))
    for f in num:
        if draw(st.booleans()):
            j = draw(st.integers(0, 3))
            den.append(f.shift_var("k", -j) * draw(st.sampled_from([1, -2, F(1, 3)])))
    den = draw(st.permutations(den))
    if draw(st.booleans()):
        # an n-only factor on both sides, as Dn(k) and Dn(k+1) bring
        num.append(_NV + MultiPoly.const(1))
        den.append(_NV + MultiPoly.const(1))
    sk = draw(st.sampled_from([F(1), F(-1), F(4, 27)]))
    return sk, num, den


@settings(max_examples=80, deadline=None)
@given(_factor_lists())
def test_normal_form_on_factor_lists(case):
    sk, num, den = case
    p_f, c, q_f, r_f = _normal_form(sk, num, den)
    p, q, r = _prod(p_f), _prod(q_f) * c, _prod(r_f)
    # sk prod(num) / prod(den) = (P(k+1)/P(k)) (Q/R), cross-multiplied
    assert _prod(num) * sk * p * r == _prod(den) * p.shift_var("k", 1) * q
    # the remaining factors come from the lists, and no pair of them
    # meets: a(k) is never a multiple of b(k+j) for j >= 0
    for f in q_f:
        assert f in num
    for f in r_f:
        assert f in den
    for a in q_f:
        for b in r_f:
            if a.degree("k") != 1 or b.degree("k") != 1:
                continue
            ma, mb = a.coeffs_in("k")[1], b.coeffs_in("k")[1]
            for j in range(40):
                assert a * mb != b.shift_var("k", j) * ma, (a, b, j)


# ---------------------------------------------------------------------------
# Fraction-free nullspace over Z[n]
# ---------------------------------------------------------------------------


def _zeval(e, x):
    return sum(c * x ** i for i, c in enumerate(e))


def _rank_q(rows):
    """Rank over Q by plain Gaussian elimination in Fractions."""
    rows = [[F(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rank_zn(rows):
    """Rank over Q(n) of a matrix over Z[n] (test reference): the largest
    rank over Q at r d + 1 integer points, for r rows and entries of
    degree at most d.  A nonzero minor has degree at most r d, so it is
    nonzero at one of the points."""
    d = max((len(e) - 1 for row in rows for e in row), default=0)
    return max(_rank_q([[_zeval(e, x) for e in row] for row in rows])
               for x in range(len(rows) * max(d, 0) + 1))


_zpolys = st.lists(st.integers(-3, 3), max_size=3).map(lambda cs: _zsub(cs, []))


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(_zpolys, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=4))
    if len(rows) >= 2 and draw(st.booleans()):
        # a dependent row: c rows[0] + rows[1] for a polynomial c
        c = draw(_zpolys)
        rows.append([_zsub(_zmul(c, x), _zsub([], y))
                     for x, y in zip(rows[0], rows[1])])
    return rows


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_nullspace_basis_annihilates_rows(rows):
    basis = _nullspace(rows)
    ncols = len(rows[0])
    assert len(basis) == ncols - _rank_zn(rows)
    for v in basis:
        assert len(v) == ncols
        for e in v:
            assert all(isinstance(c, int) for c in e) and (not e or e[-1])
        for row in rows:
            total = []
            for x, y in zip(row, v):
                total = _zsub(total, _zmul(x, y))
            assert total == []
    if basis:
        assert _rank_zn(basis) == len(basis)
