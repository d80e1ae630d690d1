"""Tests for recurrence verification and Gosper-style derivation."""

import json
import os
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaccel.catalog import derivation_term, entry
from hyperaccel.exact_arith import MultiPoly, _zmul, _zsub
from hyperaccel.hypergeom_terms import (
    FamilyId,
    alt_control_double_offset,
    alt_control_single_offset,
    family_instantiate,
    family_term,
)
from hyperaccel.telescoper import (
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
        got = {"p1": str(rec.p1), "p2": str(rec.p2),
               "cert_num": str(rec.cert.num), "cert_den": str(rec.cert.den)}
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
