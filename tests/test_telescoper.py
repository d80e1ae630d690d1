"""Tests for recurrence verification and Gosper-style derivation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaccel.exact_arith import MultiPoly, NRat, UniPoly
from hyperaccel.hypergeom_terms import (
    FamilyId,
    alt_control_double_offset,
    alt_control_single_offset,
    family_instantiate,
    family_term,
)
from hyperaccel.telescoper import (
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
    return p.as_dict().get(key, F(0))


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
# Fraction-free nullspace over the rational-function field
# ---------------------------------------------------------------------------


def _field_rank(rows):
    """Rank by plain Gaussian elimination over NRat (test reference)."""
    rows = [list(r) for r in rows]
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


_ints = st.lists(st.integers(-3, 3), max_size=3)
_entries = st.builds(
    lambda num, den: NRat.new(UniPoly.from_coeffs(num),
                              UniPoly.from_coeffs(den + [1])),
    _ints, _ints)


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=3))
    if len(rows) >= 2 and draw(st.booleans()):
        # a dependent row: rows[0] * c + rows[1]
        c = draw(_entries)
        rows.append([x * c + y for x, y in zip(rows[0], rows[1])])
    return rows


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_nullspace_basis_annihilates_rows(rows):
    basis = _nullspace(rows)
    ncols = len(rows[0])
    assert len(basis) == ncols - _field_rank(rows)
    for v in basis:
        assert len(v) == ncols
        for row in rows:
            total = NRat.const(0)
            for x, y in zip(row, v):
                total = total + x * y
            assert total.is_zero
    if basis:
        assert _field_rank(basis) == len(basis)
