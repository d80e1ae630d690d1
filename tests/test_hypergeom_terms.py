"""Summand model: shift ratios against hand-expanded Gamma quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaccel.exact_arith import Affine, MultiPoly
from hyperaccel.hypergeom_terms import (
    FamilyId,
    GammaFactor,
    HypTerm,
    family_instantiate,
    family_term,
    k_ratio_parts,
    k_shift_ratio,
    n_ratio_parts,
    n_shift_ratio,
)

import factor_reference
from quotient_helpers import quotient_eval, same_quotient

F = Fraction
A = MultiPoly.from_string


# -- arity invariants ---------------------------------------------------------


def test_family_arities():
    assert FamilyId.QUARTER.arity == 7
    assert FamilyId.NEG_QUARTER.arity == 4
    assert FamilyId.NEG_27.arity == 5
    for fam in FamilyId:
        assert fam.arity == len(fam.param_names) + 1


def test_instantiate_length_check():
    with pytest.raises(ValueError, match="expects 6 parameters"):
        family_instantiate(FamilyId.QUARTER, [F(1, 3)] * 5)


# -- hand-expanded ratio oracles ----------------------------------------------
# [DERIVED] each expected ratio below was expanded by hand from the Gamma
# quotients: Gamma(x + m)/Gamma(x) = x (x+1) ... (x+m-1).


def test_quarter_ratios():
    t = family_term(FamilyId.QUARTER)
    assert same_quotient(k_shift_ratio(t),
        (A("a + f + k") * A("b + e + k"),
                    A("n + d + k") * A("n + c + k"))
    )
    assert same_quotient(n_shift_ratio(t, 1),
        (A("n^2"), A("n + k + d") * A("n + k + c"))
    )


def test_neg_quarter_ratios():
    t = family_term(FamilyId.NEG_QUARTER)
    expect_k = (
        -(A("a + c + k") * A("b + c + k")), A("a + n + k") * A("b + n + k")
    )
    assert same_quotient(k_shift_ratio(t), expect_k)
    expect_n2 = (
        A("a + n") * A("a + n + 1") * A("b + n") * A("b + n + 1"),
        A("a + n + k") * A("a + n + k + 1") * A("b + n + k") * A("b + n + k + 1"),
    )
    assert same_quotient(n_shift_ratio(t, 2), expect_n2)


def test_neg27_ratios():
    t = family_term(FamilyId.NEG_27)
    assert same_quotient(k_shift_ratio(t),
        (A("a + k") * A("n + d + k"),
                    A("2n + c + k") * A("2n + b + k"))
    )
    assert same_quotient(n_shift_ratio(t, 1),
        (
            A("n + k + d") * A("2n") * A("2n") * A("2n + 1") * A("2n + 1"),
            A("n") * A("2n + k + c") * A("2n + k + c + 1")
            * A("2n + k + b") * A("2n + k + b + 1"),
        )
    )


def test_binomial_family_ratios():
    t = family_term(FamilyId.SIXTEEN_27_A)
    assert same_quotient(k_shift_ratio(t),
        (A("n") - A("k"), A("3n + a + b + k"))
    )
    assert same_quotient(n_shift_ratio(t, 1),
        (
            A("n + 1") * A("3n + b") * A("3n + b + 1") * A("3n + b + 2"),
            (A("n + 1") - A("k")) * A("3n + a + b + k")
            * A("3n + a + b + k + 1") * A("3n + a + b + k + 2"),
        )
    )


def test_staircase_pochhammer_ratio():
    # the denominator Pochhammer whose base also moves with k: its k-step
    # contributes a cubic from the argument advancing by 3 against a
    # quadratic from the base advancing by 2
    t = family_term(FamilyId.TWENTY7_32)
    assert same_quotient(k_shift_ratio(t),
        (
            (A("n") - A("k")) * A("2k + b") * A("2k + b + 1"),
            A("3k + a + b") * A("3k + a + b + 1") * A("3k + a + b + 2"),
        )
    )
    assert same_quotient(n_shift_ratio(t, 1),
        (A("n + 1"), A("n + 1") - A("k"))
    )


def test_instantiated_ratio_values():
    t = family_instantiate(FamilyId.QUARTER, [F(1, 3), F(1, 3), 1, F(1, 3), F(1, 3), F(2, 3)])
    rho = k_shift_ratio(t)
    # [DERIVED] (a+f)(b+e)/((n+d)(n+c)) at k=0, n=1 with the tuple above:
    # (1/3+2/3)(1/3+1/3) / ((1+1/3)(1+1)) = (2/3)/(8/3) = 1/4
    assert quotient_eval(rho, {"n": 1, "k": 0}) == F(1, 4)


def test_non_hypergeometric_k():
    bad = HypTerm((GammaFactor(A("1/2 k + a"), 1),))
    with pytest.raises(ValueError, match="not hypergeometric in k"):
        k_shift_ratio(bad)


def test_non_hypergeometric_n_shift():
    bad = HypTerm((GammaFactor(A("1/2 n + k"), 1),))
    with pytest.raises(ValueError, match="not hypergeometric in n"):
        n_shift_ratio(bad, 1)
    # an even shift clears the half-integer coefficient
    assert same_quotient(n_shift_ratio(bad, 2), (A("1/2 n + k"), MultiPoly.one()))


@pytest.mark.parametrize("r", [0, -1])
def test_nonpositive_n_shift_is_refused(r):
    t = family_term(FamilyId.QUARTER)
    for ratio in (n_ratio_parts, n_shift_ratio):
        with pytest.raises(ValueError, match="n-shift must be a positive integer"):
            ratio(t, r)


def test_alternating_sign_in_k_ratio_only():
    t = family_term(FamilyId.NEG_QUARTER)
    zeros = {"a": 1, "b": 1, "c": 0}
    rho_k = k_shift_ratio(t.subst(zeros))
    assert quotient_eval(rho_k, {"n": 1, "k": 0}) < 0
    rho_n = n_shift_ratio(t.subst(zeros), 2)
    assert quotient_eval(rho_n, {"n": 1, "k": 0}) > 0


# -- consistency property: telescoping product of k-ratios ---------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(0, 4))
def test_ratio_cocycle(n0, k0):
    # F(n+1,k)/F(n,k) * F(n,k+1)... the two shift ratios must commute:
    # rho_n(n, k+1) rho_k(n, k) == rho_k(n+1, k) rho_n(n, k)
    t = family_instantiate(FamilyId.NEG_27, [F(1, 4), F(1, 2), F(3, 4), 0])
    rho_k = k_shift_ratio(t)
    rho_n = n_shift_ratio(t, 1)
    n = F(n0) + F(1, 5)
    point = {"n": n, "k": F(k0)}
    lhs = quotient_eval(rho_n, {"n": n, "k": k0 + 1}) * quotient_eval(rho_k, point)
    rhs = quotient_eval(rho_k, {"n": n + 1, "k": k0}) * quotient_eval(rho_n, point)
    assert lhs == rhs


def test_family_term_is_built_once_per_family():
    terms = {family: family_term(family) for family in FamilyId}
    assert all(family_term(family) is t for family, t in terms.items())
    assert family_term.cache_info().currsize == len(FamilyId)


# -- Affine factor rows against the MultiPoly reference ----------------------------


def test_gamma_factor_converts_its_argument_once():
    g = GammaFactor(A("1/2 k + a"), 1)
    assert g.arg == Affine.from_poly(A("1/2 k + a"))
    assert GammaFactor(g.arg, 1) == g
    with pytest.raises(ValueError, match="Gamma argument must be affine"):
        GammaFactor(A("n k + 1"), 1)


def _same_parts(term, index, step):
    """The row parts are the reference's factor lists, in order, and expand
    to the reference's shift ratio."""
    ratio = k_ratio_parts(term) if index == "k" else n_ratio_parts(term, step)
    sign, num, den = ratio
    ref = factor_reference.ratio_parts(term, index, step)
    assert (sign, [f.poly() for f in num], [f.poly() for f in den]) == ref
    pair = k_shift_ratio(term) if index == "k" else n_shift_ratio(term, step)
    assert pair == factor_reference.parts_to_pair(ref)


@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
def test_symbolic_ratio_parts_match_reference(family):
    term = family_term(family)
    _same_parts(term, "k", 1)
    for r in (1, 2, 3):
        _same_parts(term, "n", r)


_fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_instantiated_ratio_parts_match_reference(family, r, data):
    params = data.draw(st.tuples(*[_fractions] * len(family.param_names)))
    term = family_instantiate(family, params)
    _same_parts(term, "k", 1)
    _same_parts(term, "n", r)


def test_ratio_parts_are_built_once_per_term():
    params = [F(1, 3), F(1, 3), 1, F(1, 3), F(1, 3), F(2, 3)]
    term = family_instantiate(FamilyId.QUARTER, params)
    assert k_ratio_parts(term) is k_ratio_parts(term)
    assert n_ratio_parts(term, 2) is n_ratio_parts(term, 2)
    assert n_ratio_parts(term, 1) is not n_ratio_parts(term, 2)
    # a new term starts with none of them
    again = family_instantiate(FamilyId.QUARTER, params)
    assert again == term and k_ratio_parts(again) is not k_ratio_parts(term)
