"""Tests for recurrence verification and Gosper-style derivation."""

import json
import os
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperaccel.exact_arith as exact_arith
from hyperaccel.catalog import catalog_entries, derivation_term, derive_entry, entry
from hyperaccel.exact_arith import (Affine, MultiPoly, UniPoly, _kronecker_zero,
                                    _zdiv, _zgcd, _zmul, _zsub)
from hyperaccel.hypergeom_terms import (
    FamilyId,
    family_instantiate,
    family_term,
    k_ratio_parts,
    k_shift_ratio,
    n_ratio_parts,
    n_shift_ratio,
)
import hyperaccel.telescoper as telescoper
from hyperaccel.telescoper import (
    _Product,
    _image_bits,
    _normal_form,
    _nullspace,
    builtin_recurrence,
    builtin_residual,
    derive_recurrence,
    recurrence_residual,
    specialize,
    theorem_families,
    verify_recurrence,
    zeilberger_two_term,
)

import factor_reference
import subst_reference
from control_summands import (alt_control_double_offset, alt_control_single_offset,
                              family_point)
from multipoly_helpers import content, evaluate, grid_poly, poly_grid, symbolic
from quotient_helpers import quotient_eval, same_ratio

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
    assert recurrence_residual(term, symbolic(rec)).is_zero
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


@pytest.mark.parametrize("r", [0, -1])
def test_derivation_rejects_nonpositive_shift_before_solving(monkeypatch, r):
    """r < 1 is refused by `n_ratio_parts`, with verify_recurrence's
    message, before the system is expanded or solved."""
    def refuse(*args):
        raise AssertionError("solver work for a nonpositive shift")

    term = family_instantiate(FamilyId.QUARTER,
                              (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3)))
    rec = zeilberger_two_term(term, 1)
    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(telescoper, "_nullspace", refuse)
    with pytest.raises(ValueError, match="n-shift must be a positive integer"):
        zeilberger_two_term(term, r)
    with pytest.raises(ValueError, match="n-shift must be a positive integer"):
        verify_recurrence(term, replace(rec, r=r))


_small_fractions = st.builds(F, st.integers(-12, 12), st.integers(1, 6))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_solver_on_random_family_points(family, r, data):
    """At random rational points of every family, the solver returns None
    or a recurrence whose expanded residual is zero; twenty7-32 has none;
    where a stored general recurrence with the same shift specializes, the
    two agree up to scaling.  At r = 2, sixty4-a and twenty7-64 give
    systems some hundreds of bits wide, so `_nullspace` runs on wide
    images end to end."""
    params = data.draw(st.tuples(*[_small_fractions] * len(family.param_names)))
    term = family_point(family, params)
    rec = zeilberger_two_term(term, r)
    if family is FamilyId.TWENTY7_32:
        assert rec is None
    if rec is None:
        return
    assert rec.r == r
    assert recurrence_residual(term, symbolic(rec)).is_zero
    stored = builtin_recurrence(family)
    if stored is None or stored.r != r:
        return
    try:
        spec = specialize(stored, dict(zip(family.param_names, params)))
    except ZeroDivisionError:
        return
    assert same_ratio(rec, spec)


def test_derived_normalization_conventions():
    params = (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))
    term = family_instantiate(FamilyId.QUARTER, params)
    rec = zeilberger_two_term(term, 1)
    p1, p2 = rec.p1, rec.p2
    assert p2.lc > 0
    c1, c2 = content(p1), content(p2)
    assert c1.denominator == 1 and c2.denominator == 1
    from math import gcd
    assert gcd(c1.numerator, c2.numerator) == 1


# ---------------------------------------------------------------------------
# The residual numerator against exact evaluation
# ---------------------------------------------------------------------------


def _residual_at(term, rec, point):
    """p1 rho_n + p2 - (cert(k+1) rho_k - cert) at a rational point, in
    Fractions, for a symbolic recurrence; None at a pole of any quotient."""
    k1 = {**point, "k": point["k"] + 1}
    try:
        rho_n = quotient_eval(n_shift_ratio(term, rec.r), point)
        rho_k = quotient_eval(k_shift_ratio(term), point)
        cert, cert_k1 = quotient_eval(rec.cert, point), quotient_eval(rec.cert, k1)
    except ZeroDivisionError:
        return None
    return (evaluate(rec.p1, point) * rho_n + evaluate(rec.p2, point)
            - (cert_k1 * rho_k - cert))


def test_residual_verdict_matches_exact_evaluation(derivation_recipes):
    """On the 39 solver recurrences and one seeded single-coefficient
    corruption of p1 or p2 for each, the residual numerator is zero
    exactly when the identity evaluates to zero at random rational (n, k)."""
    rng = random.Random(2024)
    solved = [(term, symbolic(rec)) for e, term, rec in derivation_recipes
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
    rec = symbolic(zeilberger_two_term(term, 1))
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
    return _Product(1, [(poly_grid(poly), shifted)])


def _nk_terms(poly):
    """The (i, j, c) of the terms c n^i k^j of an integer MultiPoly in n and k."""
    n, k = exact_arith.VARS.index("n"), exact_arith.VARS.index("k")
    assert all(c.denominator == 1 for _, c in poly.terms)
    return [(e[n], e[k], int(c)) for e, c in poly.terms]


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
    terms = _nk_terms(expanded)
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
        assert recurrence_residual(term, symbolic(rec)).is_zero, e.id


_PARTS = ("p1", "p2", "cert_num", "cert_den")


def _perturbed(rec, part, delta):
    """The symbolic recurrence with delta added to one of its parts."""
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
    """Adding delta n^a to p1 or p2, or delta n^a k^b to Cn or Cd, gives
    the same verdict from the image as from the expanded residual."""
    term, rec = solved[index]
    mono = MultiPoly.var("n", a) * F(delta)
    if part.startswith("cert"):
        mono = mono * MultiPoly.var("k", b)
    bad = _perturbed(symbolic(rec), part, mono)
    want = _verdict(lambda t, r: recurrence_residual(t, r).is_zero, term, bad)
    assert _verdict(lambda t, r: verify_recurrence(t, specialize(r, {})),
                    term, bad) == want


def test_kronecker_test_rejects_single_unit_changes(solved):
    """A change of 1 in any one coefficient of p1, p2, Cn or Cd breaks
    every solver recurrence, and the image sees it."""
    for term, rec in solved:
        sym = symbolic(rec)
        for part, poly in zip(_PARTS, (sym.p1, sym.p2, *sym.cert)):
            for mono, _ in poly.terms[:3]:
                bad = _perturbed(sym, part, MultiPoly.from_dict({mono: 1}))
                assert verify_recurrence(term, specialize(bad, {})) is False


def test_kronecker_test_zero_certificate_denominator_raises(solved):
    term, rec = solved[0]
    with pytest.raises(ZeroDivisionError):
        verify_recurrence(term, replace(rec, cert=(rec.cert[0], ())))


def test_kronecker_test_rejects_free_parameters(solved):
    """A summand with a free parameter is refused; a recurrence cannot
    hold one, since `specialize` refuses to make one from a symbolic
    recurrence with a parameter left free."""
    term, rec = solved[0]
    with pytest.raises(ValueError, match="free parameter"):
        verify_recurrence(family_term(FamilyId.QUARTER), rec)
    sym = symbolic(rec)
    with pytest.raises(ValueError, match="^unbound variable: a$"):
        specialize(replace(sym, p1=sym.p1 + MultiPoly.var("a")), {})
    with pytest.raises(ValueError, match="^unbound variable: f$"):
        specialize(replace(sym, cert=(sym.cert[0], sym.cert[1] * MultiPoly.var("f"))),
                   {})


def test_solver_recheck_is_live(monkeypatch):
    """zeilberger_two_term re-checks what `_assemble` returns: a recurrence
    with p2 off by one is refused."""
    assemble = telescoper._assemble

    def corrupted(*args):
        rec = assemble(*args)
        return replace(rec, p2=rec.p2 + UniPoly.one())

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
    bad = replace(rec, p1=rec.p1 + UniPoly.one())

    def refuse(self, other):
        raise AssertionError("MultiPoly product in the zero test")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
    assert verify_recurrence(term, rec) is True
    assert verify_recurrence(term, bad) is False


_Q1_POINT = dict(zip("abcdef", (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3))))


def test_specialize_rejects_vanishing_certificate_denominator():
    base = builtin_recurrence(FamilyId.QUARTER)
    rec = replace(base, cert=(base.cert[0], MultiPoly.from_string("a - 1")))
    point = {**_Q1_POINT, "a": 2}
    assert _matches_reference(specialize(rec, point),
                              subst_reference.specialize(rec, point))
    with pytest.raises(ZeroDivisionError):
        specialize(rec, {**_Q1_POINT, "a": 1})


# -- specialize through substitution layouts, against the scan per call -----


def _matches_reference(spec, ref):
    """Whether `specialize` gave the reference's symbolic result: equal
    p1 and p2, and certificate grids of the same ratio."""
    cn, cd = map(grid_poly, spec.cert)
    ref_cn, ref_cd = ref.cert
    return (spec.r == ref.r and spec.p1 == ref.p1.as_unipoly("n")
            and spec.p2 == ref.p2.as_unipoly("n") and cn * ref_cd == ref_cn * cd)


def test_specialize_matches_reference_on_catalog_recipes():
    count = 0
    for e in catalog_entries():
        d = e.derivation
        base = builtin_recurrence(d.family) if d is not None else None
        if base is None:
            continue
        point = dict(zip(d.family.param_names, d.params))
        assert _matches_reference(specialize(base, point),
                                  subst_reference.specialize(base, point)), e.id
        count += 1
    assert count == 56


@pytest.mark.parametrize("family", theorem_families(), ids=lambda f: f.value)
def test_specialize_refuses_a_parameter_left_free(family):
    """A point that leaves one parameter x free, where x occurs in the
    stored recurrence, raises ValueError("unbound variable: x")."""
    base = builtin_recurrence(family)
    occurring = set().union(*(p.variables() for p in (base.p1, base.p2, *base.cert)))
    for name in family.param_names:
        assert name in occurring
        point = {v: F(1, 3) for v in family.param_names if v != name}
        with pytest.raises(ValueError, match=f"^unbound variable: {name}$"):
            specialize(base, point)


@pytest.mark.parametrize("family", theorem_families(), ids=lambda f: f.value)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_specialize_matches_reference_on_stored_recurrences(family, data):
    """The parameters at rational values, zero and negative ones among
    them, give the reference's recurrence; a certificate denominator that
    vanishes there raises ZeroDivisionError on both."""
    base = builtin_recurrence(family)
    point = {name: data.draw(_small_fractions) for name in family.param_names}
    if data.draw(st.booleans()):
        # name - value vanishes identically at the point
        name, value = data.draw(st.sampled_from(sorted(point.items())))
        base = replace(base, cert=(base.cert[0], MultiPoly.var(name)
                                   - MultiPoly.const(value)))
        with pytest.raises(ZeroDivisionError):
            subst_reference.specialize(base, point)
        with pytest.raises(ZeroDivisionError):
            specialize(base, point)
        return
    assert _matches_reference(specialize(base, point),
                              subst_reference.specialize(base, point))


def test_derive_passes_build_each_stored_layout_once(monkeypatch):
    """Two derive passes build the substitution layout of each stored
    polynomial for its family's parameters once, and no layout of a
    stored polynomial twice: the later calls reuse them."""
    builtin_recurrence.cache_clear()
    built = []
    layout = exact_arith._SubstLayout
    monkeypatch.setattr(exact_arith, "_SubstLayout",
                        lambda coeffs, names: built.append((coeffs, names))
                        or layout(coeffs, names))
    for _ in range(2):
        for e in catalog_entries():
            if e.derivation is not None:
                derive_entry(e.id)
    for family in theorem_families():
        rec = builtin_recurrence(family)
        for part in (rec.p1, rec.p2, *rec.cert):
            names = [n for coeffs, n in built if coeffs is part._coeffs]
            assert names.count(frozenset(family.param_names)) == 1, family
            assert len(set(names)) == len(names), family


def test_specialize_reads_each_polynomial_not_the_recurrence():
    """Layouts belong to polynomials: a recurrence with its parts swapped
    or copied specializes like the reference."""
    base = builtin_recurrence(FamilyId.NEG_QUARTER)
    point = {"a": F(2, 3), "b": F(1), "c": F(-1, 3)}
    spec = specialize(base, point)
    swapped = replace(base, p1=base.p2, p2=base.p1)
    assert specialize(swapped, point) == replace(spec, p1=spec.p2, p2=spec.p1)
    copied = replace(base, cert=tuple(MultiPoly.from_string(str(c))
                                      for c in base.cert))
    assert copied.cert == base.cert and copied.cert[0] is not base.cert[0]
    assert specialize(copied, point) == spec
    assert _matches_reference(spec, subst_reference.specialize(base, point))


def test_specialize_names_an_unknown_parameter():
    base = builtin_recurrence(FamilyId.QUARTER)
    with pytest.raises(ValueError, match="^unknown variable: z$"):
        specialize(base, {"z": 1})


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
        sym = symbolic(rec)
        cert_num, cert_den = sym.cert
        got = {"p1": str(sym.p1), "p2": str(sym.p2),
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


def _polys(rows):
    return [f.poly() for f in rows]


@settings(max_examples=80, deadline=None)
@given(_factor_lists())
def test_normal_form_on_factor_lists(case):
    """The row normal form of MultiPoly factor lists, read as `Affine`
    rows, is a normal form, and it is the MultiPoly reference's."""
    sk, num_polys, den_polys = case
    num = [Affine.from_poly(f) for f in num_polys]
    den = [Affine.from_poly(f) for f in den_polys]
    p_f, c, q_f, r_f = _normal_form(sk, num, den)
    p, q, r = _prod(_polys(p_f)), _prod(_polys(q_f)) * c, _prod(_polys(r_f))
    # sk prod(num) / prod(den) = (P(k+1)/P(k)) (Q/R), cross-multiplied
    assert _prod(num_polys) * sk * p * r == _prod(den_polys) * p.shift_var("k", 1) * q
    # the remaining factors come from the lists, and no pair of them
    # meets: a(k) is never a multiple of b(k+j) for j >= 0
    for f in q_f:
        assert f in num
    for f in r_f:
        assert f in den
    for a in _polys(q_f):
        for b in _polys(r_f):
            if a.degree("k") != 1 or b.degree("k") != 1:
                continue
            ma, mb = a.coeffs_in("k")[1], b.coeffs_in("k")[1]
            for j in range(40):
                assert a * mb != b.shift_var("k", j) * ma, (a, b, j)
    ref_p, ref_c, ref_q, ref_r = factor_reference.normal_form(sk, num_polys, den_polys)
    assert (_polys(p_f), c, _polys(q_f), _polys(r_f)) == (ref_p, ref_c, ref_q, ref_r)


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("family", list(FamilyId), ids=lambda f: f.value)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_row_solver_matches_the_multipoly_reference(family, r, data):
    """At random rational points of every family, the solver's row normal
    form is the MultiPoly reference's, and the solver returns the
    recurrence, or None, that the reference's expanded P, Q, R*, Nn and
    Dn give."""
    params = data.draw(st.tuples(*[_small_fractions] * len(family.param_names)))
    term = family_point(family, params)
    sk, nk, dk = k_ratio_parts(term)
    _, nn, dn = n_ratio_parts(term, r)
    p_f, c, q_f, r_f = _normal_form(sk, nk + dn,
                                    dk + tuple(f.shift("k", 1) for f in dn))
    ref_p, ref_c, ref_q, ref_r = factor_reference.solver_normal_form(term, r)
    assert (_polys(p_f), c, _polys(q_f), _polys(r_f)) == (ref_p, ref_c, ref_q, ref_r)
    assert zeilberger_two_term(term, r) == factor_reference.reference_recurrence(term, r)


# the recipes whose nullspace vector has a content smaller than
# gcd(p1, p2): some x_i is not divisible by that gcd
_FALLBACK_RECIPES = ("F427-1", "S64-2", "S64-6", "S64-R1", "S64-R3", "S2764-2",
                     "S2764-3")


def _pinned_solves():
    with open(_PINS) as fh:
        pins = json.load(fh)
    for pin in pins:
        name = pin.get("recipe", pin.get("control"))
        term = (derivation_term(entry(name)) if "recipe" in pin
                else _CONTROLS[name]())
        yield name, term, pin["r"]


def test_grid_solver_matches_the_multipoly_reference_on_pinned_solves():
    """On the 39 recipe solves and the 6 controls of the pins, the grid
    solver returns the MultiPoly reference's recurrence, or None."""
    count = 0
    for name, term, r in _pinned_solves():
        assert zeilberger_two_term(term, r) == factor_reference.reference_recurrence(
            term, r), name
        count += 1
    assert count == 45


def _divides(a, b):
    try:
        _zdiv(b, a)
    except ValueError:
        return False
    return True


def test_vector_content_takes_the_gcd_fallback_on_seven_recipes(monkeypatch):
    """gcd(p1, p2) divides every x_i of the solver's nullspace vector,
    so is its content, except on the seven fallback recipes, which the
    pinned solves above check against the reference."""
    vectors = {}
    assemble = telescoper._assemble

    def record(vec, deg, *args):
        vectors[name] = vec, deg
        return assemble(vec, deg, *args)

    monkeypatch.setattr(telescoper, "_assemble", record)
    for name, term, r in _pinned_solves():
        zeilberger_two_term(term, r)
    fallback = set()
    for name, (vec, deg) in vectors.items():
        g = _zgcd(vec[-2], vec[-1])
        if not all(_divides(g, x) for x in vec[:deg + 1]):
            fallback.add(name)
    assert fallback == set(_FALLBACK_RECIPES)


@settings(max_examples=30, deadline=None)
@given(recipe=st.sampled_from(_FALLBACK_RECIPES + ("Q1", "FR-1", "S64-4")),
       factor=st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
           lambda u: u[-1] != 0))
def test_assemble_divides_out_a_polynomial_factor_of_the_vector(recipe, factor):
    """`_assemble` gives the same recurrence from the solver's vector
    times any nonzero u in Z[n], so only the vector's direction counts."""
    term = derivation_term(entry(recipe))
    calls = []
    assemble = telescoper._assemble
    try:
        telescoper._assemble = lambda *args: calls.append(args) or assemble(*args)
        rec = zeilberger_two_term(term, entry(recipe).derivation.r)
    finally:
        telescoper._assemble = assemble
    (vec, deg, *rest), = calls
    assert assemble([_zmul(x, factor) for x in vec], deg, *rest) == rec


# ---------------------------------------------------------------------------
# Integer grids of affine factors
# ---------------------------------------------------------------------------


def _grid_reference(factors, rows=((1,),), den=1):
    """`telescoper._grid` with two `_zmul` and one `_zsub` per row and
    factor (test reference)."""
    n, k = exact_arith.VARS.index("n"), exact_arith.VARS.index("k")
    rows = [list(row) for row in rows]
    for f in factors:
        u, s, m = f.row[-1], f.row[n], f.row[k]
        rows = [_zsub(_zmul(row, [u, s]), _zmul(below, [-m]))
                for row, below in zip(rows + [[]] if m else rows, [[]] + rows)]
        den *= f.den
    return rows, den


def _as_lists(grid):
    rows, den = grid
    return [list(row) for row in rows], den


_nk_affine = st.builds(
    lambda m, s, u, d: Affine.new([0] * 6 + [s, m, 0, u], d),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-9, 9),
    st.integers(1, 6)).filter(lambda f: any(f.row))
_grid_rows = st.lists(st.lists(st.integers(-20, 20), max_size=4).map(
    lambda cs: _zsub(cs, [])), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(_nk_affine, max_size=5), _grid_rows, st.integers(1, 9))
def test_grid_matches_the_two_product_reference(factors, rows, den):
    """The one-pass `_grid` gives the reference's rows and denominator,
    zero constants, zero rows and factors free of k or of n among them."""
    assert (_as_lists(telescoper._grid(factors, rows, den))
            == _grid_reference(factors, rows, den))


def test_grids_of_a_derive_pass_match_the_reference(monkeypatch):
    """Every `_grid` a derive pass over the 95 recipes builds, in the
    solver, its re-check and the stream, is the reference's."""
    from hyperaccel import accelerator

    grid, calls = telescoper._grid, []

    def checked(*args):
        got = grid(*args)
        assert _as_lists(got) == _grid_reference(*args)
        calls.append(args)
        return got

    monkeypatch.setattr(telescoper, "_grid", checked)
    monkeypatch.setattr(accelerator, "_grid", checked)
    for e in catalog_entries():
        if e.derivation is not None:
            derive_entry(e.id)
    assert len(calls) > 95 * 2


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


# ---------------------------------------------------------------------------
# `_nullspace` on Kronecker images against the list reference
# ---------------------------------------------------------------------------


def _plain_nullspace(rows):
    """Bareiss elimination and Cramer back-substitution on coefficient
    lists throughout (test reference for `_nullspace`)."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(row) for row in rows]
    piv_cols = []
    prev = [1]
    rpos = 0
    for col in range(ncols):
        sel = next((i for i in range(rpos, len(mat)) if mat[i][col]), None)
        if sel is None:
            continue
        mat[rpos], mat[sel] = mat[sel], mat[rpos]
        top = mat[rpos]
        pv = top[col]
        for i in range(rpos + 1, len(mat)):
            row = mat[i]
            ci = row[col]
            for j in range(col, ncols):
                row[j] = _zdiv(_zsub(_zmul(pv, row[j]), _zmul(ci, top[j])), prev)
        piv_cols.append(col)
        prev = pv
        rpos += 1
        if rpos == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [[] for _ in range(ncols)]
        vec[fc] = prev
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            row = mat[i]
            s = []
            for j in range(pc + 1, ncols):
                if vec[j] and row[j]:
                    s = _zsub(s, _zmul(row[j], vec[j]))
            vec[pc] = _zdiv(s, row[pc])
        basis.append(vec)
    return basis


def _height(rows):
    """H of `_image_bits`: over the m = min(rows, columns) heaviest rows,
    or columns if less, the product of max(1, sum of entry l1 norms)."""
    m = min(len(rows), len(rows[0]))
    best = None
    for lines in (rows, [[row[j] for row in rows] for j in range(len(rows[0]))]):
        weights = sorted(max(1, sum(abs(c) for e in line for c in e))
                         for line in lines)
        out = 1
        for w in weights[len(weights) - m:]:
            out *= w
        best = out if best is None else min(best, out)
    return best


# one narrow and one wide system, with images of 7 and 484 bits
_NARROW = [[[1, -2, 3], [0, 0, 0, 0, 0, 0, 0, 0, -3], [2]],
           [[], [3, 1], [-1, 0, 1]]]
_WIDE = [[[2 ** 120 - 1, -2 ** 119, 3], [5, 0, -2 ** 120], [1], []],
         [[-2 ** 120, 0, 0, 7], [2 ** 118], [-9, 2 ** 100], [3]],
         [[1, 2 ** 120], [-2 ** 120 + 3], [0, 0, 0, 0, 0, 0, 0, 0, 2 ** 120], [1]],
         [[2 ** 110, 2 ** 110], [1, 1], [], [-(2 ** 120)]]]


def test_image_bits_take_the_lighter_m_lines():
    """H takes only m = min(rows, columns) lines, rows or columns,
    whichever product is smaller; the bases still match the reference."""
    tall = [[[3], [1, 1], []] for _ in range(24)]
    # rows: 5^3 = 125 over the 3 heaviest; columns: 72 * 48 * 1
    assert _image_bits(tall) == (125).bit_length() + 1
    skew = [[[2 ** 100], [1], [1]], [[2 ** 100], [-1], []]]
    # columns: 2^101 * 2 over the 2 heaviest; rows: about 2^200
    assert _image_bits(skew) == (2 ** 102).bit_length() + 1
    for rows in (tall, skew):
        assert _image_bits(rows) == _height(rows).bit_length() + 1
        assert _nullspace(rows) == _plain_nullspace(rows)


@st.composite
def _wide_matrices(draw):
    """Matrices over Z[n] with coefficients up to +-3 .. +-2^120 and
    n-degree up to 8, with dependent rows and all-zero rows and columns."""
    size = draw(st.sampled_from([3, 2 ** 20, 2 ** 60, 2 ** 120]))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-size, size),
                      st.sampled_from([size, -size, size - 1, 1 - size]))
    poly = st.lists(coeff, max_size=9).map(lambda cs: _zsub(cs, []))
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(poly, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        zero_col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero_col] = []
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [[] for _ in range(ncols)])
    if len(rows) >= 2 and draw(st.booleans()):
        # c rows[i] + rows[j] for a polynomial c
        i, j = draw(st.permutations(range(len(rows))))[:2]
        c = draw(poly)
        rows.append([_zsub(_zmul(c, x), _zsub([], y))
                     for x, y in zip(rows[i], rows[j])])
    return rows


@settings(max_examples=80, deadline=None)
@given(_wide_matrices())
@example(_NARROW)
@example(_WIDE)
def test_nullspace_matches_list_reference(rows):
    """`_nullspace` returns the reference's basis entry for entry, and
    no basis coefficient reaches 2^(B-1)."""
    basis = _nullspace(rows)
    assert basis == _plain_nullspace(rows)
    half = 1 << (_image_bits(rows) - 1)
    assert all(abs(c) < half for vec in basis for e in vec for c in e)


def _mono(c, d):
    return [0] * d + [c]


# 2^64 - 1 = 65535 * 65537 * 4294967297
_EDGES = {
    "diagonal, basis entry -H = -(2^64 - 1)": [
        [_mono(-65535, 2), [], [], []],
        [[], _mono(65537, 0), [], []],
        [[], [], _mono(4294967297, 5), []]],
    "diagonal, basis entry +H = 2^64 - 1": [
        [_mono(65535, 0), [], [], []],
        [[], _mono(65537, 1), [], []],
        [[], [], _mono(4294967297, 0), []]],
    "diagonal, basis entry -H = -2^80": [
        [_mono(2 ** 40, 3), [], []],
        [[], _mono(-(2 ** 40), 0), []]],
    "row swap, basis entry +-H": [
        [[], _mono(-(2 ** 50 - 1), 1), []],
        [_mono(2 ** 30 + 1, 0), [], []]],
    "triangular staircase, pivot columns skipped, entries +-H": [
        [_mono(-7, 1), [], [], [], []],
        [[], [], _mono(2 ** 63 - 1, 0), [], []],
        [[], [], [], _mono(-(2 ** 33), 4), []]],
    # B = bit_length(H) + 1 = 320 and 321
    "one row, basis entry H = 2^318": [[_mono(2 ** 318, 0), []]],
    "one row, basis entry H = 2^319": [[_mono(-(2 ** 319), 0), []]],
}


@pytest.mark.parametrize("name", sorted(_EDGES))
def test_nullspace_unpacks_basis_entries_of_size_h(name):
    """Monomial matrices, one nonzero entry a row, have a minor whose one
    coefficient is +-H, the largest any unpacked coefficient can reach;
    it comes back exactly."""
    rows = _EDGES[name]
    basis = _nullspace(rows)
    assert basis == _plain_nullspace(rows)
    h = _height(rows)
    assert h in {abs(c) for vec in basis for e in vec for c in e}


@pytest.mark.parametrize("rows", [
    [],
    [[[1, 2], [3], [-1, 0, 5]]],
    [[[], [], []]],
    [[[], [2, 1], []], [[], [-3], []], [[], [], []], [[], [0, 0, 4], []]],
    [[[5]], [[-2, 1]]],
    [[[2 ** 200, 1]], [[0, 2 ** 200]], [[1]]],
], ids=["empty", "one row", "zero row", "one nonzero column",
        "one column", "one wide column"])
def test_nullspace_edge_shapes_match_reference(rows):
    assert _nullspace(rows) == _plain_nullspace(rows)


def test_catalog_systems_match_the_list_reference(monkeypatch, solved):
    """Every system the 39 solver recipes of a derive pass eliminate
    gives the reference's basis."""
    systems = []

    def record(rows):
        systems.append([list(row) for row in rows])
        return _nullspace(rows)

    monkeypatch.setattr(telescoper, "_nullspace", record)
    for term, rec in solved:
        assert zeilberger_two_term(term, rec.r) == rec
    assert len(systems) == 39
    for rows in systems:
        assert _nullspace(rows) == _plain_nullspace(rows)


@pytest.mark.parametrize("family,params", [
    (FamilyId.SIXTY4_A, (F(3), F(-4, 3), F(9, 5))),
    (FamilyId.TWENTY7_64, (F(12), F(7, 6), F(4))),
])
def test_wide_solves_match_the_list_reference(monkeypatch, family, params):
    """An r = 2 solve whose images are over 400 bits wide: its system has
    the reference's basis, and the solve ends as it does on the
    reference elimination."""
    term = family_instantiate(family, params)
    systems = []

    def record(rows):
        systems.append([list(row) for row in rows])
        return _nullspace(rows)

    monkeypatch.setattr(telescoper, "_nullspace", record)
    rec = zeilberger_two_term(term, 2)
    assert len(systems) == 1 and _image_bits(systems[0]) > 400
    assert _nullspace(systems[0]) == _plain_nullspace(systems[0])
    monkeypatch.setattr(telescoper, "_nullspace", _plain_nullspace)
    assert zeilberger_two_term(term, 2) == rec
