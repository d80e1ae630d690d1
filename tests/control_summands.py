"""Test-only summands: alternating controls, which instantiated admit no
two-term recurrence at unit n-offset, so the solver must return None, and
family summands at any tuple."""

from fractions import Fraction

from hyperaccel.hypergeom_terms import FamilyId, HypTerm, _poch, _term, family_term


def family_point(family: FamilyId, params) -> HypTerm:
    """The family summand at a parameter tuple, substituted as
    `family_instantiate` does, without its refusal of a tuple that puts
    a Gamma factor free of n and k at a pole: the properties over random
    tuples hold for the summand's ratios there too."""
    point = {name: Fraction(v) for name, v in zip(family.param_names, params)}
    return family_term(family).subst(point)


def alt_control_single_offset(a, b, c) -> HypTerm:
    """(-1)^k (a)_k (b)_k / ((a+n)_k (b+n)_{k+c}), instantiated."""
    term = _term(
        _poch("a", "k", 1) + _poch("b", "k", 1)
        + _poch("a + n", "k", -1) + _poch("b + n", "k + c", -1),
        sign=-1,
    )
    return term.subst({"a": Fraction(a), "b": Fraction(b), "c": Fraction(c)})


def alt_control_double_offset(a, b, c, d) -> HypTerm:
    """(-1)^k (a)_k (b)_k / ((a+n)_{k+d} (b+n)_{k+c}), instantiated."""
    term = _term(
        _poch("a", "k", 1) + _poch("b", "k", 1)
        + _poch("a + n", "k + d", -1) + _poch("b + n", "k + c", -1),
        sign=-1,
    )
    return term.subst({"a": Fraction(a), "b": Fraction(b), "c": Fraction(c),
                       "d": Fraction(d)})
