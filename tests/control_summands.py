"""Test-only alternating control summands: instantiated, they admit no
two-term recurrence at unit n-offset, so the solver must return None."""

from fractions import Fraction

from hyperaccel.hypergeom_terms import HypTerm, _poch, _term


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
