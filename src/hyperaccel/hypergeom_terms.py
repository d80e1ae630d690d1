"""Hypergeometric summand model and the eleven built-in summand families.

Representation: a summand F(n, k) is a `HypTerm`, a product of Gamma-function
factors with integer exponents and an optional alternating sign (-1)^k.  Each
`GammaFactor` stores the Gamma argument as an `Affine` row, integer
coefficients of the parameter variables a-f, the indices n, k and the
constant over one denominator; a MultiPoly argument of degree at most one is
converted once.  Pochhammer symbols and binomial coefficients are expressed
through Gamma factors, so a shift of either index turns into a finite product
of affine factors and every term ratio is an exact rational function.

`k_ratio_parts` gives F(n, k+1)/F(n, k) and `n_ratio_parts` gives
F(n+r, k)/F(n, k) as a sign and two tuples of `Affine` factors, the
numerator's and the denominator's, with identical pairs cancelled.  A term
builds each of them once and keeps it as long as it lives, so the solver, its
exact re-check and the accelerated stream of one summand share the factors.
`k_shift_ratio` and `n_shift_ratio` expand the same ratios into a
(numerator, denominator) pair of MultiPolys with integer, jointly primitive
parts.  The remainder check of an accelerated stream needs no expansion: it
reads each k-sum off the k-ratio factors (accelerator.k_series_at).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Mapping, Sequence

from hyperaccel.exact_arith import (Affine, MultiPoly, Rational, Scalar,
                                    _primitive_pair)

_ONE = MultiPoly.one()

# the sign, numerator and denominator factors of a shift ratio
RatioParts = tuple[Fraction, tuple[Affine, ...], tuple[Affine, ...]]


@dataclass(frozen=True)
class GammaFactor:
    """Gamma(arg) ** exponent with an affine argument, given as an `Affine`
    or as a MultiPoly of degree at most one."""

    arg: Affine
    exponent: int

    def __post_init__(self) -> None:
        if isinstance(self.arg, MultiPoly):
            row = Affine.from_poly(self.arg)
            if row is None:
                raise ValueError("Gamma argument must be affine")
            object.__setattr__(self, "arg", row)


@dataclass(frozen=True)
class HypTerm:
    """Product of Gamma factors times sign_base**k, sign_base in {1, -1}."""

    gammas: tuple[GammaFactor, ...]
    sign_base: int = 1
    # the ratio parts by (index, step), each built on first use
    _ratios: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        if self.sign_base not in (1, -1):
            raise ValueError("sign_base must be 1 or -1")

    def subst(self, point: Mapping[str, Scalar]) -> "HypTerm":
        return HypTerm(
            tuple(GammaFactor(g.arg.subst(point), g.exponent) for g in self.gammas),
            self.sign_base,
        )


def _gamma_shift_factors(arg: Affine, s: int) -> tuple[list[Affine], int]:
    """Factors of Gamma(arg + s)/Gamma(arg) and their side (+1 num, -1 den)."""
    if s > 0:
        return [arg.plus(i) for i in range(s)], +1
    if s < 0:
        return [arg.plus(-i) for i in range(1, -s + 1)], -1
    return [], +1


def _cancel_common(num: list[Affine], den: list[Affine]) -> tuple[list[Affine], list[Affine]]:
    """Remove identical factor pairs."""
    out_den = list(den)
    out_num = []
    for p in num:
        if p in out_den:
            out_den.remove(p)
        else:
            out_num.append(p)
    return out_num, out_den


def _factor_lists(term: HypTerm, index: str, step: int) -> RatioParts:
    """Sign and affine factors of F(..., index + step, ...)/F(..., index, ...)."""
    num: list[Affine] = []
    den: list[Affine] = []
    for g in term.gammas:
        shift = g.arg.coeff(index) * step
        if shift.denominator != 1:
            raise ValueError(
                "not hypergeometric in k" if index == "k"
                else f"not hypergeometric in n with shift {step}"
            )
        factors, side = _gamma_shift_factors(g.arg, int(shift))
        target = num if side * g.exponent > 0 else den
        for p in factors:
            for _ in range(abs(g.exponent)):
                target.append(p)
    num, den = _cancel_common(num, den)
    sign = Fraction(term.sign_base ** (step % 2)) if index == "k" else Fraction(1)
    return sign, tuple(num), tuple(den)


def _ratio_parts(term: HypTerm, index: str, step: int) -> RatioParts:
    """`_factor_lists` of the term, built once per term."""
    key = (index, step)
    parts = term._ratios.get(key)
    if parts is None:
        parts = term._ratios[key] = _factor_lists(term, index, step)
    return parts


def k_ratio_parts(term: HypTerm) -> RatioParts:
    """Factored form of F(n, k+1)/F(n, k)."""
    return _ratio_parts(term, "k", 1)


def n_ratio_parts(term: HypTerm, r: int) -> RatioParts:
    """Factored form of F(n+r, k)/F(n, k), for r >= 1."""
    if r < 1:
        raise ValueError("n-shift must be a positive integer")
    return _ratio_parts(term, "n", r)


def _parts_to_pair(parts: RatioParts) -> tuple[MultiPoly, MultiPoly]:
    sign, num, den = parts
    return _primitive_pair(prod((f.poly() for f in num), start=MultiPoly.const(sign)),
                           prod((f.poly() for f in den), start=_ONE))


def k_shift_ratio(term: HypTerm) -> tuple[MultiPoly, MultiPoly]:
    """F(n, k+1)/F(n, k) as an exact (numerator, denominator) pair."""
    return _parts_to_pair(k_ratio_parts(term))


def n_shift_ratio(term: HypTerm, r: int) -> tuple[MultiPoly, MultiPoly]:
    """F(n+r, k)/F(n, k) as an exact (numerator, denominator) pair."""
    return _parts_to_pair(n_ratio_parts(term, r))


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


class FamilyId(enum.Enum):
    QUARTER = "quarter"
    NEG_QUARTER = "neg-quarter"
    NEG_27 = "neg-27"
    FOUR_27 = "four-27"
    SIXTEEN_27_A = "sixteen-27-a"
    SIXTEEN_27_B = "sixteen-27-b"
    SIXTY4_A = "sixty4-a"
    SIXTY4_B = "sixty4-b"
    TWENTY7_64 = "twenty7-64"
    NEG_64 = "neg-64"
    TWENTY7_32 = "twenty7-32"

    @property
    @lru_cache(maxsize=None)
    def param_names(self) -> tuple[str, ...]:
        """The free parameters of the family summand, in order: the
        variables of its Gamma arguments other than n and k."""
        free = set().union(*(g.arg.variables() for g in family_term(self).gammas))
        return tuple(sorted(free - {"n", "k"}))


def _A(text: str) -> MultiPoly:
    return MultiPoly.from_string(text)


def _poch(base: str, index: str, exponent: int) -> list[GammaFactor]:
    """(base)_index = Gamma(base + index)/Gamma(base), with given exponent."""
    b, i = _A(base), _A(index)
    return [GammaFactor(b + i, exponent), GammaFactor(b, -exponent)]


def _binom_n_k() -> list[GammaFactor]:
    """C(n, k) = Gamma(n+1) / (Gamma(k+1) Gamma(n-k+1))."""
    return [
        GammaFactor(_A("n + 1"), 1),
        GammaFactor(_A("k + 1"), -1),
        GammaFactor(_A("n + 1") - _A("k"), -1),
    ]


def _term(factors: list[GammaFactor], sign: int = 1) -> HypTerm:
    return HypTerm(tuple(factors), sign)


@lru_cache(maxsize=None)
def family_term(family: FamilyId) -> HypTerm:
    """The family summand with symbolic parameters, built once per family."""
    if family is FamilyId.QUARTER:
        return _term(
            _poch("a", "k + f", 1) + _poch("b", "k + e", 1)
            + _poch("n", "k + d", -1) + _poch("n", "k + c", -1)
        )
    if family is FamilyId.NEG_QUARTER:
        return _term(
            _poch("a", "k + c", 1) + _poch("b", "k + c", 1)
            + _poch("a + n", "k", -1) + _poch("b + n", "k", -1),
            sign=-1,
        )
    if family is FamilyId.NEG_27:
        return _term(
            _poch("a", "k", 1) + _poch("n", "k + d", 1)
            + _poch("2n", "k + c", -1) + _poch("2n", "k + b", -1)
        )
    if family is FamilyId.FOUR_27:
        return _term(
            _poch("a", "k", 1) + _poch("b", "k", 1)
            + _poch("n", "k", -1) + _poch("2n", "c + k", -1)
        )
    if family is FamilyId.SIXTEEN_27_A:
        return _term(
            _binom_n_k() + _poch("1", "k", 1) + _poch("3n + b", "k + a", -1)
        )
    if family is FamilyId.SIXTEEN_27_B:
        return _term(
            _binom_n_k() + _poch("2", "k", 1) + _poch("3n + b", "a + k", -1)
        )
    if family is FamilyId.SIXTY4_A:
        return _term(
            _poch("a", "k", 1) + _poch("2n", "k", 1)
            + _poch("3n", "b + k", -1) + _poch("3n", "c + k", -1)
        )
    if family is FamilyId.SIXTY4_B:
        return _term(
            _poch("n", "k", 1) + _poch("n", "k + c", 1)
            + _poch("2n", "k + b", -1) + _poch("2n", "k + a", -1)
        )
    if family is FamilyId.TWENTY7_64:
        return _term(
            _poch("n", "k", 1) + _poch("2n", "k", 1)
            + _poch("4n", "b + k", -1) + _poch("a + n", "c + k", -1)
        )
    if family is FamilyId.NEG_64:
        return _term(
            _poch("a", "k", 1) + _poch("n", "k", 1)
            + _poch("3n", "b + k", -1) + _poch("2n", "c + k", -1)
        )
    if family is FamilyId.TWENTY7_32:
        return _term(
            _binom_n_k() + _poch("1", "k", 1) + _poch("2k + b", "k + a", -1)
        )
    raise ValueError(f"unknown family {family!r}")


def family_instantiate(family: FamilyId, params: Sequence[Rational]) -> HypTerm:
    """Substitute rational parameter values; n and k stay symbolic.
    Raises ValueError on a wrong count, and on a Gamma argument put on a
    pole, an integer <= 0, naming the parameter and the factor."""
    names = family.param_names
    if len(params) != len(names):
        raise ValueError(
            f"family {family.value} expects {len(names)} parameters, got {len(params)}"
        )
    point = {name: Fraction(v) for name, v in zip(names, params)}
    general = family_term(family)
    term = general.subst(point)
    for g, at in zip(general.gammas, term.gammas):
        *lin, u = at.arg.row
        if not any(lin) and at.arg.den == 1 and u <= 0:
            values = ", ".join(f"{v} = {point[v]}" for v in sorted(g.arg.variables()))
            raise ValueError(f"parameter {values} puts Gamma({g.arg.poly()}) at a pole")
    return term
