"""The integer MultiPoly against the tuple/Fraction arithmetic it replaced.

MultiPoly keeps integer numerators over one common denominator and packs
each exponent vector into one integer key.  `_RefPoly` below is the
earlier representation, a sorted tuple of (exponent tuple, Fraction)
terms with the same algorithms, kept here only as a reference.  Every
operation is compared term by term, in the public `terms` order, on
Hypothesis polynomials over several of the nine variables.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperaccel.exact_arith import (VARS, Affine, MultiPoly, UniPoly,
                                    _primitive_pair)

import subst_reference

F = Fraction
_NVARS = len(VARS)
_INDEX = {v: i for i, v in enumerate(VARS)}


@dataclass(frozen=True)
class _RefPoly:
    """Reference: sorted (exponent tuple, Fraction) terms, nonzero only."""

    terms: tuple

    @staticmethod
    def from_dict(d):
        return _RefPoly(tuple(sorted((e, F(c)) for e, c in d.items() if c)))

    @staticmethod
    def var(name):
        e = [0] * _NVARS
        e[_INDEX[name]] = 1
        return _RefPoly(((tuple(e), F(1)),))

    @staticmethod
    def const(c):
        return _RefPoly.from_dict({(0,) * _NVARS: c})

    @staticmethod
    def from_unipoly(u, name):
        d = {}
        for x, c in enumerate(u.coeffs):
            e = [0] * _NVARS
            e[_INDEX[name]] = x
            d[tuple(e)] = c
        return _RefPoly.from_dict(d)

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, F(0)) + c
        return _RefPoly.from_dict(d)

    def __neg__(self):
        return _RefPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefPoly.from_dict({e: c * other for e, c in self.terms})
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                d[e] = d.get(e, F(0)) + c1 * c2
        return _RefPoly.from_dict(d)

    def __pow__(self, n):
        out = _RefPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def subst(self, point):
        vals = {_INDEX[v]: F(x) for v, x in point.items()}
        d = {}
        for e, c in self.terms:
            ne = list(e)
            for i, v in vals.items():
                c *= v ** ne[i]
                ne[i] = 0
            d[tuple(ne)] = d.get(tuple(ne), F(0)) + c
        return _RefPoly.from_dict(d)

    def coeffs_in(self, name):
        i = _INDEX[name]
        if not self.terms:
            return []
        buckets = [{} for _ in range(max(e[i] for e, _ in self.terms) + 1)]
        for e, c in self.terms:
            ne = list(e)
            buckets[ne[i]][tuple(ne[:i] + [0] + ne[i + 1:])] = c
        return [_RefPoly.from_dict(b) for b in buckets]

    def subst_poly(self, name, repl):
        out = _RefPoly(())
        for c in reversed(self.coeffs_in(name)):
            out = out * repl + c
        return out

    def as_unipoly(self, name):
        i = _INDEX[name]
        out = [F(0)] * (max((e[i] for e, _ in self.terms), default=-1) + 1)
        for e, c in self.terms:
            if any(x for j, x in enumerate(e) if j != i):
                raise ValueError("unbound variable")
            out[e[i]] += c
        return UniPoly.from_coeffs(out)

    def content(self):
        if not self.terms:
            return F(0)
        return F(gcd(*(c.numerator for _, c in self.terms)),
                 lcm(*(c.denominator for _, c in self.terms)))

    def lead_coeff(self):
        return self.terms[-1][1] if self.terms else F(0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, key=lambda t: (-sum(t[0]), t[0])):
            mono = "".join(VARS[i] if x == 1 else f"{VARS[i]}^{x}"
                           for i, x in enumerate(e) if x)
            cs = ("-" if c < 0 else "") if mono and abs(c) == 1 else str(c)
            parts.append(f"{cs}{mono}" if mono else cs)
        return " + ".join(parts).replace("+ -", "- ")


# exponent vectors with up to three variables set, drawn from all nine
_exps = st.dictionaries(st.integers(0, _NVARS - 1), st.integers(1, 3),
                        max_size=3).map(
    lambda d: tuple(d.get(i, 0) for i in range(_NVARS)))
_coeffs = st.one_of(st.integers(-30, 30),
                    st.fractions(min_value=-20, max_value=20,
                                 max_denominator=12))
_dicts = st.dictionaries(_exps, _coeffs, max_size=6)
_nonzero_dicts = _dicts.filter(lambda d: any(d.values()))
_scalars = st.one_of(st.integers(-6, 6),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=9))
_names = st.sampled_from(VARS)


def both(d):
    return MultiPoly.from_dict(d), _RefPoly.from_dict(d)


def same(p, r):
    """p matches the reference r term by term, in order and in print."""
    assert len(p.terms) == len(r.terms)
    assert tuple(p.terms) == r.terms
    assert str(p) == str(r)
    return True


@settings(max_examples=150)
@given(_dicts)
@example({(1, 0, 0, 0, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 0, 0, 0, 3): 2,
          (0, 0, 0, 0, 0, 0, 2, 1, 0): F(-1, 2)})
def test_terms_order_str_content_lead_match_reference(d):
    p, r = both(d)
    assert same(p, r)
    assert dict(p.terms) == r.as_dict()
    assert p.content() == r.content()
    assert p.lead_coeff() == r.lead_coeff()
    assert p.is_zero == (not r.terms)


@settings(max_examples=150)
@given(_dicts, _dicts, _scalars, st.integers(0, 3))
def test_ring_operations_match_reference(d1, d2, c, e):
    (p, r), (q, s) = both(d1), both(d2)
    assert same(p + q, r + s)
    assert same(p - q, r - s)
    assert same(-p, -r)
    assert same(p * q, r * s)
    assert same(p * c, r * c)
    assert same(c * p, r * c)
    assert same(p ** e, r ** e)


# every subset of the nine variables, so also names the polynomial lacks
_points = st.sets(_names).flatmap(
    lambda names: st.fixed_dictionaries({name: _scalars for name in names}))


@settings(max_examples=150)
@given(_dicts, _points, st.data())
@example({(1, 2, 0, 0, 0, 0, 3, 1, 0): F(3, 2), (0, 0, 0, 0, 0, 0, 1, 0, 0): -2},
         dict.fromkeys(VARS, 0), None)
@example({(0, 0, 0, 0, 0, 0, 1, 2, 0): 5}, {"a": F(-1, 3)}, None)
def test_subst_matches_reference(d, point, data):
    """subst, through the layout built on its first call, matches the
    tuple reference term by term and equals `subst_reference`, which
    scans the keys on every call; a second call with the same names and
    other values reuses the layout and still does, and the layout leaves
    == and hash alone."""
    p, r = both(d)
    assert same(p.subst(point), r.subst(point))
    assert p.subst(point) == subst_reference.subst(p, point)
    if data is not None:
        again = {name: data.draw(_scalars) for name in point}
        assert p.subst(again) == subst_reference.subst(p, again)
    fresh = MultiPoly.from_dict(d)
    assert p == fresh and hash(p) == hash(fresh)


def test_subst_names_an_unknown_variable():
    p = MultiPoly.from_string("a n + k")
    p.subst({"a": 1})
    for point in ({"z": 1}, {"a": 1, "z": 1}):
        with pytest.raises(ValueError, match="^unknown variable: z$"):
            p.subst(point)
        with pytest.raises(ValueError, match="^unknown variable: z$"):
            Affine.from_poly(p.subst({"a": 1})).subst(point)


@settings(max_examples=100)
@given(_dicts, _dicts, _names, _scalars)
def test_subst_poly_and_shift_var_match_reference(d1, d2, name, s):
    (p, r), (q, t) = both(d1), both(d2)
    assert same(p.subst_poly(name, q), r.subst_poly(name, t))
    shifted = r.subst_poly(name, _RefPoly.var(name) + _RefPoly.const(s))
    assert same(p.shift_var(name, s), shifted)


@settings(max_examples=100)
@given(_dicts, _names)
def test_coeffs_in_matches_reference(d, name):
    p, r = both(d)
    cs, rs = p.coeffs_in(name), r.coeffs_in(name)
    assert len(cs) == len(rs)
    for c, rc in zip(cs, rs):
        assert same(c, rc)


@settings(max_examples=100)
@given(st.lists(_coeffs, max_size=7), _names)
def test_unipoly_round_trip_matches_reference(cs, name):
    u = UniPoly.from_coeffs(cs)
    p, r = MultiPoly.from_unipoly(u, name), _RefPoly.from_unipoly(u, name)
    assert same(p, r)
    assert p.as_unipoly(name) == r.as_unipoly(name) == u


@given(_dicts, _names)
def test_as_unipoly_rejects_other_variables_like_reference(d, name):
    p, r = both(d)
    try:
        expected = r.as_unipoly(name)
    except ValueError:
        with pytest.raises(ValueError, match="unbound variable"):
            p.as_unipoly(name)
    else:
        assert p.as_unipoly(name) == expected


# -- canonical form -------------------------------------------------------------


def test_two_routes_give_equal_polynomials_and_hashes():
    n, k = MultiPoly.var("n"), MultiPoly.var("k")
    half = MultiPoly.const(F(1, 2))
    routes = [
        MultiPoly.from_string("1/2n^2 + nk + 1/2k^2"),
        (n + k) ** 2 * F(1, 2),
        (n * half + k * half) * (n + k),
        MultiPoly.from_dict({(0,) * 6 + (2, 0, 0): F(3, 6),
                             (0,) * 6 + (1, 1, 0): 1,
                             (0,) * 6 + (0, 2, 0): F(1, 2)}),
        (n * 3 + k * 3) * (n * F(1, 6) + k * F(1, 6)),
        ((n + k) * F(2, 3)).shift_var("n", 0) * (n + k) * F(3, 4),
    ]
    for p in routes[1:]:
        assert p == routes[0]
        assert hash(p) == hash(routes[0])
    assert len({*routes}) == 1


@settings(max_examples=100)
@given(_dicts, _dicts, _dicts)
def test_distributive_routes_are_equal_with_equal_hashes(d1, d2, d3):
    p, q, r = (MultiPoly.from_dict(d) for d in (d1, d2, d3))
    left, right = p * (q + r), p * q + p * r
    assert left == right
    assert hash(left) == hash(right)
    assert (left - right).is_zero


@settings(max_examples=150)
@given(_dicts, _nonzero_dicts)
def test_primitive_pair_gives_integer_jointly_primitive_parts(dn, dd):
    num, den = MultiPoly.from_dict(dn), MultiPoly.from_dict(dd)
    pn, pd = _primitive_pair(num, den)
    coeffs = [c for part in (pn, pd) for _, c in part.terms]
    assert all(c.denominator == 1 for c in coeffs)
    assert gcd(*(c.numerator for c in coeffs)) == 1
    assert pd.lead_coeff() > 0
    assert pn * den == num * pd


# -- exponent packing -------------------------------------------------------------


def test_exponent_overflow_raises_instead_of_carrying():
    limit = 2 ** 15
    top = MultiPoly.var("k", limit - 1)
    assert top.degree("k") == limit - 1
    assert (MultiPoly.var("k", limit // 2) * MultiPoly.var("k", limit // 2 - 1)
            ).degree("k") == limit - 1
    with pytest.raises(OverflowError):
        MultiPoly.var("k", limit)
    with pytest.raises(OverflowError):
        MultiPoly.var("k", limit // 2) * MultiPoly.var("k", limit // 2)
    with pytest.raises(OverflowError):
        top * MultiPoly.var("k")
    with pytest.raises(OverflowError):
        MultiPoly.var("a", limit // 4) ** 4
    with pytest.raises(OverflowError):
        MultiPoly.from_dict({(0,) * 8 + (limit,): 1})
    with pytest.raises(OverflowError):
        MultiPoly.from_unipoly(UniPoly.from_coeffs([0] * limit + [1]), "n")


def test_largest_exponents_keep_their_variables_apart():
    # every field at its limit, then products that fill the low fields
    limit = 2 ** 15
    full = MultiPoly.from_dict({(limit - 1,) * _NVARS: 1})
    assert all(full.degree(v) == limit - 1 for v in VARS)
    j = MultiPoly.var("j", limit - 2) * MultiPoly.var("j")
    assert j.variables() == {"j"}
    assert tuple(j.terms) == (((0,) * 8 + (limit - 1,), F(1)),)


# -- Affine rows against the MultiPolys they stand for ---------------------------

# affine polynomials over all nine variables, each coefficient often zero
_affine_dicts = st.tuples(
    st.lists(st.one_of(st.just(0), _coeffs), min_size=_NVARS, max_size=_NVARS),
    _coeffs).map(lambda t: {**{tuple(int(i == v) for i in range(_NVARS)): c
                               for v, c in enumerate(t[0])},
                            (0,) * _NVARS: t[1]})
_ints = st.integers(-5, 5)


@settings(max_examples=150)
@given(_affine_dicts, _affine_dicts)
def test_affine_round_trip_and_equality(d1, d2):
    p, q = MultiPoly.from_dict(d1), MultiPoly.from_dict(d2)
    a, b = Affine.from_poly(p), Affine.from_poly(q)
    assert a.poly() == p and b.poly() == q
    assert (a == b) == (p == q)
    assert (hash(a) == hash(b)) or p != q
    assert a.den > 0 and gcd(a.den, *a.row) == 1
    assert Affine.new([3 * c for c in a.row], -3 * a.den).poly() == -p
    assert a.variables() == p.variables()
    for name in VARS:
        cs = p.coeffs_in(name)
        assert a.coeff(name) == (cs[1].eval({}) if len(cs) > 1 else 0)


@settings(max_examples=150)
@given(_affine_dicts, st.dictionaries(_names, _scalars, max_size=4), _names, _ints)
def test_affine_subst_shift_plus_match_multipoly(d, point, name, s):
    p = MultiPoly.from_dict(d)
    a = Affine.from_poly(p)
    assert a.subst(point) == Affine.from_poly(p.subst(point))
    assert a.shift(name, s) == Affine.from_poly(p.shift_var(name, s))
    assert a.plus(s) == Affine.from_poly(p + MultiPoly.const(s))


@settings(max_examples=100)
@given(_affine_dicts, st.sampled_from(["n", "k"]))
def test_affine_int_terms_and_unipoly_match_multipoly(d, name):
    p = MultiPoly.from_dict(d)
    a = Affine.from_poly(p)
    for read in (lambda f: f.int_terms("n", "k"), lambda f: f.as_unipoly(name)):
        try:
            expected = read(p)
        except ValueError as ex:
            with pytest.raises(ValueError, match=str(ex)):
                read(a)
        else:
            got = read(a)
            if isinstance(got, tuple):
                assert (got[0], sorted(got[1])) == (expected[0], sorted(expected[1]))
                assert MultiPoly.from_int_terms(*got, "n", "k") == p
            else:
                assert got == expected


@given(_dicts)
def test_affine_from_poly_refuses_higher_degrees(d):
    p = MultiPoly.from_dict(d)
    assert (Affine.from_poly(p) is None) == (p.total_degree() > 1)


@settings(max_examples=100)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), _ints), max_size=8),
       st.integers(1, 12))
def test_from_int_terms_sums_repeated_exponents(terms, den):
    p = MultiPoly.from_int_terms(den, terms, "n", "k")
    expected = MultiPoly.zero()
    for i, j, c in terms:
        expected = expected + MultiPoly.var("n", i) * MultiPoly.var("k", j) * F(c, den)
    assert p == expected
