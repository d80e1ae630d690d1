"""Exact polynomial arithmetic over the rationals.

Representation: scalars are `fractions.Fraction` (exported as `Rational`).
Polynomials in Z[x] are plain integer coefficient lists, ascending with
no trailing zero: `_zsub`, `_zmul`, the exact quotient `_zdiv`,
the integer Horner sum `_zeval` and `_zgcd`, Euclid's algorithm on
primitive pseudo-remainders.  They are the one dense kernel.  `UniPoly`,
the dense univariate polynomial over Q, is a tuple of integer numerators
over one positive denominator, jointly in lowest terms, and implements
every operation on those lists; its `coeffs`, `lc` and `eval` give
Fractions.  Its `gcd` is the monic gcd over Q, and `exact_div` divides
primitive parts, whose quotient lies in Z[x] by Gauss's lemma.  An
instantiated recurrence lives on the same lists from the solver to the
stream: p1 and p2 are UniPolys in n, and its certificate is a pair of
integer grids in n and k, rows of these lists over the powers of k
(`telescoper.Recurrence`).  The solver's gcds, exact quotients and
Kronecker zero test (`_kronecker_zero`) run on them.

`MultiPoly` is a sparse multivariate polynomial over the fixed variable
universe `VARS`, for the symbolic forms: the stored recurrences with free
parameters a-f and their expanded residuals, and the family summands
before their Gamma arguments become `Affine` rows.  It stores nonzero integer numerators over one positive
common denominator, jointly in lowest terms, so equality and hashing are
canonical.  Each exponent vector is packed into one integer key of 16-bit
fields with VARS[0] in the most significant field: ascending keys are
ascending exponent tuples, and a monomial product is one integer addition
of keys and one integer multiply of numerators.  An exponent must stay
below 2^15.  The top bit of each field is a guard: a product that would
reach 2^15 in some variable sets it and raises OverflowError instead of
carrying into the next variable.  The `terms` view gives (exponent tuple,
Fraction) pairs in ascending order.  `grid` substitutes values for the
variables other than n and k, giving integer rows in n over the powers
of k, through a layout built once per polynomial and kept on the
instance, outside equality and hashing.  A rational function is a plain
(numerator, denominator) pair of MultiPolys.  `_primitive_pair` gives
it integer, jointly primitive parts and a positive leading denominator
coefficient, by integer gcd only (no multivariate gcd is attempted), so
two equal quotients can have different parts.

`Affine` is a polynomial of degree at most one over VARS kept as one
integer row, a coefficient per variable and the constant, over one
positive denominator, jointly in lowest terms.  It substitutes values
and shifts variables on the row, and becomes a MultiPoly only for an
expanded residual.  An instantiated factor (m k + s n + u)/d is read
as the rows [u, s] and [m] in n over the powers of k: the solver
multiplies them into integer grids (`telescoper._grid`), and its
re-check and the stream take them straight off the row.

All arithmetic here is exact; nothing in this module rounds.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Mapping, Optional, Union

Rational = Fraction

Scalar = Union[int, Fraction]

VARS = ("a", "b", "c", "d", "e", "f", "n", "k", "j")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_NVARS = len(VARS)

# MultiPoly key layout (see the module docstring): one field per variable
_EXP_BITS = 16
_EXP_LIMIT = 1 << (_EXP_BITS - 1)
_FIELD_MASK = (1 << _EXP_BITS) - 1
_SHIFTS = tuple(_EXP_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_GUARD = sum(_EXP_LIMIT << s for s in _SHIFTS)
_FIELDS = tuple(_FIELD_MASK << s for s in _SHIFTS)

# the indices of n and k, the variables a `MultiPoly.grid` keeps
_NK = (_VAR_INDEX["n"], _VAR_INDEX["k"])

_F0 = Fraction(0)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# str() of an int with more than sys.get_int_max_str_digits() digits
# raises; pieces of at most this many bits (602 digits) stay below the
# smallest limit Python accepts (640), whatever the setting
_STR_PIECE_BITS = 2000


def _digits_text(n: int) -> str:
    """Decimal digits of n >= 0.

    Above _STR_PIECE_BITS bits, n is split on bit shifts into pieces of
    at most that many bits, n = hi 2^w + lo with w = _STR_PIECE_BITS 2^i
    at level i, and recombined as hi * 2^w + lo in `decimal`, with 2^w
    computed once per level.  The context's precision covers any
    integer, so every step is exact, and libmpdec's multiplication is
    subquadratic, where a split by divmod at 10^k is quadratic.
    """
    if n.bit_length() <= _STR_PIECE_BITS:
        return str(n)
    widths = [_STR_PIECE_BITS]
    while widths[-1] < n.bit_length():
        widths.append(2 * widths[-1])
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
        powers = [Decimal(1 << _STR_PIECE_BITS)]
        for _ in widths[1:-1]:
            powers.append(powers[-1] * powers[-1])

        def join(m: int, level: int) -> Decimal:
            # m < 2^widths[level]
            if level == 0:
                return Decimal(m)
            w = widths[level - 1]
            return join(m >> w, level - 1) * powers[level - 1] + join(
                m & ((1 << w) - 1), level - 1)

        return str(join(n, len(widths) - 1))


def decimal_text(x: Scalar) -> str:
    """str(x) for an int or Fraction of any size, built from pieces of at
    most _STR_PIECE_BITS bits, so the interpreter's int-to-str limit never
    applies and is never changed."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{decimal_text(x.numerator)}/{_digits_text(x.denominator)}"
    n = int(x)
    return f"-{_digits_text(-n)}" if n < 0 else _digits_text(n)


# ---------------------------------------------------------------------------
# Integer coefficient lists: Z[x] as ascending lists with no trailing zero
# ([] is zero), the dense kernel UniPoly and the recurrence solver run on
# ---------------------------------------------------------------------------


def _zprimitive(a: list[int]) -> list[int]:
    """a divided by the gcd of its entries; [] for zero."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _zsub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = list(a)
    out.extend([0] * (len(b) - len(a)))
    for i, y in enumerate(b):
        out[i] -= y
    while out and not out[-1]:
        out.pop()
    return out


def _zmul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zdiv(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b in Z[x] for b != 0; ValueError unless the division is exact."""
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    out = [0] * max(len(a) - db, 0)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + db] // lb
        if c:
            out[i] = c
            for t, y in enumerate(b):
                rem[i + t] -= c * y
    # a floored step leaves its remainder behind in rem
    if any(rem):
        raise ValueError("non-exact polynomial division")
    return out


def _zeval(a: Sequence[int], p: int, q: int = 1) -> int:
    """q^deg(a) a(p/q): the integer Horner sum, homogeneous in (p, q)."""
    acc = 0
    qk = 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _zgcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd in Z[x], of either sign; [] when both are zero.

    Euclid on pseudo-remainders, each divided by its integer content
    (the primitive remainder sequence), so coefficients stay small.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        lb, db = b[-1], len(b) - 1
        a = list(a)
        while len(a) > db:
            la, s = a[-1], len(a) - 1 - db
            a = [x * lb for x in a]
            for i, y in enumerate(b):
                a[s + i] -= la * y
            while a and not a[-1]:
                a.pop()
        a, b = b, _zprimitive(a)
    return _zprimitive(list(a))


def _common_ints(polys: Sequence["UniPoly"]) -> list[list[int]]:
    """Integer coefficient lists proportional to polys by one common
    positive factor, with no integer factor common to all of them."""
    den = lcm(*(p.denominator for p in polys))
    rows = [[c * (den // p.denominator) for c in p.numerators] for p in polys]
    g = gcd(*(c for row in rows for c in row))
    return [[c // g for c in row] for row in rows] if g > 1 else rows


@dataclass(frozen=True)
class _Bound:
    """An l1-norm bound and an n-degree bound of an integer polynomial in
    n and k, combined as the polynomials they bound are."""

    norm: int
    deg: int

    def __add__(self, other: "_Bound") -> "_Bound":
        return _Bound(self.norm + other.norm, max(self.deg, other.deg))

    __sub__ = __add__

    def __mul__(self, other: "_Bound") -> "_Bound":
        return _Bound(self.norm * other.norm, self.deg + other.deg)


def _kronecker_zero(form, parts: Sequence) -> bool:
    """Whether the polynomial R = form(*parts) is zero, from its image at
    n = X = 2^B, k = X^(D+1), B = bit_length(H) + 1, where H and D bound
    the l1 norm of R and its degree in n; form must use only +, - and *.
    A part gives its `_Bound` by bound() and its image by image(b, kb) at
    n = 2^b, k = 2^kb.

    Lemma.  R(X, X^(D+1)) = 0 iff R = 0, in n and k or in n alone.  Each
    monomial n^i k^j of R goes to X^(i + (D+1) j), and i <= D makes these
    powers distinct, so the image is sum c_m X^m with every |c_m| <= H <
    X.  If some c_m is nonzero, the lowest one, c, has 0 < |c| < X, and
    the image is X^m (c + X y) for an integer y, which is not zero
    because X does not divide c.
    """
    h = form(*(p.bound() for p in parts))
    b = h.norm.bit_length() + 1
    return form(*(p.image(b, b * (h.deg + 1)) for p in parts)) == 0


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------


def _unipoly(num: list[int], den: int = 1) -> "UniPoly":
    """UniPoly of num / den for den > 0, with trailing zeros dropped and
    the common gcd of den and the numerators divided out."""
    while num and not num[-1]:
        num.pop()
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return UniPoly(tuple(num), den)


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial over Q: integer numerators, the one of
    x**i at index i and no trailing zero, over one positive denominator,
    jointly in lowest terms.

    Build one with the static constructors; `UniPoly(numerators,
    denominator)` takes an already normalized pair.
    """

    numerators: tuple[int, ...] = ()
    denominator: int = 1

    @staticmethod
    def from_coeffs(cs: Iterable[Scalar]) -> "UniPoly":
        cs = list(cs)
        den = lcm(*(c.denominator for c in cs))
        return _unipoly([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def from_roots(roots: Iterable[Scalar], lead: Scalar = 1) -> "UniPoly":
        """lead * prod (x - r), as the integer product of the (d x - n), r = n/d."""
        lead = _frac(lead)
        num, den = [lead.numerator], lead.denominator
        for r in roots:
            r = _frac(r)
            num = _zmul(num, [-r.numerator, r.denominator])
            den *= r.denominator
        return _unipoly(num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def lc(self) -> Fraction:
        return self.coeff(self.degree)

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i, zero past the degree."""
        if 0 <= i < len(self.numerators):
            return Fraction(self.numerators[i], self.denominator)
        return _F0

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.numerators, other.numerators
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        return _unipoly(_zsub([c * (den // da) for c in a],
                              [-c * (den // db) for c in b]), den)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.numerators), self.denominator)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        """Product of the numerator lists; a scalar other scales."""
        if not isinstance(other, UniPoly):
            return self.scale(other)
        return _unipoly(_zmul(self.numerators, other.numerators),
                        self.denominator * other.denominator)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "UniPoly":
        c = _frac(c)
        return _unipoly([x * c.numerator for x in self.numerators],
                        self.denominator * c.denominator)

    def eval(self, x: Scalar) -> Fraction:
        """p(x) from one integer Horner sum at x = p/q."""
        x = _frac(x)
        q = x.denominator
        return Fraction(_zeval(self.numerators, x.numerator, q),
                        self.denominator * q ** max(self.degree, 0))

    def compose(self, a: Scalar, b: Scalar) -> "UniPoly":
        """p(a + b x), as m^d p(a + b x) over m^d for m the product of the
        denominators and d the degree: with a = u/v and b = s/t, the
        Taylor shift by u of the integer polynomial v^d p(x/v), in place,
        scaled by (v s)^i t^(d-i) at x^i."""
        u, v, s, t = a.numerator, a.denominator, b.numerator, b.denominator
        d = self.degree
        out = list(self.numerators)
        if v != 1:
            out = [c * v ** (d - i) for i, c in enumerate(out)]
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                out[k] += u * out[k + 1]
        if v * s != 1 or t != 1:
            out = [c * (v * s) ** i * t ** (d - i) for i, c in enumerate(out)]
        return _unipoly(out, self.denominator * (v * t) ** max(d, 0))

    def shift(self, s: Scalar) -> "UniPoly":
        """p(x + s)."""
        return self.compose(s, 1)

    def derivative(self) -> "UniPoly":
        return _unipoly([i * c for i, c in enumerate(self.numerators)][1:],
                        self.denominator)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """self / other, or ValueError when other does not divide self.
        By Gauss's lemma the primitive parts divide in Z[x] (`_zdiv`)."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return self
        a, b = self.numerators, other.numerators
        ga, gb = gcd(*a), gcd(*b)
        q = _zdiv([c // ga for c in a], [c // gb for c in b])
        return _unipoly([c * ga * other.denominator for c in q],
                        self.denominator * gb)

    def primitive(self) -> "UniPoly":
        """Integer coprime coefficients, positive leading coefficient."""
        if self.is_zero:
            return self
        g = gcd(*self.numerators) * (1 if self.numerators[-1] > 0 else -1)
        return UniPoly(tuple(c // g for c in self.numerators))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over Q, from `_zgcd` on the numerators; gcd(0, 0) = 0."""
        a = _zgcd(self.numerators, other.numerators)
        if a and a[-1] < 0:
            a = [-c for c in a]
        return UniPoly(tuple(a), a[-1] if a else 1)


def _int_divisors(m: int) -> list[int]:
    """Positive divisors of m != 0, ascending, from its trial-division factors."""
    m = abs(m)
    divs = [1]
    p = 2
    while p * p <= m:
        if m % p == 0:
            base = list(divs)
            pk = 1
            while m % p == 0:
                m //= p
                pk *= p
                divs.extend(d * pk for d in base)
        p += 1 if p == 2 else 2
    if m > 1:
        divs.extend([d * m for d in divs])
    return sorted(divs)


def _integer_root(a: list[int]) -> tuple[int, int] | None:
    """Smallest-q, then smallest-|p| root p/q of a primitive integer
    polynomial with a[0] != 0 and a[-1] > 0, as (p, q) in lowest terms."""
    lc = a[-1]
    bound = lc + max(abs(c) for c in a[:-1])  # Cauchy: |root| < bound / lc
    f1 = sum(a)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(a))
    p_divs = _int_divisors(a[0])
    for q in _int_divisors(lc):
        for p in p_divs:
            if p * lc > bound * q:
                break
            if gcd(p, q) > 1:
                continue
            for s in (p, -p):
                # q x - s divides a as integer polynomials, so q - s divides
                # a(1) and q + s divides a(-1)
                if f1 and (q == s or f1 % (q - s)):
                    continue
                if fm1 and (q == -s or fm1 % (q + s)):
                    continue
                if _zeval(a, s, q) == 0:
                    return s, q
    return None


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p with multiplicity, sorted ascending.

    The search runs on the primitive numerator list a.  By the rational
    root theorem a root p/q in lowest terms has p | a[0] and q | lc.
    Each candidate is screened by (q - p) | a(1) and (q + p) | a(-1),
    |p/q| is cut off at the Cauchy bound, and a(p/q) = 0 is tested as an
    integer Horner sum.  Each root found is divided out exactly, and the
    search restarts on the primitive quotient, whose a[0] and lc divide
    those of a.

    Raises ValueError on the zero polynomial, which has all roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has all roots")
    roots: list[Fraction] = []
    a = list(p.primitive().numerators)
    while a[0] == 0:
        roots.append(_F0)
        a.pop(0)
    while len(a) > 1:
        root = _integer_root(a)
        if root is None:
            break
        s, q = root
        roots.append(Fraction(s, q))
        a = _zprimitive(_zdiv(a, [-s, q]))
    return sorted(roots)


def index_roots(p: UniPoly, start: Scalar = 0, step: Scalar = 1) -> list[int]:
    """The j >= 0 with p(start + step j) = 0, ascending, each once; raises
    ValueError on the zero polynomial, like rational_roots."""
    found = {(rt - start) / step for rt in rational_roots(p)}
    return sorted(int(j) for j in found if j >= 0 and j.denominator == 1)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over VARS
# ---------------------------------------------------------------------------


def _check_exponent(x: int) -> None:
    if x < 0:
        raise ValueError("negative exponent in polynomial")
    if x >= _EXP_LIMIT:
        raise OverflowError(f"exponent {x} exceeds the polynomial limit")


def _pack(e: Sequence[int]) -> int:
    """Exponent vector over VARS as one key, VARS[0] most significant."""
    if len(e) != _NVARS:
        raise ValueError(f"exponent vector needs {_NVARS} entries")
    key = 0
    for x in e:
        _check_exponent(x)
        key = (key << _EXP_BITS) | x
    return key


def _unpack(key: int) -> tuple[int, ...]:
    return tuple((key >> s) & _FIELD_MASK for s in _SHIFTS)


def _normalized(coeffs: dict[int, int], den: int) -> "MultiPoly":
    """MultiPoly of coeffs / den for den > 0, with zero numerators dropped
    and the common gcd of den and the numerators divided out."""
    if 0 in coeffs.values():
        coeffs = {k: c for k, c in coeffs.items() if c}
    if den != 1:
        g = gcd(den, *coeffs.values())
        if g != 1:
            coeffs = {k: c // g for k, c in coeffs.items()}
            den //= g
    return MultiPoly(coeffs, den)


def _var_index(name: str) -> int:
    i = _VAR_INDEX.get(name)
    if i is None:
        raise ValueError(f"unknown variable: {name}")
    return i


class _GridLayout:
    """A MultiPoly's terms laid out for `MultiPoly.grid`.

    `names` are the variables other than n and k that the polynomial
    has, and `degrees` its degree in each.  Its `size` distinct
    monomials in them are numbered in order of first appearance, and
    `cols` holds, per name, the exponent in each.  `groups` pairs each
    (k, n) exponent pair of a term, ascending, with the numerators and
    the monomial numbers of its terms.
    """

    __slots__ = ("names", "degrees", "cols", "size", "groups")

    def __init__(self, coeffs: dict[int, int]):
        present = reduce(or_, coeffs, 0)
        used = [i for i in range(_NVARS)
                if i not in _NK and present & _FIELDS[i]]
        self.names = tuple(map(VARS.__getitem__, used))
        mask = sum(map(_FIELDS.__getitem__, used))
        sn, sk = (_SHIFTS[i] for i in _NK)
        monos: dict[int, int] = {}
        groups: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        for key, c in coeffs.items():
            at = ((key >> sk) & _FIELD_MASK, (key >> sn) & _FIELD_MASK)
            group = groups.setdefault(at, ([], []))
            group[0].append(c)
            group[1].append(monos.setdefault(key & mask, len(monos)))
        self.cols = [[(part >> _SHIFTS[i]) & _FIELD_MASK for part in monos]
                     for i in used]
        self.degrees = tuple(map(max, self.cols))
        self.size = len(monos)
        self.groups = sorted(groups.items())


class _Terms(Sequence):
    """A MultiPoly's (exponent tuple, Fraction) pairs in ascending exponent
    order.  The length is the term count; the pairs are built on first
    access to an element and then kept."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._coeffs)

    def __getitem__(self, i):
        return self._poly._term_pairs()[i]

    def __iter__(self):
        return iter(self._poly._term_pairs())


class MultiPoly:
    """Sparse polynomial over VARS: integer numerators over one positive
    denominator, jointly in lowest terms, keyed by packed exponent vectors.

    Build one with the static constructors; `MultiPoly(coeffs, den)`
    takes an already normalized {key: numerator} dict and owns it.
    """

    __slots__ = ("_coeffs", "_den", "_pairs", "_layout")

    def __init__(self, coeffs: dict[int, int], den: int = 1):
        self._coeffs = coeffs
        self._den = den if coeffs else 1
        self._pairs: Optional[tuple[tuple[tuple[int, ...], Fraction], ...]] = None
        # the `grid` layout, built on first use; outside == and hash
        self._layout: Optional[_GridLayout] = None

    @property
    def terms(self) -> _Terms:
        return _Terms(self)

    def _term_pairs(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        if self._pairs is None:
            c, d = self._coeffs, self._den
            self._pairs = tuple((_unpack(k), Fraction(c[k], d))
                                for k in sorted(c))
        return self._pairs

    @staticmethod
    def from_dict(d: Mapping[tuple[int, ...], Scalar]) -> "MultiPoly":
        items = [(_pack(e), _frac(c)) for e, c in d.items() if c]
        den = lcm(*(c.denominator for _, c in items))
        return MultiPoly({k: c.numerator * (den // c.denominator)
                          for k, c in items}, den)

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly({})

    @staticmethod
    def const(c: Scalar) -> "MultiPoly":
        c = _frac(c)
        return MultiPoly({0: c.numerator}, c.denominator) if c else MultiPoly({})

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.const(1)

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        _check_exponent(exp)
        return MultiPoly({exp << _SHIFTS[_VAR_INDEX[name]]: 1})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"MultiPoly.from_string({str(self)!r})"

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        den = lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        out = (dict(self._coeffs) if ma == 1
               else {k: c * ma for k, c in self._coeffs.items()})
        get = out.get
        for k, c in other._coeffs.items():
            out[k] = get(k, 0) + c * mb
        return _normalized(out, den)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -c for k, c in self._coeffs.items()}, self._den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        """Product; a monomial product adds the packed keys."""
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            if not p:
                return MultiPoly.zero()
            return _normalized({k: c * p for k, c in self._coeffs.items()},
                               self._den * other.denominator)
        out: dict[int, int] = {}
        get = out.get
        items = other._coeffs.items()
        for k1, c1 in self._coeffs.items():
            for k2, c2 in items:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        # fields below the limit add without a carry; a set guard bit
        # marks a sum at or past it
        if reduce(or_, out, 0) & _GUARD:
            raise OverflowError("exponent exceeds the polynomial limit")
        return _normalized(out, self._den * other._den)

    __rmul__ = __mul__

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        s = _SHIFTS[_VAR_INDEX[name]]
        return max((k >> s) & _FIELD_MASK for k in self._coeffs)

    def grid(self, point: Mapping[str, Scalar]) -> tuple[list[list[int]], int]:
        """The polynomial at rational values of its variables other than
        n and k: integer rows in n over the powers of k, with no trailing
        zero in a row and no trailing empty row, over one positive
        denominator, not reduced.  A value p/q for a variable of degree m
        turns x^e into p^e q^(m-e) over q^m.  The `_GridLayout` is built
        on the first call and kept; a call forms each distinct monomial
        once from per-variable power tables and sums c times it over the
        terms of each (k, n) exponent pair.  Values for n and k are not
        read.  Raises ValueError("unknown variable: z") for a name z
        outside VARS, and ValueError("unbound variable: x") for the first
        variable x of the polynomial, in VARS order, other than n and k
        that the point leaves out."""
        for name in point:
            _var_index(name)
        layout = self._layout
        if layout is None:
            layout = self._layout = _GridLayout(self._coeffs)
        for name in layout.names:
            if name not in point:
                raise ValueError(f"unbound variable: {name}")
        den = self._den
        values = [1] * layout.size
        for name, m, col in zip(layout.names, layout.degrees, layout.cols):
            p, q = point[name].as_integer_ratio()
            table = [p ** e * q ** (m - e) for e in range(m + 1)]
            den *= q ** m
            values = list(map(mul, values, map(table.__getitem__, col)))
        rows: list[list[int]] = []
        for (j, i), (cs, monos) in layout.groups:
            # zero sums are left out, so no row ends in a zero
            c = sum(map(mul, cs, map(values.__getitem__, monos)))
            if c:
                rows.extend([] for _ in range(j + 1 - len(rows)))
                rows[j].extend([0] * (i - len(rows[j])))
                rows[j].append(c)
        return rows, den

    def coeffs_in(self, name: str) -> list["MultiPoly"]:
        """Dense coefficient list in one variable; entries are MultiPolys."""
        deg = self.degree(name)
        if deg < 0:
            return []
        s = _SHIFTS[_VAR_INDEX[name]]
        buckets: list[dict[int, int]] = [{} for _ in range(deg + 1)]
        for k, c in self._coeffs.items():
            e = (k >> s) & _FIELD_MASK
            buckets[e][k - (e << s)] = c
        return [_normalized(b, self._den) for b in buckets]

    def subst_poly(self, name: str, repl: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for one variable (Horner in that variable)."""
        cs = self.coeffs_in(name)
        if not cs:
            return self
        out = MultiPoly.zero()
        for c in reversed(cs):
            out = out * repl + c
        return out

    def shift_var(self, name: str, s: Scalar) -> "MultiPoly":
        """Substitute name -> name + s."""
        return self.subst_poly(name, MultiPoly.var(name) + MultiPoly.const(s))

    @staticmethod
    def from_string(s: str) -> "MultiPoly":
        return _parse_multipoly(s)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._term_pairs(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "".join(
                VARS[i] if x == 1 else f"{VARS[i]}^{x}"
                for i, x in enumerate(e) if x
            )
            if mono and abs(c) == 1:
                cs = "-" if c < 0 else ""
            else:
                cs = str(c)
            parts.append(f"{cs}{mono}" if mono else cs)
        return " + ".join(parts).replace("+ -", "- ")


def _primitive_pair(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """The quotient num/den as integer parts with no common integer factor
    and a positive leading coefficient in den; (0, 1) for num = 0.  No
    polynomial gcd is divided out, so equal quotients can have different
    parts.  Raises ZeroDivisionError when den is zero."""
    if den.is_zero:
        raise ZeroDivisionError("quotient with zero denominator")
    if num.is_zero:
        return MultiPoly.zero(), MultiPoly.one()
    # times num._den * den._den both parts are integer
    a = {k: c * den._den for k, c in num._coeffs.items()}
    b = {k: c * num._den for k, c in den._coeffs.items()}
    g = gcd(*a.values(), *b.values())
    if b[max(b)] < 0:
        g = -g
    return (MultiPoly({k: c // g for k, c in a.items()}),
            MultiPoly({k: c // g for k, c in b.items()}))


# ---------------------------------------------------------------------------
# Affine forms over VARS
# ---------------------------------------------------------------------------

# the MultiPoly keys of VARS[0], ..., VARS[-1] and of the constant
_ROW_KEYS = tuple(1 << s for s in _SHIFTS) + (0,)
_KEY_INDEX = {key: i for i, key in enumerate(_ROW_KEYS)}


class Affine:
    """Affine form (c_1 VARS[0] + ... + c_m VARS[m-1] + u) / d: the integer
    row (c_1, ..., c_m, u) over one positive denominator d, jointly in
    lowest terms, so equal forms have equal rows.

    Build one with `Affine.new` or `Affine.from_poly`; `Affine(row, den)`
    takes an already normalized row.  Adding an integer and shifting a
    variable by an integer keep a row normalized.
    """

    __slots__ = ("row", "den")

    def __init__(self, row: tuple[int, ...], den: int):
        self.row = row
        self.den = den

    @staticmethod
    def new(row: Sequence[int], den: int) -> "Affine":
        """The form row / den for a nonzero den, normalized."""
        g = gcd(den, *row)
        if den < 0:
            g = -g
        if g == 1:
            return Affine(tuple(row), den)
        return Affine(tuple(c // g for c in row), den // g)

    @staticmethod
    def from_poly(p: MultiPoly) -> Optional["Affine"]:
        """p as an affine form, whose row is p's numerators in lowest
        terms already; None when p has a term of degree two or more."""
        row = [0] * (_NVARS + 1)
        for key, c in p._coeffs.items():
            i = _KEY_INDEX.get(key)
            if i is None:
                return None
            row[i] = c
        return Affine(tuple(row), p._den)

    def poly(self) -> MultiPoly:
        return MultiPoly({key: c for key, c in zip(_ROW_KEYS, self.row) if c},
                         self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Affine):
            return NotImplemented
        return self.den == other.den and self.row == other.row

    def __hash__(self) -> int:
        return hash((self.row, self.den))

    def __repr__(self) -> str:
        return f"Affine.from_poly({self.poly()!r})"

    def coeff(self, name: str) -> Fraction:
        """Coefficient of one variable."""
        return Fraction(self.row[_VAR_INDEX[name]], self.den)

    def variables(self) -> set[str]:
        return {v for v, c in zip(VARS, self.row) if c}

    def plus(self, c: int) -> "Affine":
        """self + c for an integer c."""
        row = self.row
        return Affine(row[:-1] + (row[-1] + c * self.den,), self.den)

    def shift(self, name: str, s: int) -> "Affine":
        """self with name -> name + s, for an integer s."""
        row = self.row
        return Affine(row[:-1] + (row[-1] + row[_VAR_INDEX[name]] * s,),
                      self.den)

    def subst(self, point: Mapping[str, Scalar]) -> "Affine":
        """Substitute rational values for a subset of the variables."""
        row, den = list(self.row), self.den
        for name, v in point.items():
            i = _var_index(name)
            c = row[i]
            if c:
                p, q = v.as_integer_ratio()
                if q != 1:
                    row = [x * q for x in row]
                    den *= q
                # (c/d) (p/q) = c p/(d q), over the new denominator d q
                row[i] = 0
                row[-1] += c * p
        return Affine.new(row, den)


def _parse_multipoly(s: str) -> MultiPoly:
    """Parse a flat signed sum of monomials like '-3a^2bn + 1/2k - 7'.
    Raises ValueError for empty text, a sign with no monomial after it
    (at the end or before another sign), a zero denominator, and any
    other character out of place, such as a '/' or '^' with no digits
    after it."""
    text = s.replace("*", " ")
    i, n = 0, len(text)
    acc: dict[tuple[int, ...], Fraction] = {}
    sign = 1
    pending = False  # a sign read and no monomial after it yet

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def digits(i: int) -> int:
        """The end of the digit run at i, which must not be empty."""
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise ValueError(f"unexpected character {text[i - 1]!r}"
                             " in polynomial text")
        return j

    i = skip_ws(i)
    while i < n:
        ch = text[i]
        if ch in "+-":
            if pending:
                raise ValueError("dangling sign in polynomial text")
            sign, pending, i = 1 if ch == "+" else -1, True, skip_ws(i + 1)
            continue
        coeff = Fraction(sign)
        exps = [0] * _NVARS
        while i < n:
            ch = text[i]
            if ch.isdigit():
                j = digits(i)
                num = int(text[i:j])
                i = j
                if i < n and text[i] == "/":
                    j = digits(i + 1)
                    den = int(text[i + 1:j])
                    if not den:
                        raise ValueError("zero denominator in polynomial text")
                    coeff *= Fraction(num, den)
                    i = j
                else:
                    coeff *= num
            elif ch in _VAR_INDEX:
                vi = _VAR_INDEX[ch]
                i += 1
                exp = 1
                if i < n and text[i] == "^":
                    j = digits(i + 1)
                    exp = int(text[i + 1:j])
                    i = j
                exps[vi] += exp
            elif ch.isspace():
                # a space inside a monomial continues it; term breaks are +/-
                i = skip_ws(i)
                if i == n or not (text[i].isdigit() or text[i] in _VAR_INDEX):
                    break
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial text")
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + coeff
        sign, pending = 1, False
        i = skip_ws(i)
    if pending:
        raise ValueError("dangling sign in polynomial text")
    if not acc:
        raise ValueError("empty polynomial text")
    return MultiPoly.from_dict(acc)
