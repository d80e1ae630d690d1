"""Exact polynomial and rational-function arithmetic over the rationals.

Representation: scalars are `fractions.Fraction` (exported as `Rational`).
`UniPoly` is a dense univariate polynomial over a coefficient field, either
`Fraction` or `NRat`: a tuple of coefficients with no trailing zeros, so the
zero polynomial has degree -1.  Its zeros are tested by truthiness and its
`gcd` is the monic gcd over that field, found by Euclid's algorithm with
monic remainders.  `MultiPoly` is a sparse
multivariate polynomial over the fixed variable universe `VARS`; its terms are
stored as a sorted tuple of (exponent-vector, coefficient) pairs with nonzero
coefficients, which makes structural equality canonical.  `RatFunc` is a
quotient of two MultiPolys reduced only by rational content (no multivariate
gcd is attempted); equality is decided by cross-multiplication.  `NRat` is a
fully reduced univariate rational function in n; as the coefficients of a
`UniPoly` in k it is the field the recurrence solver works over.

All arithmetic here is exact; nothing in this module rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Rational = Fraction

Scalar = Union[int, Fraction]

VARS = ("a", "b", "c", "d", "e", "f", "n", "k", "j")
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}
_NVARS = len(VARS)
_ZERO_EXP = (0,) * _NVARS

_F0 = Fraction(0)
_F1 = Fraction(1)


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _zero(c: "Fraction | NRat") -> "Fraction | NRat":
    """The zero of c's field."""
    return c * 0 if isinstance(c, NRat) else _F0


# ---------------------------------------------------------------------------
# Univariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniPoly:
    """Dense univariate polynomial; coeffs[i] multiplies x**i.

    The coefficients are all Fractions or all NRats.
    """

    coeffs: tuple[Fraction | NRat, ...]

    @staticmethod
    def from_coeffs(cs: Iterable[Scalar | NRat]) -> "UniPoly":
        coeffs = [c if isinstance(c, (Fraction, NRat)) else Fraction(c) for c in cs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return UniPoly(tuple(coeffs))

    @staticmethod
    def constant(c: Scalar | NRat) -> "UniPoly":
        return UniPoly.from_coeffs([c])

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((_F1,))

    @staticmethod
    def x() -> "UniPoly":
        return UniPoly((_F0, _F1))

    @staticmethod
    def from_roots(roots: Iterable[Scalar], lead: Scalar = 1) -> "UniPoly":
        p = UniPoly.constant(lead)
        for r in roots:
            p = p * UniPoly.from_coeffs([-_frac(r), 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction | NRat:
        if not self.coeffs:
            return _F0
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction | NRat:
        """coeffs[i], or the zero of the coefficient field past the degree
        (a Fraction zero for the zero polynomial)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _zero(self.lc)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly.from_coeffs(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly | Scalar | NRat") -> "UniPoly":
        """Schoolbook product; a scalar other scales.  The sums start from
        the zero of self's field, so with mixed fields the NRat factor
        stands on the left."""
        if not isinstance(other, UniPoly):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero()
        out = [_zero(self.lc)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return UniPoly.from_coeffs(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        out, base = UniPoly.one(), self
        for _ in range(e):
            out = out * base
        return out

    def scale(self, c: Scalar | NRat) -> "UniPoly":
        if not c:
            return UniPoly.zero()
        return UniPoly(tuple(c * x for x in self.coeffs))

    def monic(self) -> "UniPoly":
        return self.scale(1 / self.lc) if self.coeffs else self

    def eval(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, s: Scalar) -> "UniPoly":
        """Compose with x + s, returning p(x + s), by Horner recomposition."""
        s = _frac(s)
        out = UniPoly.zero()
        xs = UniPoly.from_coeffs([s, 1])
        for c in reversed(self.coeffs):
            out = out * xs + UniPoly.constant(c)
        return out

    def derivative(self) -> "UniPoly":
        return UniPoly.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        d, lead = other.degree, other.lc
        if self.degree < d:
            return UniPoly.zero(), self
        rem = list(self.coeffs)
        q = [_zero(lead)] * (self.degree - d + 1)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + d]
            if c:
                f = c / lead
                q[k] = f
                for i, oc in enumerate(other.coeffs):
                    rem[k + i] -= f * oc
        return UniPoly.from_coeffs(q), UniPoly.from_coeffs(rem[:d])

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("non-exact polynomial division")
        return q

    def content(self) -> Fraction:
        """Positive rational c with self/c integer and coprime; 0 for zero."""
        if self.is_zero:
            return _F0
        return Fraction(gcd(*(c.numerator for c in self.coeffs)),
                        lcm(*(c.denominator for c in self.coeffs)))

    def primitive(self) -> "UniPoly":
        """Integer coprime coefficients, positive leading coefficient."""
        if self.is_zero:
            return self
        p = self.scale(1 / self.content())
        return p if p.lc > 0 else -p

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over the coefficient field; gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero:
            _, r = a.divmod(b)
            a, b = b, r.monic()  # monic remainders keep coefficients small
        return a.monic()


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
    d = len(a) - 1
    lc = a[-1]
    bound = lc + max(abs(c) for c in a[:-1])  # Cauchy: |root| < bound / lc
    f1 = sum(a)
    fm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(a))
    p_divs = _int_divisors(a[0])
    for q in _int_divisors(lc):
        qpow = [1] * (d + 1)
        for i in range(1, d + 1):
            qpow[i] = qpow[i - 1] * q
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
                acc = lc
                for i in range(d - 1, -1, -1):
                    acc = acc * s + a[i] * qpow[d - i]
                if acc == 0:
                    return s, q
    return None


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots of p with multiplicity, sorted ascending.

    The search runs on the primitive integer coefficient list a.  By the
    rational root theorem a root p/q in lowest terms has p | a[0] and
    q | lc.  Each candidate is screened by (q - p) | a(1) and (q + p) |
    a(-1), |p/q| is cut off at the Cauchy bound, and a(p/q) = 0 is tested
    as an integer Horner sum.  Each root found is divided out exactly,
    and the search restarts on the primitive quotient, whose a[0] and lc
    divide those of a.

    Raises ValueError on the zero polynomial, which has all roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has all roots")
    roots: list[Fraction] = []
    coeffs = list(p.coeffs)
    while coeffs[0] == 0:
        roots.append(_F0)
        coeffs.pop(0)
    a = [int(c) for c in UniPoly.from_coeffs(coeffs).primitive().coeffs]
    while len(a) > 1:
        root = _integer_root(a)
        if root is None:
            break
        s, q = root
        roots.append(Fraction(s, q))
        # a = (q x - s) b: b[i-1] = (a[i] + s b[i]) / q, from the top down
        b = [0] * (len(a) - 1)
        acc = 0
        for i in range(len(a) - 1, 0, -1):
            acc = (a[i] + s * acc) // q
            b[i - 1] = acc
        g = gcd(*b)
        a = [c // g for c in b]
    return sorted(roots)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over VARS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial over VARS; terms pair exponent vectors with coefficients."""

    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(d: Mapping[tuple[int, ...], Scalar]) -> "MultiPoly":
        items = [(e, _frac(c)) for e, c in d.items() if c]
        return MultiPoly(tuple(sorted(items)))

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly(())

    @staticmethod
    def const(c: Scalar) -> "MultiPoly":
        c = _frac(c)
        return MultiPoly(((_ZERO_EXP, c),)) if c else MultiPoly(())

    @staticmethod
    def one() -> "MultiPoly":
        return MultiPoly.const(1)

    @staticmethod
    def var(name: str, exp: int = 1) -> "MultiPoly":
        e = [0] * _NVARS
        e[_VAR_INDEX[name]] = exp
        return MultiPoly(((tuple(e), _F1),))

    @staticmethod
    def affine(const: Scalar, **coeffs: Scalar) -> "MultiPoly":
        """Shorthand for const + sum(coeff * var)."""
        p = MultiPoly.const(const)
        for name, c in coeffs.items():
            p = p + MultiPoly.var(name) * _frac(c)
        return p

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        d = self.as_dict()
        for e, c in other.terms:
            v = d.get(e, _F0) + c
            if v:
                d[e] = v
            elif e in d:
                del d[e]
        return MultiPoly(tuple(sorted(d.items())))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = _frac(other)
            if not other:
                return MultiPoly.zero()
            return MultiPoly(tuple((e, c * other) for e, c in self.terms))
        d: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                v = d.get(e, _F0) + c1 * c2
                if v:
                    d[e] = v
                elif e in d:
                    del d[e]
        return MultiPoly(tuple(sorted(d.items())))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MultiPoly":
        out = MultiPoly.one()
        for _ in range(e):
            out = out * self
        return out

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = _VAR_INDEX[name]
        return max(e[i] for e, _ in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def variables(self) -> set[str]:
        out = set()
        for e, _ in self.terms:
            for i, x in enumerate(e):
                if x:
                    out.add(VARS[i])
        return out

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        missing = self.variables() - set(point)
        if missing:
            raise ValueError(f"unbound variable: {sorted(missing)[0]}")
        vals = {name: _frac(v) for name, v in point.items()}
        acc = _F0
        for e, c in self.terms:
            t = c
            for i, x in enumerate(e):
                if x:
                    t *= vals[VARS[i]] ** x
            acc += t
        return acc

    def subst(self, point: Mapping[str, Scalar]) -> "MultiPoly":
        """Substitute rational values for a subset of the variables."""
        vals = {_VAR_INDEX[name]: _frac(v) for name, v in point.items()}
        d: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms:
            t = c
            ne = list(e)
            for i, v in vals.items():
                if ne[i]:
                    t *= v ** ne[i]
                    ne[i] = 0
            if not t:
                continue
            key = tuple(ne)
            acc = d.get(key, _F0) + t
            if acc:
                d[key] = acc
            elif key in d:
                del d[key]
        return MultiPoly(tuple(sorted(d.items())))

    def coeffs_in(self, name: str) -> list["MultiPoly"]:
        """Dense coefficient list in one variable; entries are MultiPolys."""
        i = _VAR_INDEX[name]
        deg = self.degree(name)
        if deg < 0:
            return []
        buckets: list[dict[tuple[int, ...], Fraction]] = [dict() for _ in range(deg + 1)]
        for e, c in self.terms:
            ne = list(e)
            x = ne[i]
            ne[i] = 0
            buckets[x][tuple(ne)] = buckets[x].get(tuple(ne), _F0) + c
        return [MultiPoly.from_dict(b) for b in buckets]

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

    def as_unipoly(self, name: str) -> UniPoly:
        """Convert to a dense univariate polynomial; other variables must be absent."""
        extra = self.variables() - {name}
        if extra:
            raise ValueError(f"unbound variable: {sorted(extra)[0]}")
        i = _VAR_INDEX[name]
        out = [_F0] * (self.degree(name) + 1)
        for e, c in self.terms:
            out[e[i]] += c
        return UniPoly.from_coeffs(out)

    def content(self) -> Fraction:
        if not self.terms:
            return _F0
        return Fraction(gcd(*(c.numerator for _, c in self.terms)),
                        lcm(*(c.denominator for _, c in self.terms)))

    def lead_coeff(self) -> Fraction:
        """Coefficient of the lexicographically largest exponent vector."""
        if not self.terms:
            return _F0
        return self.terms[-1][1]

    @staticmethod
    def from_string(s: str) -> "MultiPoly":
        return _parse_multipoly(s)

    @staticmethod
    def from_unipoly(u: UniPoly, name: str) -> "MultiPoly":
        i = _VAR_INDEX[name]
        d: dict[tuple[int, ...], Fraction] = {}
        for e, c in enumerate(u.coeffs):
            if c:
                key = list(_ZERO_EXP)
                key[i] = e
                d[tuple(key)] = c
        return MultiPoly(tuple(sorted(d.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms, key=lambda t: (-sum(t[0]), t[0])):
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


def _parse_multipoly(s: str) -> MultiPoly:
    """Parse a flat signed sum of monomials like '-3a^2bn + 1/2k - 7'."""
    text = s.replace("*", " ")
    i, n = 0, len(text)
    total = MultiPoly.zero()
    sign = 1
    seen_any = False

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    i = skip_ws(i)
    while i < n:
        ch = text[i]
        if ch == "+":
            sign, i = 1, skip_ws(i + 1)
            continue
        if ch == "-":
            sign, i = -1, skip_ws(i + 1)
            continue
        coeff = Fraction(sign)
        exps = [0] * _NVARS
        got = False
        while i < n:
            ch = text[i]
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                num = int(text[i:j])
                i = j
                if i < n and text[i] == "/":
                    j = i + 1
                    while j < n and text[j].isdigit():
                        j += 1
                    coeff *= Fraction(num, int(text[i + 1:j]))
                    i = j
                else:
                    coeff *= num
                got = True
            elif ch in _VAR_INDEX:
                vi = _VAR_INDEX[ch]
                i += 1
                exp = 1
                if i < n and text[i] == "^":
                    j = i + 1
                    while j < n and text[j].isdigit():
                        j += 1
                    exp = int(text[i + 1:j])
                    i = j
                exps[vi] += exp
                got = True
            elif ch.isspace():
                # a space inside a monomial continues it; term breaks are +/-
                j = skip_ws(i)
                if j < n and (text[j].isdigit() or text[j] in _VAR_INDEX):
                    i = j
                else:
                    i = j
                    break
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial text")
        if not got:
            raise ValueError("dangling sign in polynomial text")
        total = total + MultiPoly.from_dict({tuple(exps): coeff})
        seen_any = True
        sign = 1
        i = skip_ws(i)
    if not seen_any:
        raise ValueError("empty polynomial text")
    return total


# ---------------------------------------------------------------------------
# Rational functions (content-reduced quotients of MultiPolys)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatFunc:
    """Quotient num/den of MultiPolys, reduced by rational content only."""

    num: MultiPoly
    den: MultiPoly

    @staticmethod
    def new(num: MultiPoly, den: MultiPoly) -> "RatFunc":
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return RatFunc(MultiPoly.zero(), MultiPoly.one())
        # scale so both parts are integer and jointly primitive
        ratio = num.content() / den.content()
        num2 = num * (_F1 / num.content()) * ratio.numerator
        den2 = den * (_F1 / den.content()) * ratio.denominator
        if den2.lead_coeff() < 0:
            num2, den2 = -num2, -den2
        return RatFunc(num2, den2)

    @staticmethod
    def from_poly(p: MultiPoly) -> "RatFunc":
        return RatFunc.new(p, MultiPoly.one())

    @staticmethod
    def const(c: Scalar) -> "RatFunc":
        return RatFunc.from_poly(MultiPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.new(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc | Scalar") -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        return RatFunc.new(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.new(self.num * other.den, self.den * other.num)

    def reciprocal(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero rational function")
        return RatFunc.new(self.den, self.num)

    def equals(self, other: "RatFunc") -> bool:
        """Equality by cross-multiplication, independent of representation."""
        return (self.num * other.den) == (other.num * self.den)

    def subst(self, point: Mapping[str, Scalar]) -> "RatFunc":
        return RatFunc.new(self.num.subst(point), self.den.subst(point))

    def shift_var(self, name: str, s: Scalar) -> "RatFunc":
        return RatFunc.new(self.num.shift_var(name, s), self.den.shift_var(name, s))

    def eval(self, point: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num.eval(point) / d

    def __str__(self) -> str:
        if self.den == MultiPoly.one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"


# ---------------------------------------------------------------------------
# Fully reduced univariate rational functions (solver coefficient field)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NRat:
    """Reduced univariate rational function; den is primitive with positive lc."""

    num: UniPoly
    den: UniPoly

    @staticmethod
    def new(num: UniPoly, den: UniPoly) -> "NRat":
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return NRat(UniPoly.zero(), UniPoly.one())
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num.exact_div(g), den.exact_div(g)
        c = den.content()
        if den.lc < 0:
            c = -c
        return NRat(num.scale(_F1 / c), den.scale(_F1 / c))

    @staticmethod
    def from_poly(p: UniPoly) -> "NRat":
        return NRat.new(p, UniPoly.one())

    @staticmethod
    def const(c: Scalar) -> "NRat":
        return NRat.from_poly(UniPoly.constant(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other: "NRat") -> "NRat":
        if other.num.is_zero:
            return self
        if self.num.is_zero:
            return other
        return NRat.new(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    def __neg__(self) -> "NRat":
        return NRat(-self.num, self.den)

    def __sub__(self, other: "NRat") -> "NRat":
        return self + (-other)

    def __mul__(self, other: "NRat | Scalar") -> "NRat":
        if not isinstance(other, NRat):
            # a nonzero scalar changes no gcd; den stays primitive, lc > 0
            if not other or self.num.is_zero:
                return NRat(UniPoly.zero(), UniPoly.one())
            return NRat(self.num.scale(other), self.den)
        if self.num.is_zero or other.num.is_zero:
            return NRat(UniPoly.zero(), UniPoly.one())
        return NRat.new(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "NRat") -> "NRat":
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return NRat.new(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, c: Scalar) -> "NRat":
        """c / self for a scalar c, as in 1 / lc."""
        if self.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return NRat.new(self.den.scale(c), self.num)

    def eval(self, x: Scalar) -> Fraction:
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError("pole of rational function")
        return self.num.eval(x) / d
