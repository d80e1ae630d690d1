"""Two-term recurrence certificates and their Gosper-style derivation.

A recurrence couples a summand F(n, k) at two n-offsets,

    p1(n) F(n + r, k) + p2(n) F(n, k) = G(n, k + 1) - G(n, k),

with G = cert * F for a rational certificate cert(n, k), a (numerator,
denominator) pair of MultiPolys.  Verification substitutes the exact
shift ratios of F, clears all denominators, and checks that the one
cross-multiplied numerator polynomial R is identically zero.
`recurrence_residual` expands R; the stored recurrences, whose free
parameters a-f would make any single integer image of R far too large,
are checked that way.  `verify_recurrence`, for an instantiated summand,
expands nothing.  It keeps every part of R as an integer scalar times a
product of integer polynomials in n and k, bounds the l1 norm of R by H
and its degree in n by D through the same expression, and evaluates R
at the Kronecker point n = X = 2^B, k = X^(D+1), B = bit_length(H) + 1
(Harvey, J. Symb. Comput. 2009).  Distinct monomials go to distinct
powers of X with coefficients of size at most H < X, so the image is
zero exactly when R is.  The image is a product of sums of shifted
integers.

Derivation runs the parameterized Gosper algorithm: with rho_k = Nk/Dk
and rho_n = Nn/Dn the shift ratios of an instantiated summand, the
modified ratio Dn(k) Nk / (Dn(k+1) Dk) is put into normal form
(P, Q, R) with gcd(Q(k), R(k+j)) = 1 for all j >= 0, and

    Q(k) x(k+1) - R(k-1) x(k) = P(k) (p1 Nn(k) + p2 Dn(k))

is solved for a polynomial x and scalars (p1, p2) by exact linear
algebra over the field of rational functions in n.  The certificate is
R(k-1) x(k) / (P(k) Dn(k)).

The solver works on factors and integers, and takes no gcd until the
end.  Every factor of the shift ratios is affine, m k + u(n), so the
normal form is found on the factor lists themselves (`_normal_form`).
P, Q, R, Nn and Dn are then expanded once as MultiPolys in n and k, and
the coefficient rows in k of the equation are cleared to primitive rows
over Z[n], integer coefficient lists in n.  `_nullspace` eliminates
them by Bareiss pivoting and back-substitutes in Cramer form, so the
solution stays in Z[n].  `_assemble` takes one gcd in Z[n] for the
pair (p1, p2) and one for the certificate's denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Mapping, Optional, Sequence

from hyperaccel.builtin_data import neg27_dataset, negq_dataset, quarter_dataset
from hyperaccel.exact_arith import (MultiPoly, Scalar, UniPoly, _common_ints,
                                    _primitive_pair, _zdiv, _zgcd, _zmul, _zsub)
from hyperaccel.hypergeom_terms import (
    FamilyId,
    HypTerm,
    family_term,
    k_ratio_parts,
    k_shift_ratio,
    n_ratio_parts,
    n_shift_ratio,
)

_ONE = MultiPoly.one()
_K = MultiPoly.var("k")
_K_PLUS_1 = _K + _ONE


# ---------------------------------------------------------------------------
# Recurrence container and exact verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """p1(n) F(n+r, k) + p2(n) F(n, k) = (cert * F)(n, k+1) - (cert * F)(n, k)."""

    r: int
    p1: MultiPoly
    p2: MultiPoly
    cert: tuple[MultiPoly, MultiPoly]


def recurrence_residual(term: HypTerm, rec: Recurrence) -> MultiPoly:
    """Numerator of the residual p1 rho_n + p2 - (cert(k+1) rho_k - cert)
    over Dn Cd(k+1) Dk Cd, for rho_n = Nn/Dn, rho_k = Nk/Dk and cert =
    Cn/Cd; zero iff the recurrence holds.  The denominator is never
    built.  Raises ZeroDivisionError when a denominator is zero."""
    nn, dn = n_shift_ratio(term, rec.r)
    nk, dk = k_shift_ratio(term)
    cn, cd = rec.cert
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    cn1, cd1 = cn.shift_var("k", 1), cd.shift_var("k", 1)
    cd1_dk = cd1 * dk
    return ((rec.p1 * nn + rec.p2 * dn) * (cd1_dk * cd)
            - (cn1 * nk * cd - cn * cd1_dk) * dn)


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


def _image(terms: list[tuple[int, int, int]], b: int, kb: int, shifted: bool) -> int:
    """f(X, Y), or f(X, Y + 1) when shifted, at X = 2^b and Y = 2^kb, for
    f the sum of c n^i k^j over the (i, j, c) terms."""
    if not shifted:
        return sum(c << (b * i + kb * j) for i, j, c in terms)
    rows: dict[int, int] = {}
    for i, j, c in terms:
        rows[j] = rows.get(j, 0) + (c << (b * i))
    acc = 0
    for j in range(max(rows, default=0), -1, -1):
        acc = (acc << kb) + acc + rows.get(j, 0)
    return acc


class _Product:
    """An integer scalar times a product of integer polynomials in n and
    k, each given by its (i, j, c) terms and read at k + 1 when shifted."""

    def __init__(self, scalar: int,
                 factors: list[tuple[list[tuple[int, int, int]], bool]]):
        self.scalar = scalar
        self.factors = factors

    def bound(self) -> _Bound:
        norm, deg = abs(self.scalar), 0
        for terms, shifted in self.factors:
            # (k + 1)^j has l1 norm 2^j
            norm *= sum(abs(c) << j if shifted else abs(c) for _, j, c in terms)
            deg += max((i for i, _, _ in terms), default=0)
        return _Bound(norm, deg)

    def image(self, b: int, kb: int) -> int:
        out = self.scalar
        for terms, shifted in self.factors:
            out *= _image(terms, b, kb, shifted)
        return out


def _ratio_products(parts: tuple[Fraction, list[MultiPoly], list[MultiPoly]]
                    ) -> tuple[_Product, _Product]:
    """Integer products (N, D) with N/D = sign prod(num)/prod(den) for
    the factor lists (sign, num, den) of a shift ratio."""
    sign, num, den = parts
    ns, ds = sign.numerator, sign.denominator
    nf, df = [], []
    for f in num:
        d, terms = f.int_terms("n", "k")
        ds *= d
        nf.append((terms, False))
    for f in den:
        d, terms = f.int_terms("n", "k")
        ns *= d
        df.append((terms, False))
    return _Product(ns, nf), _Product(ds, df)


def _kronecker_zero(form, parts: Sequence[_Product]) -> bool:
    """Whether the polynomial R = form(*parts) is zero, from its image at
    n = X = 2^B, k = X^(D+1), B = bit_length(H) + 1, where H and D bound
    the l1 norm of R and its degree in n; form must use only +, - and *.
    `verify_recurrence` states and proves the lemma that makes it exact.
    """
    h = form(*(p.bound() for p in parts))
    b = h.norm.bit_length() + 1
    return form(*(p.image(b, b * (h.deg + 1)) for p in parts)) == 0


def _residual_form(p1, p2, nn, dn, nk, dk, cn, cd, cn1, cd1, d12):
    """R of `verify_recurrence` from its parts, evaluated alike on
    integer images and on `_Bound`s."""
    return ((p1 * nn + p2 * dn) * cd1 * dk * cd
            - d12 * (cn1 * nk * cd - cn * cd1 * dk) * dn)


def verify_recurrence(term: HypTerm, rec: Recurrence) -> bool:
    """Whether the recurrence holds for the instantiated summand, decided
    exactly from one integer: nothing is expanded.

    The factor lists of rho_n = NN/DN and rho_k = NK/DK come from the
    summand afresh; they, cert = Cn/Cd and p1 = P1/D12, p2 = P2/D12 are
    written as integer polynomials in n and k times integer scalars.
    The recurrence holds iff

        R = (P1 NN + P2 DN) Cd+ DK Cd - D12 (Cn+ NK Cd - Cn Cd+ DK) DN

    is zero, f+(n, k) = f(n, k + 1): R is D12 DN Cd+ DK Cd times the
    residual p1 rho_n + p2 - (cert(k+1) rho_k - cert).  H bounds the l1
    norm of R and D its degree in n, both computed through the same
    expression, with products of norms, sums for differences and
    ||f+||_1 <= sum |c| 2^(e_k) (`_Bound`).

    Lemma.  With X = 2^B and B = bit_length(H) + 1, R(X, X^(D+1)) = 0
    iff R = 0.  Each monomial n^i k^j of R goes to X^(i + (D+1) j), and
    i <= D makes these powers distinct, so the image is sum c_m X^m with
    every |c_m| <= H < X.  If some c_m is nonzero, the lowest one, c,
    has 0 < |c| < X, and the image is X^m (c + X y) for an integer y,
    which is not zero because X does not divide c.

    The image is a product of sums of shifted integers; an f+ part takes
    one Horner pass in k.  Raises ZeroDivisionError on a zero
    certificate denominator and ValueError when a parameter other than
    n and k is free.
    """
    cn, cd = rec.cert
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    if rec.r < 1:
        raise ValueError("n-shift must be a positive integer")
    _require_instantiated(term)
    nn, dn = _ratio_products(n_ratio_parts(term, rec.r))
    nk, dk = _ratio_products(k_ratio_parts(term))
    (e1, t1), (e2, t2) = rec.p1.int_terms("n", "k"), rec.p2.int_terms("n", "k")
    (en, tn), (ed, td) = cn.int_terms("n", "k"), cd.int_terms("n", "k")
    d12 = lcm(e1, e2)
    parts = (_Product(d12 // e1, [(t1, False)]), _Product(d12 // e2, [(t2, False)]),
             nn, dn, nk, dk,
             _Product(ed, [(tn, False)]), _Product(en, [(td, False)]),
             _Product(ed, [(tn, True)]), _Product(en, [(td, True)]),
             _Product(d12, []))
    return _kronecker_zero(_residual_form, parts)


_BUILTIN_SHIFTS = {
    FamilyId.QUARTER: 1,
    FamilyId.NEG_QUARTER: 2,
    FamilyId.NEG_27: 1,
}


def theorem_families() -> tuple[FamilyId, ...]:
    """Families that carry a stored fully general recurrence."""
    return tuple(_BUILTIN_SHIFTS)


@lru_cache(maxsize=None)
def builtin_recurrence(family: FamilyId) -> Optional[Recurrence]:
    """Stored recurrence for the three fully general families, if any."""
    if family is FamilyId.QUARTER:
        p1, p2, cert = quarter_dataset()
    elif family is FamilyId.NEG_QUARTER:
        p1, p2, cert = negq_dataset()
    elif family is FamilyId.NEG_27:
        p1, p2, cert = neg27_dataset()
    else:
        return None
    return Recurrence(r=_BUILTIN_SHIFTS[family], p1=p1, p2=p2, cert=cert)


def builtin_residual(family: FamilyId) -> MultiPoly:
    """Residual numerator of the stored recurrence against the fully
    symbolic summand."""
    rec = builtin_recurrence(family)
    if rec is None:
        raise ValueError(f"no stored recurrence for family {family.value}")
    return recurrence_residual(family_term(family), rec)


def specialize(rec: Recurrence, params: Mapping[str, Scalar]) -> Recurrence:
    """Substitute rational parameter values into a recurrence; raises
    ZeroDivisionError when the certificate's denominator vanishes
    identically there."""
    cn, cd = (part.subst(params) for part in rec.cert)
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    return Recurrence(r=rec.r, p1=rec.p1.subst(params), p2=rec.p2.subst(params),
                      cert=(cn, cd))


def same_ratio(a: Recurrence, b: Recurrence) -> bool:
    """Whether two recurrences agree up to overall scaling of (p1, p2)."""
    return a.r == b.r and a.p1 * b.p2 == b.p1 * a.p2


# ---------------------------------------------------------------------------
# Factor-level Gosper-Petkovsek normal form
# ---------------------------------------------------------------------------


def _root_form(f: MultiPoly) -> Optional[tuple[Fraction, MultiPoly]]:
    """(m, u/m) for an affine factor f = m k + u(n) with m != 0; None
    when f is free of k."""
    cs = f.coeffs_in("k")
    if len(cs) != 2:
        return None
    m = cs[1].eval({})
    return m, cs[0] * (1 / m)


def _normal_form(sk: Fraction, num: Sequence[MultiPoly], den: Sequence[MultiPoly]
                 ) -> tuple[list[MultiPoly], Fraction, list[MultiPoly], list[MultiPoly]]:
    """Normal form of q/r = sk prod(num)/prod(den) on its affine factors.

    Returns (P factors, c, Q factors, R factors) with q/r = (P(k+1)/P(k))
    (Q(k)/R(k)) for P = prod P factors, Q = c prod Q factors and R = prod
    R factors, and gcd(Q(k), R(k+j)) = 1 for every j >= 0.  A num factor
    a and a den factor b meet at shift j when a(k) = (m_a/m_b) b(k+j);
    for j ascending every meeting pair is removed, P gains a(k-1) ...
    a(k-j) and c gains m_a/m_b.  Within one j the meeting relation joins
    whole classes of equal roots, so the greedy matching removes what a
    gcd of the expanded products would, and no gcd is taken.
    """
    nroots = [_root_form(f) for f in num]
    droots = [_root_form(f) for f in den]
    pairs = []
    for i, a in enumerate(nroots):
        for l, b in enumerate(droots):
            if a is None or b is None:
                continue
            # a meets b at the shift u_a/m_a - u_b/m_b, if n-free
            d = a[1] - b[1]
            if not d.variables():
                j = d.eval({})
                if j.denominator == 1 and j >= 0:
                    pairs.append((int(j), i, l))
    pairs.sort()
    used_num: set[int] = set()
    used_den: set[int] = set()
    p_factors: list[MultiPoly] = []
    c = sk
    for j, i, l in pairs:
        if i in used_num or l in used_den:
            continue
        used_num.add(i)
        used_den.add(l)
        c *= nroots[i][0] / droots[l][0]
        p_factors.extend(num[i].shift_var("k", -t) for t in range(1, j + 1))
    return (p_factors, c,
            [f for i, f in enumerate(num) if i not in used_num],
            [f for l, f in enumerate(den) if l not in used_den])


def _degree_bound(q: list[MultiPoly], rstar: list[MultiPoly], f_deg: int) -> int:
    """Upper bound for deg x in q(k) x(k+1) - rstar(k) x(k) = f(k), from
    the coefficient lists in k of q and rstar."""
    dq, dr = len(q) - 1, len(rstar) - 1
    if dq != dr or q[-1] != rstar[-1]:
        return f_deg - max(dq, dr)
    lead = q[-1]
    diff = (rstar[-2] - q[-2]) if dq >= 1 else MultiPoly.zero()
    best = f_deg - dq + 1
    # sigma = diff/lead counts only when it is an n-free integer >= 0
    sigma = diff.lead_coeff() / lead.lead_coeff()
    if (diff == lead * sigma and sigma.denominator == 1 and sigma >= 0):
        best = max(best, int(sigma))
    return best


# ---------------------------------------------------------------------------
# Fraction-free nullspace over Z[n]
# ---------------------------------------------------------------------------


def _nullspace(rows: list[list[list[int]]]) -> list[list[list[int]]]:
    """Basis of the right nullspace of a matrix over Z[n].

    Bareiss elimination divides every update exactly by the previous
    pivot, so all entries stay in Z[n].  Back-substitution is in Cramer
    form: a free column's entry is the last pivot, the other free entries
    are zero, and each pivot entry is the row's sum divided exactly by
    the row's pivot, so each basis vector lies in Z[n]^cols.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat = [list(row) for row in rows]
    piv_cols: list[int] = []
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
        vec: list[list[int]] = [[] for _ in range(ncols)]
        vec[fc] = prev
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            row = mat[i]
            s: list[int] = []
            for j in range(pc + 1, ncols):
                if vec[j] and row[j]:
                    s = _zsub(s, _zmul(row[j], vec[j]))
            vec[pc] = _zdiv(s, row[pc])
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# Parameterized derivation
# ---------------------------------------------------------------------------


def _require_instantiated(term: HypTerm) -> None:
    free = set()
    for g in term.gammas:
        free |= g.arg.variables()
    extra = free - {"n", "k"}
    if extra:
        raise ValueError(
            f"summand must be instantiated; free parameter {sorted(extra)[0]}")


def _n_poly(cs: list[int]) -> MultiPoly:
    return MultiPoly.from_unipoly(UniPoly.from_coeffs(cs), "n")


def _kn_poly(cs: list[list[int]]) -> MultiPoly:
    """sum_i cs[i](n) k^i for integer coefficient lists cs[i] in n."""
    out = MultiPoly.zero()
    for i, c in enumerate(cs):
        if c:
            out = out + _n_poly(c) * _K ** i
    return out


def _int_rows(cols: list[MultiPoly]) -> list[list[list[int]]]:
    """The coefficient rows in k of the columns, each cleared to a
    primitive integer row of polynomials in n."""
    coeffs = [[c.as_unipoly("n") for c in col.coeffs_in("k")] for col in cols]
    zero = UniPoly.zero()
    return [_common_ints([cs[m] if m < len(cs) else zero for cs in coeffs])
            for m in range(max(len(cs) for cs in coeffs))]


def zeilberger_two_term(term: HypTerm, r: int,
                        max_deg: int = 8) -> Optional[Recurrence]:
    """Derive a two-term recurrence with n-offset r, or None.

    The summand must have every parameter instantiated, leaving only n
    and k free.  max_deg caps the degree of the telescoper ansatz.
    """
    _require_instantiated(term)
    sk, nk, dk = k_ratio_parts(term)
    _, nn, dn = n_ratio_parts(term, r)
    p_f, c, q_f, r_f = _normal_form(sk, nk + dn,
                                    dk + [f.shift_var("k", 1) for f in dn])
    p = prod(p_f, start=_ONE)
    q = prod(q_f, start=_ONE) * c
    rstar = prod(r_f, start=_ONE).shift_var("k", -1)
    d_n = prod(dn, start=_ONE)
    rhs1 = p * prod(nn, start=_ONE)
    rhs2 = p * d_n
    bound = _degree_bound(q.coeffs_in("k"), rstar.coeffs_in("k"),
                          max(rhs1.degree("k"), rhs2.degree("k"))) + 1
    if bound < 0:
        return None
    deg = min(bound, max_deg)
    cols = []
    q_kp1, kpow = q, _ONE  # q(k) (k+1)^i and k^i
    for _ in range(deg + 1):
        cols.append(q_kp1 - rstar * kpow)
        q_kp1 = q_kp1 * _K_PLUS_1
        kpow = kpow * _K
    vecs = [v for v in _nullspace(_int_rows(cols + [-rhs1, -rhs2]))
            if v[-1] or v[-2]]
    if not vecs:
        return None
    vec = next((v for v in vecs if v[-1]), vecs[0])
    rec = _assemble(vec, deg, rstar, p * d_n, r)
    if not verify_recurrence(term, rec):
        raise RuntimeError("derived recurrence failed exact re-verification")
    return rec


def _assemble(vec: list[list[int]], deg: int, rstar: MultiPoly,
              pd: MultiPoly, r: int) -> Recurrence:
    """Rescale a nullspace vector (x_0..x_deg, p1, p2) over Z[n] to the
    canonical polynomial pair and build the recurrence.

    The pair (p1, p2) is divided by g = gcd(p1, p2), primitive in Z[n]
    (g = 1 when p2 = 0), and by its joint integer content ct, signed so
    that the leading coefficient of p2 (of p1 when p2 = 0) is positive.
    The certificate R(k-1) x(k) / (P(k) Dn(k)) takes the same scale
    1/(ct g).  It is printed over the lcm of the reduced denominators of
    its coefficients in k, which is g/h for h the gcd of g and those
    coefficients of R(k-1) x(k).
    """
    p1n, p2n = vec[-2], vec[-1]
    g = _zgcd(p1n, p2n) if p2n else [1]
    a, b = _zdiv(p1n, g), _zdiv(p2n, g)
    ct = gcd(*a, *b)
    if (b or a)[-1] < 0:
        ct = -ct
    rx = rstar * _kn_poly(vec[:deg + 1])
    # rx = s sum_m c_m(n) k^m with the c_m in Z[n], jointly primitive
    s = rx.content() or Fraction(1)
    cs = _common_ints([c.as_unipoly("n") for c in rx.coeffs_in("k")])
    h = g
    for c in cs:
        if len(h) == 1:
            break
        h = _zgcd(h, c)
    return Recurrence(r=r, p1=_n_poly([c // ct for c in a]),
                      p2=_n_poly([c // ct for c in b]),
                      cert=_primitive_pair(_kn_poly([_zdiv(c, h) for c in cs]) * (s / ct),
                                           pd * _n_poly(_zdiv(g, h))))


def derive_recurrence(term: HypTerm, max_deg: int = 8,
                      shifts: Sequence[int] = (1, 2)) -> Optional[Recurrence]:
    """Search n-offsets in order and return the first recurrence found."""
    for r in shifts:
        rec = zeilberger_two_term(term, r, max_deg=max_deg)
        if rec is not None:
            return rec
    return None
