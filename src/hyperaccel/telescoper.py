"""Two-term recurrence certificates and their Gosper-style derivation.

A recurrence couples a summand F(n, k) at two n-offsets,

    p1(n) F(n + r, k) + p2(n) F(n, k) = G(n, k + 1) - G(n, k),

with G = cert * F for a rational certificate cert(n, k), a (numerator,
denominator) pair.  A recurrence has one of two forms.  The stored
general recurrences keep their free parameters a-f: a
`SymbolicRecurrence` holds p1, p2 and the certificate as MultiPolys.  An
instantiated recurrence, what the solver derives and what `specialize`
makes of a stored one at a parameter point, is a `Recurrence`: p1 and p2
are UniPolys in n, and the certificate is a pair of integer grids in n
and k (`Grid`), so nothing downstream converts it.

Verification substitutes the exact shift ratios of F, clears all
denominators, and checks that the one cross-multiplied numerator
polynomial R is identically zero.  `recurrence_residual` expands R,
`_residual_form` on MultiPolys, for a symbolic recurrence: free
parameters would make any single integer image of R far too large.
`verify_recurrence`, for an instantiated one, expands nothing: it keeps
every part of R as an integer scalar times a product of grids and
decides R = 0 from one Kronecker image (`exact_arith._kronecker_zero`;
Harvey, J. Symb. Comput. 2009).

Derivation runs the parameterized Gosper algorithm: with rho_k = Nk/Dk
and rho_n = Nn/Dn the shift ratios of an instantiated summand, the
modified ratio Dn(k) Nk / (Dn(k+1) Dk) is put into normal form
(P, Q, R) with gcd(Q(k), R(k+j)) = 1 for all j >= 0, and

    Q(k) x(k+1) - R(k-1) x(k) = P(k) (p1 Nn(k) + p2 Dn(k))

is solved for a polynomial x and scalars (p1, p2) by exact linear
algebra over the field of rational functions in n.  The certificate is
R(k-1) x(k) / (P(k) Dn(k)).

The solver works on factors and integers, and builds no MultiPoly.
Every factor of the shift ratios is affine, m k + s n + u, an integer
`Affine` row: `_normal_form` works on the factor lists by integer
cross-multiplication, and `_grid` multiplies the rows of P, Q, R, Nn
and Dn into integer grids over the powers of k.  `_nullspace`
eliminates the equation's primitive rows in k by Bareiss pivoting on
one Kronecker image per entry and back-substitutes in Cramer form, so
the solution stays in Z[n].  `_assemble` divides out the vector's
content, takes one gcd for (p1, p2) and one for the certificate's
denominator, and returns p1, p2 and the certificate's grids as the
integer lists it computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Mapping, Optional, Sequence

from hyperaccel.builtin_data import neg27_dataset, negq_dataset, quarter_dataset
from hyperaccel.exact_arith import (VARS, Affine, MultiPoly, Scalar, UniPoly,
                                    _Bound, _common_ints, _kronecker_zero,
                                    _zdiv, _zgcd, _zmul, _zsub)
from hyperaccel.hypergeom_terms import (
    FamilyId,
    HypTerm,
    RatioParts,
    family_term,
    k_ratio_parts,
    k_shift_ratio,
    n_ratio_parts,
    n_shift_ratio,
)

_K_INDEX = VARS.index("k")
_N_INDEX = VARS.index("n")


# ---------------------------------------------------------------------------
# Recurrence container and exact verification
# ---------------------------------------------------------------------------


# an integer polynomial sum_j rows[j](n) k^j: its rows over the powers of
# k, each the ascending integer coefficients in n with no trailing zero,
# and no trailing empty row; () is zero
Grid = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Recurrence:
    """p1(n) F(n+r, k) + p2(n) F(n, k) = (cert * F)(n, k+1) - (cert * F)(n, k)
    for an instantiated summand: p1 and p2 are UniPolys in n, and cert =
    Cn/Cd is a pair of grids with no common integer factor and a positive
    coefficient at Cd's largest monomial in MultiPoly key order, the
    highest power of n and then of k (`_cert_pair`); a zero Cn has Cd = 1."""

    r: int
    p1: UniPoly
    p2: UniPoly
    cert: tuple[Grid, Grid]


@dataclass(frozen=True)
class SymbolicRecurrence:
    """The identity of `Recurrence` with p1, p2 and cert = Cn/Cd as
    MultiPolys over VARS, free parameters among their variables: the
    stored form of a family's general recurrence."""

    r: int
    p1: MultiPoly
    p2: MultiPoly
    cert: tuple[MultiPoly, MultiPoly]


def recurrence_residual(term: HypTerm, rec: SymbolicRecurrence) -> MultiPoly:
    """Numerator of the residual p1 rho_n + p2 - (cert(k+1) rho_k - cert)
    over Dn Cd(k+1) Dk Cd, for rho_n = Nn/Dn, rho_k = Nk/Dk and cert =
    Cn/Cd; zero iff the recurrence holds.  It is `_residual_form` on the
    expanded MultiPolys, with p1 and p2 as they are (D12 = 1).  The
    denominator is never built.  Raises ZeroDivisionError when a
    denominator is zero."""
    nn, dn = n_shift_ratio(term, rec.r)
    nk, dk = k_shift_ratio(term)
    cn, cd = rec.cert
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    return _residual_form(rec.p1, rec.p2, nn, dn, nk, dk, cn, cd,
                          cn.shift_var("k", 1), cd.shift_var("k", 1), 1)


def _image(rows: Sequence[Sequence[int]], b: int, kb: int, shifted: bool) -> int:
    """f(X, Y), or f(X, Y + 1) when shifted, at X = 2^b and Y = 2^kb, for
    the grid f = sum_j rows[j](n) k^j, by Horner in Y."""
    acc = 0
    for row in reversed(rows):
        acc = ((acc << kb) + (acc if shifted else 0)
               + sum(c << (b * i) for i, c in enumerate(row)))
    return acc


class _Product:
    """An integer scalar times a product of grids, each read at k + 1
    when shifted."""

    def __init__(self, scalar: int,
                 factors: list[tuple[Sequence[Sequence[int]], bool]]):
        self.scalar = scalar
        self.factors = factors

    def bound(self) -> _Bound:
        norm, deg = abs(self.scalar), 0
        for rows, shifted in self.factors:
            # (k + 1)^j has l1 norm 2^j
            norm *= sum(sum(map(abs, row)) << (j if shifted else 0)
                        for j, row in enumerate(rows))
            deg += max(map(len, rows), default=1) - 1
        return _Bound(norm, deg)

    def image(self, b: int, kb: int) -> int:
        out = self.scalar
        for rows, shifted in self.factors:
            out *= _image(rows, b, kb, shifted)
        return out


def _ratio_products(parts: RatioParts) -> tuple[_Product, _Product]:
    """Integer products (N, D) with N/D = sign prod(num)/prod(den) for
    the factor lists (sign, num, den) of a shift ratio, each factor a
    `_grid` of its own."""
    sign, num, den = parts
    ns, ds = sign.numerator, sign.denominator
    nf, df = [], []
    for f in num:
        rows, d = _grid((f,))
        ds *= d
        nf.append((rows, False))
    for f in den:
        rows, d = _grid((f,))
        ns *= d
        df.append((rows, False))
    return _Product(ns, nf), _Product(ds, df)


def _residual_form(p1, p2, nn, dn, nk, dk, cn, cd, cn1, cd1, d12):
    """R of `verify_recurrence` from its parts, evaluated alike on
    integer images, on `_Bound`s and, by `recurrence_residual`, on
    MultiPolys."""
    return ((p1 * nn + p2 * dn) * cd1 * dk * cd
            - d12 * (cn1 * nk * cd - cn * cd1 * dk) * dn)


def verify_recurrence(term: HypTerm, rec: Recurrence) -> bool:
    """Whether the recurrence holds for the instantiated summand, decided
    exactly from one integer: nothing is expanded.

    The factor lists of rho_n = NN/DN and rho_k = NK/DK are the
    summand's `Affine` rows; they, the certificate's grids Cn and Cd and
    p1 = P1/D12, p2 = P2/D12 are written as grids times integer scalars.
    The recurrence holds iff

        R = (P1 NN + P2 DN) Cd+ DK Cd - D12 (Cn+ NK Cd - Cn Cd+ DK) DN

    is zero, f+(n, k) = f(n, k + 1): R is D12 DN Cd+ DK Cd times the
    residual p1 rho_n + p2 - (cert(k+1) rho_k - cert).  `_kronecker_zero`
    decides it; the bounds of R's l1 norm and degree in n run through
    the same expression (`_Bound`), with ||f+||_1 <= sum |c| 2^(e_k),
    and the image of an f+ part takes one Horner pass in k.  Raises
    ZeroDivisionError on a zero certificate denominator and ValueError
    when a parameter other than n and k is free in the summand or rec.r
    < 1.
    """
    cn, cd = rec.cert
    if not cd:
        raise ZeroDivisionError("certificate with zero denominator")
    _require_instantiated(term)
    nn, dn = _ratio_products(n_ratio_parts(term, rec.r))
    nk, dk = _ratio_products(k_ratio_parts(term))
    p1, p2 = rec.p1, rec.p2
    d12 = lcm(p1.denominator, p2.denominator)
    parts = (_Product(d12 // p1.denominator, [((p1.numerators,), False)]),
             _Product(d12 // p2.denominator, [((p2.numerators,), False)]),
             nn, dn, nk, dk,
             _Product(1, [(cn, False)]), _Product(1, [(cd, False)]),
             _Product(1, [(cn, True)]), _Product(1, [(cd, True)]),
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
def builtin_recurrence(family: FamilyId) -> Optional[SymbolicRecurrence]:
    """Stored recurrence for the three fully general families, if any."""
    if family is FamilyId.QUARTER:
        p1, p2, cert = quarter_dataset()
    elif family is FamilyId.NEG_QUARTER:
        p1, p2, cert = negq_dataset()
    elif family is FamilyId.NEG_27:
        p1, p2, cert = neg27_dataset()
    else:
        return None
    return SymbolicRecurrence(r=_BUILTIN_SHIFTS[family], p1=p1, p2=p2, cert=cert)


def builtin_residual(family: FamilyId) -> MultiPoly:
    """Residual numerator of the stored recurrence against the fully
    symbolic summand."""
    rec = builtin_recurrence(family)
    if rec is None:
        raise ValueError(f"no stored recurrence for family {family.value}")
    return recurrence_residual(family_term(family), rec)


def specialize(rec: SymbolicRecurrence, params: Mapping[str, Scalar]) -> Recurrence:
    """The instantiated recurrence at rational parameter values: p1 and
    p2 as UniPolys in n, the certificate as grids by `_cert_pair`.
    Raises ZeroDivisionError when the certificate's denominator vanishes
    identically there, ValueError("unbound variable: x") when a variable
    x other than n (and k in the certificate) is left free, and
    ValueError for a name outside VARS.  Each of the four polynomials
    keeps its substitution layout for these names, so a stored
    recurrence lays out its terms on its first specialization only."""
    cn, cd = (part.subst(params) for part in rec.cert)
    if cd.is_zero:
        raise ZeroDivisionError("certificate with zero denominator")
    p1, p2 = (p.subst(params).as_unipoly("n") for p in (rec.p1, rec.p2))
    num, den = ([c.as_unipoly("n") for c in part.coeffs_in("k")]
                for part in (cn, cd))
    rows = _common_ints(num + den)
    return Recurrence(r=rec.r, p1=p1, p2=p2,
                      cert=_cert_pair(rows[:len(num)], rows[len(num):]))


def _cert_pair(num: list[list[int]], den: list[list[int]]) -> tuple[Grid, Grid]:
    """The certificate num/den, integer grids with den nonzero, with
    trailing empty rows dropped and the integer content of both divided
    out, signed so that den's coefficient at its largest monomial in
    MultiPoly key order (the highest power of n, then of k) is positive;
    (0, 1) when num is zero.  No polynomial gcd is divided out."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return (), ((1,),)
    while not den[-1]:
        den.pop()
    g = gcd(*(c for grid in (num, den) for row in grid for c in row))
    top = den[max(range(len(den)), key=lambda j: (len(den[j]), j))]
    if top[-1] < 0:
        g = -g
    return tuple(tuple(tuple(c // g for c in row) for row in grid)
                 for grid in (num, den))


# ---------------------------------------------------------------------------
# Factor-level Gosper-Petkovsek normal form
# ---------------------------------------------------------------------------


def _roots(fs: Sequence[Affine]) -> list[Optional[tuple[tuple[int, ...], int, int]]]:
    """(direction, m, u) for each factor f = (m k + w + u)/d with m != 0,
    where w is the part in the other variables and direction is the
    primitive row of m k + w with m > 0; None when f is free of k.  Two
    factors have equal directions iff their w/m are equal."""
    out = []
    for f in fs:
        lin = f.row[:-1]
        m = lin[_K_INDEX]
        if not m:
            out.append(None)
            continue
        g = gcd(*lin)
        if m < 0:
            g = -g
        out.append((tuple(c // g for c in lin), m, f.row[-1]))
    return out


def _normal_form(sk: Fraction, num: Sequence[Affine], den: Sequence[Affine]
                 ) -> tuple[list[Affine], Fraction, list[Affine], list[Affine]]:
    """Normal form of q/r = sk prod(num)/prod(den) on its affine factors.

    Returns (P factors, c, Q factors, R factors) with q/r = (P(k+1)/P(k))
    (Q(k)/R(k)) for P = prod P factors, Q = c prod Q factors and R = prod
    R factors, and gcd(Q(k), R(k+j)) = 1 for every j >= 0.  A num factor
    a and a den factor b meet at shift j when a(k) = (m_a/m_b) b(k+j):
    their parts w/m outside k and the constant agree, and j = u_a/m_a -
    u_b/m_b, tested in integers as (u_a m_b - u_b m_a)/(m_a m_b), is an
    integer >= 0.  For j ascending every meeting pair is removed, P gains
    a(k-1) ... a(k-j) and c gains m_a/m_b.  Within one j the meeting
    relation joins whole classes of equal roots, so the greedy matching
    removes what a gcd of the expanded products would, and no gcd is
    taken.
    """
    nroots, droots = _roots(num), _roots(den)
    by_direction: dict[tuple[int, ...], list[int]] = {}
    for l, b in enumerate(droots):
        if b is not None:
            by_direction.setdefault(b[0], []).append(l)
    pairs = []
    for i, a in enumerate(nroots):
        if a is None:
            continue
        _, ma, ua = a
        for l in by_direction.get(a[0], ()):
            _, mb, ub = droots[l]
            j, rem = divmod(ua * mb - ub * ma, ma * mb)
            if not rem and j >= 0:
                pairs.append((j, i, l))
    pairs.sort()
    used_num: set[int] = set()
    used_den: set[int] = set()
    p_factors: list[Affine] = []
    c = sk
    for j, i, l in pairs:
        if i in used_num or l in used_den:
            continue
        used_num.add(i)
        used_den.add(l)
        c *= Fraction(nroots[i][1] * den[l].den, droots[l][1] * num[i].den)
        p_factors.extend(num[i].shift("k", -t) for t in range(1, j + 1))
    return (p_factors, c,
            [f for i, f in enumerate(num) if i not in used_num],
            [f for l, f in enumerate(den) if l not in used_den])


def _degree_bound(q: list[list[int]], rstar: list[list[int]], f_deg: int) -> int:
    """Upper bound for deg x in q(k) x(k+1) - rstar(k) x(k) = f(k), from
    the top rows of the integer grids of q and rstar on one scale."""
    dq, dr = len(q) - 1, len(rstar) - 1
    if dq != dr or q[-1] != rstar[-1]:
        return f_deg - max(dq, dr)
    lead = q[-1]
    diff = _zsub(rstar[-2], q[-2]) if dq >= 1 else []
    best = f_deg - dq + 1
    # sigma = diff/lead counts only when it is an n-free integer >= 0
    sigma, rem = divmod(diff[-1], lead[-1]) if diff else (0, 0)
    if not rem and sigma >= 0 and not _zsub(diff, [c * sigma for c in lead]):
        best = max(best, sigma)
    return best


# ---------------------------------------------------------------------------
# Fraction-free nullspace over Z[n]
# ---------------------------------------------------------------------------


def _image_bits(rows: list[list[list[int]]]) -> int:
    """B = bit_length(H) + 1.  With m the smaller dimension of the
    matrix and a line's weight max(1, sum of its entries' l1 norms), H
    is the product of the m heaviest rows' weights or of the m heaviest
    columns', whichever is smaller."""
    m = min(len(rows), len(rows[0]))
    heights = []
    for lines in (rows, zip(*rows)):
        weights = sorted((max(1, sum(abs(c) for e in line for c in e))
                          for line in lines), reverse=True)
        heights.append(prod(weights[:m]))
    return min(heights).bit_length() + 1


def _unpack(x: int, b: int) -> list[int]:
    """The coefficient list f with f(2^b) = x and every |c| < 2^(b-1)."""
    out = []
    half, mask = 1 << (b - 1), (1 << b) - 1
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << b
        out.append(c)
        x = (x - c) >> b
    return out


def _nullspace(rows: list[list[list[int]]]) -> list[list[list[int]]]:
    """Basis of the right nullspace of a matrix over Z[n].

    Bareiss elimination divides every update exactly by the previous
    pivot, so all entries stay in Z[n].  Back-substitution is in Cramer
    form: a free column's entry is the last pivot, the other free entries
    are zero, and each pivot entry is the row's sum divided exactly by
    the row's pivot, so each basis vector lies in Z[n]^cols.

    The elimination runs on the Kronecker images f(2^B) of the entries,
    one integer each, for B = `_image_bits(rows)`, and `_unpack` reads
    each basis entry back at the end.  Every Bareiss entry and every
    basis entry is, up to sign, a minor of the input with at most m rows
    (m and the weights as in `_image_bits`), whose l1 norm is at most
    both the product of its rows' weights and that of its columns', so its
    coefficients are at most H < 2^(B-1).  By the lemma of
    `exact_arith._kronecker_zero`, each zero test of an image is that of
    its polynomial, and the same pivots are chosen.  Evaluation at 2^B
    is a ring map, so an exact quotient in Z[n] maps to the exact
    quotient of the images; the products inside an update may exceed H,
    but they are only ever divided.
    """
    if not rows:
        return []
    b = _image_bits(rows)
    mat = [[sum(c << (b * i) for i, c in enumerate(e)) for e in row]
           for row in rows]
    ncols = len(mat[0])
    piv_cols: list[int] = []
    prev = 1
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
                row[j] = (pv * row[j] - ci * top[j]) // prev
        piv_cols.append(col)
        prev = pv
        rpos += 1
        if rpos == len(mat):
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [0] * ncols
        vec[fc] = prev
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            row = mat[i]
            s = 0
            for j in range(pc + 1, ncols):
                if vec[j] and row[j]:
                    s -= row[j] * vec[j]
            vec[pc] = s // row[pc]
        basis.append([_unpack(x, b) for x in vec])
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


def _grid(factors: Sequence[Affine], rows: Sequence[Sequence[int]] = ((1,),),
          den: int = 1) -> tuple[list[list[int]], int]:
    """The grid rows over den, sum_j rows[j](n) k^j / den, times the
    affine factors (m k + s n + u)/e, as rows over a positive integer,
    each trimmed: a factor turns row j into (s n + u) row j + m row j-1,
    formed in one pass over the two rows."""
    for f in factors:
        u, s, m = f.row[-1], f.row[_N_INDEX], f.row[_K_INDEX]
        out = []
        below: Sequence[int] = ()
        for row in [*rows, ()] if m else rows:
            new = [0] * max(len(row) + 1, len(below))
            for i, c in enumerate(row):
                new[i] += u * c
                new[i + 1] += s * c
            if m:
                for i, c in enumerate(below):
                    new[i] += m * c
            while new and not new[-1]:
                new.pop()
            out.append(new)
            below = row
        rows = out
        den *= f.den
    return rows, den


def zeilberger_two_term(term: HypTerm, r: int,
                        max_deg: int = 8) -> Optional[Recurrence]:
    """Derive a two-term recurrence with n-offset r, or None.

    The summand must have every parameter instantiated, leaving only n
    and k free.  max_deg caps the degree of the telescoper ansatz.
    Raises ValueError for r < 1 (from `n_ratio_parts`) before solving.
    """
    _require_instantiated(term)
    sk, nk, dk = k_ratio_parts(term)
    _, nn, dn = n_ratio_parts(term, r)
    p_f, c, q_f, r_f = _normal_form(sk, nk + dn,
                                    dk + tuple(f.shift("k", 1) for f in dn))
    rec = _solve(p_f, c, q_f, [f.shift("k", -1) for f in r_f], nn, dn, r,
                 max_deg)
    if rec is not None and not verify_recurrence(term, rec):
        raise RuntimeError("derived recurrence failed exact re-verification")
    return rec


def _solve(p_f: list[Affine], c: Fraction, q_f: list[Affine],
           rs_f: list[Affine], nn: Sequence[Affine], dn: Sequence[Affine],
           r: int, max_deg: int) -> Optional[Recurrence]:
    """The recurrence with n-offset r from the factors of the normal form
    P, c Q and R* = R(k-1) and of the n-shift ratio Nn/Dn, or None; not
    re-checked.  The columns c Q(k) (k+1)^i - R*(k) k^i, -P Nn and -P Dn
    are integer grids, and each k-row of the system is cleared to its
    primitive integer row by one positive factor."""
    p, dp = _grid(p_f)
    (f1, d1), (f2, d2) = _grid(nn, p, dp), _grid(dn, p, dp)
    q, dq = _grid(q_f, [[c.numerator]], c.denominator)
    rs, dr = _grid(rs_f, [[dq]])
    q, den = [[x * dr for x in row] for row in q], dq * dr
    bound = _degree_bound(q, rs, max(len(f1), len(f2)) - 1) + 1
    if bound < 0:
        return None
    deg = min(bound, max_deg)
    cols = []
    for _ in range(deg + 1):
        # q is c Q(k) (k+1)^i and rs is R*(k) k^i, both times den
        col = [_zsub(a, b) for a, b in zip_longest(q, rs, fillvalue=[])]
        while col and not col[-1]:
            col.pop()
        cols.append(col)
        q = [_zsub(a, [-x for x in b]) for a, b in zip(q + [[]], [[]] + q)]
        rs = [[]] + rs
    cols += [f1, f2]
    scales = [d1 * d2] * (deg + 1) + [-den * d2, -den * d1]
    rows = []
    for m in range(max(map(len, cols))):
        row = [[x * t for x in g[m]] if m < len(g) else []
               for g, t in zip(cols, scales)]
        ct = gcd(*(x for e in row for x in e))
        rows.append([[x // ct for x in e] for e in row] if ct > 1 else row)
    vecs = [v for v in _nullspace(rows) if v[-1] or v[-2]]
    if not vecs:
        return None
    vec = next((v for v in vecs if v[-1]), vecs[0])
    return _assemble(vec, deg, rs_f, f2, d2, r)


def _assemble(vec: list[list[int]], deg: int, rs_f: list[Affine],
              pd: list[list[int]], pd_den: int, r: int) -> Recurrence:
    """Rescale a nullspace vector (x_0..x_deg, p1, p2) over Z[n] to the
    canonical polynomial pair and build the recurrence, from the factors
    of R* = R(k-1) and from P Dn as the integer grid pd over pd_den.

    The pair (p1, p2) is divided by g = gcd(p1, p2), primitive in Z[n]
    (g = 1 when p2 = 0), and by its joint integer content ct, signed so
    that the leading coefficient of p2 (of p1 when p2 = 0) is positive.
    The certificate R* x / (P Dn) takes the same scale 1/(ct g), over the
    lcm g/h of the reduced denominators of its coefficients in k, h the
    gcd of g and those coefficients of R* x.  The vector's content c in
    Z[n] divides g, h and R* x, so x/c and g/c give the same recurrence.
    The certificate's grids are put in the form of `_cert_pair`.
    """
    p1n, p2n = vec[-2], vec[-1]
    g = _zgcd(p1n, p2n) if p2n else [1]
    a, b = _zdiv(p1n, g), _zdiv(p2n, g)
    ct = gcd(*a, *b)
    if (b or a)[-1] < 0:
        ct = -ct
    c, xs = g, []  # xs: the x_i so far divided by c
    for x in vec[:deg + 1]:
        try:
            xs.append(_zdiv(x, c))
        except ValueError:
            c = _zgcd(c, x)
            xs = [_zdiv(y, c) for y in vec[:len(xs) + 1]]
    g = h = _zdiv(g, c)
    rx, rx_den = _grid(rs_f, xs)
    for row in rx:
        if len(h) == 1:
            break
        h = _zgcd(h, row)
    # cert = s (rx / h) / (pd g / h)
    s = Fraction(pd_den, rx_den * ct)
    g_h = [x * s.denominator for x in _zdiv(g, h)]
    return Recurrence(r=r, p1=UniPoly(tuple(x // ct for x in a)),
                      p2=UniPoly(tuple(x // ct for x in b)),
                      cert=_cert_pair([[x * s.numerator for x in _zdiv(row, h)]
                                       for row in rx],
                                      [_zmul(row, g_h) for row in pd]))


def derive_recurrence(term: HypTerm, max_deg: int = 8,
                      shifts: Sequence[int] = (1, 2)) -> Optional[Recurrence]:
    """Search n-offsets in order and return the first recurrence found."""
    for r in shifts:
        rec = zeilberger_two_term(term, r, max_deg=max_deg)
        if rec is not None:
            return rec
    return None
