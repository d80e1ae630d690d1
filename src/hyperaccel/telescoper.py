"""Two-term recurrence certificates and their Gosper-style derivation.

A recurrence couples a summand F(n, k) at two n-offsets,

    p1(n) F(n + r, k) + p2(n) F(n, k) = G(n, k + 1) - G(n, k),

with G = cert * F for a rational certificate cert(n, k).  Verification
substitutes the exact shift ratios of F and reduces the residual to a
rational function, which must be identically zero.

Derivation runs the parameterized Gosper algorithm: with rho_k = Nk/Dk
and rho_n = Nn/Dn the shift ratios of an instantiated summand, the
modified ratio Dn(k) Nk / (Dn(k+1) Dk) is put into normal form
(P, Q, R) with gcd(Q(k), R(k+j)) = 1 for all j >= 0, and

    Q(k) x(k+1) - R(k-1) x(k) = P(k) (p1 Nn(k) + p2 Dn(k))

is solved for a polynomial x and scalars (p1, p2) by exact linear
algebra over the field of rational functions in n.  The certificate is
R(k-1) x(k) / (P(k) Dn(k)).  Solver polynomials in k are `UniPoly`
values whose coefficients are `NRat` elements of that field; the linear
system is cleared to a polynomial matrix and eliminated fraction-free by
Bareiss pivoting in `_nullspace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from hyperaccel.builtin_data import neg27_dataset, negq_dataset, quarter_dataset
from hyperaccel.exact_arith import MultiPoly, NRat, RatFunc, Scalar, UniPoly
from hyperaccel.hypergeom_terms import (
    FamilyId,
    HypTerm,
    family_term,
    k_ratio_parts,
    k_shift_ratio,
    n_ratio_parts,
    n_shift_ratio,
)

_NR0 = NRat.const(0)
_NR1 = NRat.const(1)
_K1 = UniPoly((_NR1,))  # 1 and k as polynomials in k over NRat
_KX = UniPoly((_NR0, _NR1))


# ---------------------------------------------------------------------------
# Recurrence container and exact verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Recurrence:
    """p1(n) F(n+r, k) + p2(n) F(n, k) = (cert * F)(n, k+1) - (cert * F)(n, k)."""

    r: int
    p1: MultiPoly
    p2: MultiPoly
    cert: RatFunc
    family: Optional[FamilyId] = None


def recurrence_residual(term: HypTerm, rec: Recurrence) -> RatFunc:
    """Exact residual of the telescoped recurrence; zero iff it holds."""
    rho_n = n_shift_ratio(term, rec.r)
    rho_k = k_shift_ratio(term)
    lhs = RatFunc.from_poly(rec.p1) * rho_n + RatFunc.from_poly(rec.p2)
    rhs = rec.cert.shift_var("k", 1) * rho_k - rec.cert
    return lhs - rhs


def verify_recurrence(term: HypTerm, rec: Recurrence) -> bool:
    return recurrence_residual(term, rec).is_zero


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
    return Recurrence(r=_BUILTIN_SHIFTS[family], p1=p1, p2=p2, cert=cert,
                      family=family)


def builtin_residual(family: FamilyId) -> RatFunc:
    """Residual of the stored recurrence against the fully symbolic summand."""
    rec = builtin_recurrence(family)
    if rec is None:
        raise ValueError(f"no stored recurrence for family {family.value}")
    return recurrence_residual(family_term(family), rec)


def specialize(rec: Recurrence, params: Mapping[str, Scalar]) -> Recurrence:
    """Substitute rational parameter values into a recurrence."""
    return Recurrence(r=rec.r, p1=rec.p1.subst(params), p2=rec.p2.subst(params),
                      cert=rec.cert.subst(params), family=rec.family)


def same_ratio(a: Recurrence, b: Recurrence) -> bool:
    """Whether two recurrences agree up to overall scaling of (p1, p2)."""
    return a.r == b.r and a.p1 * b.p2 == b.p1 * a.p2


# ---------------------------------------------------------------------------
# Polynomials in k over the rational-function field in n
# ---------------------------------------------------------------------------


def kp_from_multipoly(p: MultiPoly) -> UniPoly:
    """A polynomial in n and k as a polynomial in k with NRat coefficients."""
    extra = p.variables() - {"n", "k"}
    if extra:
        raise ValueError(f"unbound variable: {sorted(extra)[0]}")
    return UniPoly.from_coeffs(
        [NRat.from_poly(c.as_unipoly("n")) for c in p.coeffs_in("k")])


def kp_pair_to_ratfunc(num: UniPoly, den: UniPoly) -> RatFunc:
    """Quotient of two polynomials in k over NRat as a rational function
    in n and k."""
    lcden = UniPoly.one()
    for c in (*num.coeffs, *den.coeffs):
        g = lcden.gcd(c.den)
        lcden = lcden * c.den.exact_div(g)

    def side(kp: UniPoly) -> MultiPoly:
        mp = MultiPoly.zero()
        for i, c in enumerate(kp.coeffs):
            if c.is_zero:
                continue
            u = c.num * lcden.exact_div(c.den)
            mp = mp + MultiPoly.from_unipoly(u, "n") * MultiPoly.var("k", i)
        return mp

    return RatFunc.new(side(num), side(den))


def _kp_prod(factors: Sequence[UniPoly]) -> UniPoly:
    out = _K1
    for f in factors:
        out = out * f
    return out


# ---------------------------------------------------------------------------
# Gosper normal form
# ---------------------------------------------------------------------------


def _nrat_const(v: NRat) -> Optional[Fraction]:
    """The constant value of an n-free NRat, else None."""
    if v.den.degree != 0 or v.num.degree > 0:
        return None
    if v.num.is_zero:
        return Fraction(0)
    return v.num.coeff(0) / v.den.coeff(0)


def _shift_candidates(num_factors: Sequence[UniPoly],
                      den_factors: Sequence[UniPoly]) -> list[int]:
    """Nonnegative integer shifts j at which a num factor meets a den factor.

    For linear factors m1 k + u1 and m2 k + u2 the unique shift aligning
    their roots is j = u1/m1 - u2/m2; only n-free nonnegative integers
    can break the gcd condition of the normal form.
    """
    cands: set[int] = set()
    for a in num_factors:
        if a.degree != 1:
            continue
        ra = a.coeffs[0] / a.coeffs[1]
        for b in den_factors:
            if b.degree != 1:
                continue
            jv = _nrat_const(ra - b.coeffs[0] / b.coeffs[1])
            if jv is not None and jv.denominator == 1 and jv >= 0:
                cands.add(int(jv))
    return sorted(cands)


def _normal_form(q: UniPoly, r: UniPoly,
                 candidates: Sequence[int]) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(P, Q, R) with q/r = (P(k+1)/P(k)) (Q(k)/R(k)), gcd(Q(k), R(k+j)) = 1."""
    p = _K1
    for j in candidates:
        while True:
            g = q.gcd(r.shift(j))
            if g.degree < 1:
                break
            q = q.exact_div(g)
            r = r.exact_div(g.shift(-j))
            for i in range(1, j + 1):
                p = p * g.shift(-i)
    return p, q, r


def _degree_bound(q: UniPoly, rstar: UniPoly, f_deg: int) -> int:
    """Upper bound for deg x in q(k) x(k+1) - rstar(k) x(k) = f(k)."""
    dq, dr = q.degree, rstar.degree
    if dq != dr or q.lc != rstar.lc:
        return f_deg - max(dq, dr)
    lead = q.lc
    a = q.coeff(dq - 1)
    b = rstar.coeff(dr - 1)
    sigma = _nrat_const((b - a) / lead)
    best = f_deg - dq + 1
    if sigma is not None and sigma.denominator == 1 and sigma >= 0:
        best = max(best, int(sigma))
    return best


# ---------------------------------------------------------------------------
# Exact nullspace over the rational-function field
# ---------------------------------------------------------------------------


def _nullspace(rows: list[list[NRat]]) -> list[list[NRat]]:
    """Basis of the right nullspace, computed fraction-free.

    Rows are cleared to polynomial entries, eliminated by Bareiss pivoting,
    and back-substituted over the field.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat: list[list[UniPoly]] = []
    for row in rows:
        lcden = UniPoly.one()
        for e in row:
            g = lcden.gcd(e.den)
            lcden = lcden * e.den.exact_div(g)
        mat.append([e.num * lcden.exact_div(e.den) for e in row])
    piv_cols: list[int] = []
    prev = UniPoly.one()
    rpos = 0
    for col in range(ncols):
        sel = next((i for i in range(rpos, len(mat)) if not mat[i][col].is_zero), None)
        if sel is None:
            continue
        mat[rpos], mat[sel] = mat[sel], mat[rpos]
        pv = mat[rpos][col]
        for i in range(rpos + 1, len(mat)):
            ci = mat[i][col]
            for j in range(col, ncols):
                mat[i][j] = (pv * mat[i][j] - ci * mat[rpos][j]).exact_div(prev)
        piv_cols.append(col)
        prev = pv
        rpos += 1
        if rpos == len(mat):
            break
    basis: list[list[NRat]] = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [_NR0] * ncols
        vec[fc] = _NR1
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            row = mat[i]
            s = _NR0
            for j in range(pc + 1, ncols):
                if not vec[j].is_zero and not row[j].is_zero:
                    s = s + NRat.from_poly(row[j]) * vec[j]
            vec[pc] = -s / NRat.from_poly(row[pc])
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


def _telescoper_columns(q: UniPoly, rstar: UniPoly, deg: int) -> list[UniPoly]:
    cols = []
    kpow = _K1
    for _ in range(deg + 1):
        cols.append(q * kpow.shift(1) - rstar * kpow)
        kpow = kpow * _KX
    return cols


def zeilberger_two_term(term: HypTerm, r: int, max_deg: int = 8,
                        family: Optional[FamilyId] = None) -> Optional[Recurrence]:
    """Derive a two-term recurrence with n-offset r, or None.

    The summand must have every parameter instantiated, leaving only n
    and k free.  max_deg caps the degree of the telescoper ansatz.
    """
    _require_instantiated(term)
    sk, nk, dk = k_ratio_parts(term)
    _, nn, dn = n_ratio_parts(term, r)
    nk_kp = [kp_from_multipoly(f) for f in nk]
    dk_kp = [kp_from_multipoly(f) for f in dk]
    nn_kp = [kp_from_multipoly(f) for f in nn]
    dn_kp = [kp_from_multipoly(f) for f in dn]
    num_factors = nk_kp + dn_kp
    den_factors = dk_kp + [f.shift(1) for f in dn_kp]
    cands = _shift_candidates(num_factors, den_factors)
    p, q, rr = _normal_form(_kp_prod(num_factors).scale(sk),
                            _kp_prod(den_factors), cands)
    n_n = _kp_prod(nn_kp)
    d_n = _kp_prod(dn_kp)
    rhs1 = p * n_n
    rhs2 = p * d_n
    rstar = rr.shift(-1)
    bound = _degree_bound(q, rstar, max(rhs1.degree, rhs2.degree)) + 1
    if bound < 0:
        return None
    deg = min(bound, max_deg)
    cols = _telescoper_columns(q, rstar, deg) + [-rhs1, -rhs2]
    nrows = max(c.degree for c in cols) + 1
    # past a column's degree its entries are the NRat zero
    rows = [[c.coeffs[m] if m <= c.degree else _NR0 for c in cols]
            for m in range(nrows)]
    vecs = [v for v in _nullspace(rows)
            if not (v[-1].is_zero and v[-2].is_zero)]
    if not vecs:
        return None
    vec = next((v for v in vecs if not v[-1].is_zero), vecs[0])
    x = UniPoly.from_coeffs(vec[:deg + 1])
    p1n, p2n = vec[-2], vec[-1]
    rec = _assemble(x, p1n, p2n, rstar, p, d_n, r, family)
    if not verify_recurrence(term, rec):
        raise RuntimeError("derived recurrence failed exact re-verification")
    return rec


def _assemble(x: UniPoly, p1n: NRat, p2n: NRat, rstar: UniPoly, p: UniPoly,
              d_n: UniPoly, r: int, family: Optional[FamilyId]) -> Recurrence:
    """Rescale a raw solution to the canonical polynomial pair and build it.

    The pair (p1, p2) is scaled to integer polynomials whose contents are
    coprime, with positive leading coefficient on p2 (on p1 when p2 = 0);
    the certificate R(k-1) x(k) / (P(k) Dn(k)) carries the same factor.
    """
    if p2n.is_zero:
        p1_uni = p1n.num.primitive()
        p2_uni = UniPoly.zero()
        scale = NRat.from_poly(p1_uni) / p1n
    else:
        t = p1n / p2n
        v = t.num.content().denominator if not t.num.is_zero else 1
        p1_uni = t.num.scale(v)
        p2_uni = t.den.scale(v)
        scale = NRat.from_poly(p2_uni) / p2n
    cert = kp_pair_to_ratfunc((rstar * x).scale(scale), p * d_n)
    return Recurrence(
        r=r,
        p1=MultiPoly.from_unipoly(p1_uni, "n"),
        p2=MultiPoly.from_unipoly(p2_uni, "n"),
        cert=cert,
        family=family,
    )


def derive_recurrence(term: HypTerm, max_deg: int = 8,
                      shifts: Sequence[int] = (1, 2),
                      family: Optional[FamilyId] = None) -> Optional[Recurrence]:
    """Search n-offsets in order and return the first recurrence found."""
    for r in shifts:
        rec = zeilberger_two_term(term, r, max_deg=max_deg, family=family)
        if rec is not None:
            return rec
    return None
