"""Test-only MultiPoly constructions and measures, built on its public
`from_dict` and `terms`."""

from hyperaccel.exact_arith import VARS, MultiPoly


def from_unipoly(u, name: str) -> MultiPoly:
    """The UniPoly u as a MultiPoly in the variable name."""
    i = VARS.index(name)
    return MultiPoly.from_dict({
        tuple(x if v == i else 0 for v in range(len(VARS))): c
        for x, c in enumerate(u.coeffs)})


def total_degree(p: MultiPoly) -> int:
    """The largest exponent sum of p's monomials; -1 for the zero polynomial."""
    return max((sum(e) for e, _ in p.terms), default=-1)
