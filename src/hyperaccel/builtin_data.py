"""The stored general two-term recurrences, one table entry per family.

p1, p2 and the certificate denominators of the three families with every
parameter a-f free factor completely into affine factors, the Pochhammer
structure of Zeilberger recurrences for these summands (Petkovsek, Wilf &
Zeilberger, *A = B*, ch. 6); each certificate numerator is affine factors
times an irreducible core, kept verbatim.  Every text is in the syntax of
`MultiPoly.from_string`, and `telescoper.builtin_recurrence` multiplies
the parsed factors out: a transcription error breaks the exact
zero-residual check of `verify-symbolic` instead of hiding.
"""

from __future__ import annotations

from typing import NamedTuple

from hyperaccel.hypergeom_terms import FamilyId

Factored = tuple[int, tuple[str, ...]]  # c times the factors; () is 1


class StoredRecurrence(NamedTuple):
    """p1(n) F(n + r, k) + p2(n) F(n, k) = G(n, k + 1) - G(n, k) for
    G = cert[0] F / cert[1], each polynomial `Factored`."""

    r: int
    p1: Factored
    p2: Factored
    cert: tuple[Factored, Factored]


QUARTER_CERT_CORE = """
a b - a c - a d + a e - a k - 2 a n + a - b c - b d + b f - b k -
 2 b n + b + c^2 + c d - c e - c f + c k + 3 c n - c + d^2 - d e - d f + d k + 3 d n - d +
 e f - e k - 2 e n + e - f k - 2 f n + f + 2 k n + 3 n^2 - 2 n
"""
NEGQ_CERT_CORE = """
2 a b - c - a c - b c +
 c^2 + 2 a k + 2 b k - 2 c k + 2 k^2 + n + 3 a n + 3 b n - 4 c n +
 6 k n + 5 n^2
"""
NEG27_CERT_CORE = """
a b c - a^3 b c - b^2 c + 3 a^2 b^2 c - 3 a b^3 c +
 b^4 c - b c^2 + 3 a^2 b c^2 - 6 a b^2 c^2 + 3 b^3 c^2 -
 3 a b c^3 + 3 b^2 c^3 + b c^4 - a^2 b d + a^3 b d + a b^2 d -
 2 a^2 b^2 d + a b^3 d - a^2 c d + a^3 c d + b c d + a b c d -
 5 a^2 b c d + 7 a b^2 c d - 3 b^3 c d + a c^2 d - 2 a^2 c^2 d +
 7 a b c^2 d - 5 b^2 c^2 d + a c^3 d - 3 b c^3 d + a^2 d^2 -
 a^3 d^2 - a b d^2 + 2 a^2 b d^2 - a b^2 d^2 - a c d^2 +
 2 a^2 c d^2 - 4 a b c d^2 + 2 b^2 c d^2 - a c^2 d^2 + 2 b c^2 d^2 +
 a b k - a^2 b k - b^2 k + a b^2 k + a^2 b^2 k - 2 a b^3 k +
 b^4 k + a c k - a^2 c k - 2 b c k + a b c k + 4 a^2 b c k -
 8 a b^2 c k + 4 b^3 c k - c^2 k + a c^2 k + a^2 c^2 k -
 8 a b c^2 k + 7 b^2 c^2 k - 2 a c^3 k + 4 b c^3 k + c^4 k + b d k -
 a b d k - 2 a^2 b d k + b^2 d k + 4 a b^2 d k - 2 b^3 d k +
 c d k - a c d k - 2 a^2 c d k + b c d k + 10 a b c d k -
 8 b^2 c d k + c^2 d k + 4 a c^2 d k - 8 b c^2 d k - 2 c^3 d k +
 a^2 d^2 k - b d^2 k - 2 a b d^2 k + b^2 d^2 k - c d^2 k -
 2 a c d^2 k + 4 b c d^2 k + c^2 d^2 k + a k^2 - a^2 k^2 - b k^2 +
 2 a^2 b k^2 + b^2 k^2 - 4 a b^2 k^2 + 2 b^3 k^2 - c k^2 +
 2 a^2 c k^2 + b c k^2 - 7 a b c k^2 + 5 b^2 c k^2 + c^2 k^2 -
 4 a c^2 k^2 + 5 b c^2 k^2 + 2 c^3 k^2 + d k^2 - a d k^2 -
 a^2 d k^2 + 5 a b d k^2 - 4 b^2 d k^2 + 5 a c d k^2 -
 7 b c d k^2 - 4 c^2 d k^2 - d^2 k^2 - a d^2 k^2 + 2 b d^2 k^2 +
 2 c d^2 k^2 - a k^3 + a^2 k^3 + b k^3 - 2 a b k^3 + b^2 k^3 +
 c k^3 - 2 a c k^3 + 2 b c k^3 + c^2 k^3 - d k^3 + 2 a d k^3 -
 2 b d k^3 - 2 c d k^3 + d^2 k^3 + 2 a b n - a^2 b n - a^3 b n -
 2 b^2 n + a b^2 n + 4 a^2 b^2 n - 5 a b^3 n + 2 b^4 n + 2 a c n -
 a^2 c n - a^3 c n - 7 b c n + a b c n + 19 a^2 b c n -
 35 a b^2 c n + 17 b^3 c n - 2 c^2 n + a c^2 n + 4 a^2 c^2 n -
 35 a b c^2 n + 31 b^2 c^2 n - 5 a c^3 n + 17 b c^3 n + 2 c^4 n -
 2 a^2 d n + 2 a^3 d n + 2 b d n + 4 a b d n - 14 a^2 b d n +
 18 a b^2 d n - 6 b^3 d n + 2 c d n + 4 a c d n - 14 a^2 c d n +
 48 a b c d n - 34 b^2 c d n + 18 a c^2 d n - 34 b c^2 d n -
 6 c^3 d n - 4 a d^2 n + 8 a^2 d^2 n - 12 a b d^2 n + 4 b^2 d^2 n -
 12 a c d^2 n + 16 b c d^2 n + 4 c^2 d^2 n + 4 a k n - 4 a^2 k n -
 7 b k n + 5 a b k n + 10 a^2 b k n + b^2 k n - 24 a b^2 k n +
 14 b^3 k n - 7 c k n + 5 a c k n + 10 a^2 c k n + b c k n -
 54 a b c k n + 44 b^2 c k n + c^2 k n - 24 a c^2 k n +
 44 b c^2 k n + 14 c^3 k n + 4 d k n - 4 a d k n - 6 a^2 d k n +
 4 b d k n + 32 a b d k n - 26 b^2 d k n + 4 c d k n +
 32 a c d k n - 56 b c d k n - 26 c^2 d k n - 4 d^2 k n -
 8 a d^2 k n + 12 b d^2 k n + 12 c d^2 k n - 3 k^2 n - a k^2 n +
 7 a^2 k^2 n + 6 b k^2 n - 25 a b k^2 n + 18 b^2 k^2 n +
 6 c k^2 n - 25 a c k^2 n + 33 b c k^2 n + 18 c^2 k^2 n -
 2 d k^2 n + 18 a d k^2 n - 26 b d k^2 n - 26 c d k^2 n +
 8 d^2 k^2 n + 3 k^3 n - 6 a k^3 n + 6 b k^3 n + 6 c k^3 n -
 6 d k^3 n + 4 a n^2 - 3 a^2 n^2 - a^3 n^2 - 10 b n^2 + 5 a b n^2 +
 20 a^2 b n^2 - 41 a b^2 n^2 + 22 b^3 n^2 - 10 c n^2 + 5 a c n^2 +
 20 a^2 c n^2 - 116 a b c n^2 + 96 b^2 c n^2 - 41 a c^2 n^2 +
 96 b c^2 n^2 + 22 c^3 n^2 + 4 d n^2 + 4 a d n^2 - 20 a^2 d n^2 +
 72 a b d n^2 - 48 b^2 d n^2 + 72 a c d n^2 - 120 b c d n^2 -
 48 c^2 d n^2 - 24 a d^2 n^2 + 24 b d^2 n^2 + 24 c d^2 n^2 -
 12 k n^2 + 8 a k n^2 + 17 a^2 k n^2 + 5 b k n^2 - 86 a b k n^2 +
 73 b^2 k n^2 + 5 c k n^2 - 86 a c k n^2 + 148 b c k n^2 +
 73 c^2 k n^2 + 4 d k n^2 + 56 a d k n^2 - 96 b d k n^2 -
 96 c d k n^2 + 24 d^2 k n^2 + 11 k^2 n^2 - 41 a k^2 n^2 +
 56 b k^2 n^2 + 56 c k^2 n^2 - 44 d k^2 n^2 + 9 k^3 n^2 - 12 n^3 +
 8 a n^3 + 20 a^2 n^3 - 108 a b n^3 + 92 b^2 n^3 - 108 a c n^3 +
 216 b c n^3 + 92 c^2 n^3 + 80 a d n^3 - 128 b d n^3 -
 128 c d n^3 + 32 d^2 n^3 + 8 k n^3 - 96 a k n^3 + 164 b k n^3 +
 164 c k n^3 - 112 d k n^3 + 60 k^2 n^3 - 88 a n^4 + 168 b n^4 +
 168 c n^4 - 112 d n^4 + 136 k n^4 + 112 n^5
"""

STORED = {
    FamilyId.QUARTER: StoredRecurrence(
        r=1,
        p1=(-1, ("b - c + e - n", "b - d + e - n", "a - c + f - n", "a - d + f - n")),
        p2=(1, ("n", "n", "a + b - c - d + e + f - 2n",
                "a + b - c - d + e + f - 2n + 1")),
        cert=((-1, ("n", "n", QUARTER_CERT_CORE)), (1, ()))),
    FamilyId.NEG_QUARTER: StoredRecurrence(
        r=2,
        p1=(1, ("c - n - 1", "c - n", "a - b - c + n + 1", "a - b + c - n - 1")),
        p2=(-4, ("b + n", "b + n + 1", "a + n", "a + n + 1")),
        cert=((1, ("a + n", "a + n + 1", "b + n", "b + n + 1", NEGQ_CERT_CORE)),
              (1, ("a + k + n", "b + k + n")))),
    FamilyId.NEG_27: StoredRecurrence(
        r=1,
        p1=(-1, ("b - d + n", "c - d + n", "a - b - 2n - 1", "a - b - 2n",
                 "a - c - 2n - 1", "a - c - 2n")),
        p2=(4, ("n", "2n + 1", "2n + 1", "a - b - c + d - 3n - 1",
                "a - b - c + d - 3n", "a - b - c + d - 3n + 1")),
        cert=((4, ("n", "2n + 1", "2n + 1", NEG27_CERT_CORE)),
              (1, ("b + k + 2n", "c + k + 2n")))),
}
