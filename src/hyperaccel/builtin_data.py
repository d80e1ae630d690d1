"""Built-in two-term recurrence data for three summand families.

Representation: each dataset is a triple of verbatim coefficient strings
(p1, p2, and the polynomial core of the telescoping certificate) in the
mini monomial-sum syntax parsed by `MultiPoly.from_string`: signed integer
monomials over the variables a-f, n, k with `^` powers and juxtaposition
products.  Builder functions assemble each certificate, a (numerator,
denominator) pair of MultiPolys, from its core.  Keeping the data as flat
text means a transcription error breaks the exact zero-residual
verification rather than hiding inside hand-converted coefficient tables.
"""

from __future__ import annotations

from hyperaccel.exact_arith import MultiPoly

# Family with two rising numerator factors against a squared-base
# denominator pair; recurrence steps n by 1.

QUARTER_P1 = """
-a^2 b^2 + a^2 b c + a^2 b d - 2 a^2 b e + 2 a^2 b n - a^2 c d +
 a^2 c e - a^2 c n + a^2 d e - a^2 d n - a^2 e^2 + 2 a^2 e n -
 a^2 n^2 + a b^2 c + a b^2 d - 2 a b^2 f + 2 a b^2 n - a b c^2 -
 2 a b c d + 2 a b c e + 2 a b c f - 4 a b c n - a b d^2 +
 2 a b d e + 2 a b d f - 4 a b d n - 4 a b e f + 4 a b e n +
 4 a b f n - 4 a b n^2 + a c^2 d - a c^2 e + a c^2 n + a c d^2 -
 2 a c d e - 2 a c d f + 4 a c d n + a c e^2 + 2 a c e f -
 4 a c e n - 2 a c f n + 3 a c n^2 - a d^2 e + a d^2 n + a d e^2 +
 2 a d e f - 4 a d e n - 2 a d f n + 3 a d n^2 - 2 a e^2 f +
 2 a e^2 n + 4 a e f n - 4 a e n^2 - 2 a f n^2 + 2 a n^3 - b^2 c d +
 b^2 c f - b^2 c n + b^2 d f - b^2 d n - b^2 f^2 + 2 b^2 f n -
 b^2 n^2 + b c^2 d - b c^2 f + b c^2 n + b c d^2 - 2 b c d e -
 2 b c d f + 4 b c d n + 2 b c e f - 2 b c e n + b c f^2 -
 4 b c f n + 3 b c n^2 - b d^2 f + b d^2 n + 2 b d e f - 2 b d e n +
 b d f^2 - 4 b d f n + 3 b d n^2 - 2 b e f^2 + 4 b e f n -
 2 b e n^2 + 2 b f^2 n - 4 b f n^2 + 2 b n^3 - c^2 d^2 + c^2 d e +
 c^2 d f - 2 c^2 d n - c^2 e f + c^2 e n + c^2 f n - c^2 n^2 +
 c d^2 e + c d^2 f - 2 c d^2 n - c d e^2 - 2 c d e f + 4 c d e n -
 c d f^2 + 4 c d f n - 4 c d n^2 + c e^2 f - c e^2 n + c e f^2 -
 4 c e f n + 3 c e n^2 - c f^2 n + 3 c f n^2 - 2 c n^3 - d^2 e f +
 d^2 e n + d^2 f n - d^2 n^2 + d e^2 f - d e^2 n + d e f^2 -
 4 d e f n + 3 d e n^2 - d f^2 n + 3 d f n^2 - 2 d n^3 - e^2 f^2 +
 2 e^2 f n - e^2 n^2 + 2 e f^2 n - 4 e f n^2 + 2 e n^3 - f^2 n^2 +
 2 f n^3 - n^4
"""

QUARTER_P2 = """
a^2 n^2 - 4 a n^3 + b^2 n^2 - 4 b n^3 + c^2 n^2 + 4 c n^3 + d^2 n^2 + 4 d n^3 + e^2 n^2 -
 4 e n^3 + f^2 n^2 - 4 f n^3 - 2 n^3 + 4 n^4 + 2 a b n^2 - 2 a c n^2 - 2 a d n^2 + 2 a e n^2 +
 2 a f n^2 - 2 b c n^2 - 2 b d n^2 + 2 b e n^2 + 2 b f n^2 + 2 c d n^2 - 2 c e n^2 - 2 c f n^2 -
 2 d e n^2 - 2 d f n^2 + 2 e f n^2 + a n^2 + b n^2 - c n^2 - d n^2 + e n^2 + f n^2
"""

QUARTER_CERT_CORE = """
a b - a c - a d + a e - a k - 2 a n + a - b c - b d + b f - b k -
 2 b n + b + c^2 + c d - c e - c f + c k + 3 c n - c + d^2 - d e - d f + d k + 3 d n - d +
 e f - e k - 2 e n + e - f k - 2 f n + f + 2 k n + 3 n^2 - 2 n
"""

# Alternating family with matched numerator shifts against parameter-plus-n
# denominator bases; recurrence steps n by 2.

NEGQ_P1 = """
a^2 c^2 - 2 a^2 c n + a^2 n^2 - 2 a b c^2 + 4 a b c n - 2 a b n^2 +
 b^2 c^2 - 2 b^2 c n + b^2 n^2 - c^4 + 4 c^3 n - 6 c^2 n^2 + 4 c n^3 -
 n^4 - a^2 c + a^2 n + 2 a b c - 2 a b n - b^2 c + b^2 n + 3 c^3 -
 9 c^2 n + 9 c n^2 - 3 n^3 - 3 c^2 + 6 c n - 3 n^2 + c - n
"""

NEGQ_P2 = """
-4 a^2 b^2 - 8 a^2 b n - 4 a^2 n^2 - 8 a b^2 n - 16 a b n^2 -
 8 a n^3 - 4 b^2 n^2 - 8 b n^3 - 4 n^4 - 4 a^2 b - 4 a^2 n -
 4 a b^2 - 16 a b n - 12 a n^2 - 4 b^2 n - 12 b n^2 - 8 n^3 - 4 a b -
 4 a n - 4 n b - 4 n^2
"""

NEGQ_CERT_CORE = """
2 a b - c - a c - b c +
 c^2 + 2 a k + 2 b k - 2 c k + 2 k^2 + n + 3 a n + 3 b n - 4 c n +
 6 k n + 5 n^2
"""

# Family with a doubled-base denominator pair; recurrence steps n by 1.

NEG27_P1 = """
-a^2 b c + 2 a^3 b c - a^4 b c + a b^2 c - 3 a^2 b^2 c + 2 a^3 b^2 c +
 a b^3 c - a^2 b^3 c + a b c^2 - 3 a^2 b c^2 + 2 a^3 b c^2 -
 b^2 c^2 + 4 a b^2 c^2 - 4 a^2 b^2 c^2 - b^3 c^2 + 2 a b^3 c^2 +
 a b c^3 - a^2 b c^3 - b^2 c^3 + 2 a b^2 c^3 - b^3 c^3 + a^2 b d -
 2 a^3 b d + a^4 b d - a b^2 d + 3 a^2 b^2 d - 2 a^3 b^2 d - a b^3 d +
 a^2 b^3 d + a^2 c d - 2 a^3 c d + a^4 c d - 2 a b c d +
 6 a^2 b c d - 4 a^3 b c d + b^2 c d - 5 a b^2 c d + 5 a^2 b^2 c d +
 b^3 c d - 2 a b^3 c d - a c^2 d + 3 a^2 c^2 d - 2 a^3 c^2 d +
 b c^2 d - 5 a b c^2 d + 5 a^2 b c^2 d + 2 b^2 c^2 d - 4 a b^2 c^2 d +
 b^3 c^2 d - a c^3 d + a^2 c^3 d + b c^3 d - 2 a b c^3 d +
 b^2 c^3 d - a^2 d^2 + 2 a^3 d^2 - a^4 d^2 + a b d^2 - 3 a^2 b d^2 +
 2 a^3 b d^2 + a b^2 d^2 - a^2 b^2 d^2 + a c d^2 - 3 a^2 c d^2 +
 2 a^3 c d^2 - b c d^2 + 4 a b c d^2 - 4 a^2 b c d^2 - b^2 c d^2 +
 2 a b^2 c d^2 + a c^2 d^2 - a^2 c^2 d^2 - b c^2 d^2 + 2 a b c^2 d^2 -
 b^2 c^2 d^2 - a^2 b n + 2 a^3 b n - a^4 b n + a b^2 n -
 3 a^2 b^2 n + 2 a^3 b^2 n + a b^3 n - a^2 b^3 n - a^2 c n +
 2 a^3 c n - a^4 c n + 6 a b c n - 18 a^2 b c n + 12 a^3 b c n -
 3 b^2 c n + 17 a b^2 c n - 17 a^2 b^2 c n - 3 b^3 c n + 6 a b^3 c n +
 a c^2 n - 3 a^2 c^2 n + 2 a^3 c^2 n - 3 b c^2 n + 17 a b c^2 n -
 17 a^2 b c^2 n - 10 b^2 c^2 n + 20 a b^2 c^2 n - 5 b^3 c^2 n +
 a c^3 n - a^2 c^3 n - 3 b c^3 n + 6 a b c^3 n - 5 b^2 c^3 n +
 2 a^2 d n - 4 a^3 d n + 2 a^4 d n - 6 a b d n + 18 a^2 b d n -
 12 a^3 b d n + 2 b^2 d n - 14 a b^2 d n + 14 a^2 b^2 d n +
 2 b^3 d n - 4 a b^3 d n - 6 a c d n + 18 a^2 c d n - 12 a^3 c d n +
 6 b c d n - 32 a b c d n + 32 a^2 b c d n + 12 b^2 c d n -
 24 a b^2 c d n + 4 b^3 c d n + 2 c^2 d n - 14 a c^2 d n +
 14 a^2 c^2 d n + 12 b c^2 d n - 24 a b c^2 d n + 10 b^2 c^2 d n +
 2 c^3 d n - 4 a c^3 d n + 4 b c^3 d n + 4 a d^2 n - 12 a^2 d^2 n +
 8 a^3 d^2 n - 2 b d^2 n + 12 a b d^2 n - 12 a^2 b d^2 n -
 2 b^2 d^2 n + 4 a b^2 d^2 n - 2 c d^2 n + 12 a c d^2 n -
 12 a^2 c d^2 n - 8 b c d^2 n + 16 a b c d^2 n - 4 b^2 c d^2 n -
 2 c^2 d^2 n + 4 a c^2 d^2 n - 4 b c^2 d^2 n - a^2 n^2 + 2 a^3 n^2 -
 a^4 n^2 + 5 a b n^2 - 15 a^2 b n^2 + 10 a^3 b n^2 - 2 b^2 n^2 +
 13 a b^2 n^2 - 13 a^2 b^2 n^2 - 2 b^3 n^2 + 4 a b^3 n^2 +
 5 a c n^2 - 15 a^2 c n^2 + 10 a^3 c n^2 - 9 b c n^2 + 52 a b c n^2 -
 52 a^2 b c n^2 - 23 b^2 c n^2 + 46 a b^2 c n^2 - 8 b^3 c n^2 -
 2 c^2 n^2 + 13 a c^2 n^2 - 13 a^2 c^2 n^2 - 23 b c^2 n^2 +
 46 a b c^2 n^2 - 25 b^2 c^2 n^2 - 2 c^3 n^2 + 4 a c^3 n^2 -
 8 b c^3 n^2 - 8 a d n^2 + 24 a^2 d n^2 - 16 a^3 d n^2 + 8 b d n^2 -
 48 a b d n^2 + 48 a^2 b d n^2 + 16 b^2 d n^2 - 32 a b^2 d n^2 +
 4 b^3 d n^2 + 8 c d n^2 - 48 a c d n^2 + 48 a^2 c d n^2 +
 40 b c d n^2 - 80 a b c d n^2 + 28 b^2 c d n^2 + 16 c^2 d n^2 -
 32 a c^2 d n^2 + 28 b c^2 d n^2 + 4 c^3 d n^2 - 4 d^2 n^2 +
 24 a d^2 n^2 - 24 a^2 d^2 n^2 - 12 b d^2 n^2 + 24 a b d^2 n^2 -
 4 b^2 d^2 n^2 - 12 c d^2 n^2 + 24 a c d^2 n^2 - 16 b c d^2 n^2 -
 4 c^2 d^2 n^2 + 4 a n^3 - 12 a^2 n^3 + 8 a^3 n^3 - 6 b n^3 +
 36 a b n^3 - 36 a^2 b n^3 - 14 b^2 n^3 + 28 a b^2 n^3 - 4 b^3 n^3 -
 6 c n^3 + 36 a c n^3 - 36 a^2 c n^3 - 48 b c n^3 + 96 a b c n^3 -
 40 b^2 c n^3 - 14 c^2 n^3 + 28 a c^2 n^3 - 40 b c^2 n^3 -
 4 c^3 n^3 + 8 d n^3 - 48 a d n^3 + 48 a^2 d n^3 + 40 b d n^3 -
 80 a b d n^3 + 24 b^2 d n^3 + 40 c d n^3 - 80 a c d n^3 +
 64 b c d n^3 + 24 c^2 d n^3 - 16 d^2 n^3 + 32 a d^2 n^3 -
 16 b d^2 n^3 - 16 c d^2 n^3 - 4 n^4 + 24 a n^4 - 24 a^2 n^4 -
 28 b n^4 + 56 a b n^4 - 20 b^2 n^4 - 28 c n^4 + 56 a c n^4 -
 64 b c n^4 - 20 c^2 n^4 + 32 d n^4 - 64 a d n^4 + 48 b d n^4 +
 48 c d n^4 - 16 d^2 n^4 - 16 n^5 + 32 a n^5 - 32 b n^5 - 32 c n^5 +
 32 d n^5 - 16 n^6
"""

NEG27_P2 = """
-4 a n + 4 a^3 n + 4 b n - 12 a^2 b n + 12 a b^2 n - 4 b^3 n +
 4 c n - 12 a^2 c n + 24 a b c n - 12 b^2 c n + 12 a c^2 n -
 12 b c^2 n - 4 c^3 n - 4 d n + 12 a^2 d n - 24 a b d n +
 12 b^2 d n - 24 a c d n + 24 b c d n + 12 c^2 d n + 12 a d^2 n -
 12 b d^2 n - 12 c d^2 n + 4 d^3 n + 12 n^2 - 16 a n^2 - 36 a^2 n^2 +
 16 a^3 n^2 + 16 b n^2 + 72 a b n^2 - 48 a^2 b n^2 - 36 b^2 n^2 +
 48 a b^2 n^2 - 16 b^3 n^2 + 16 c n^2 + 72 a c n^2 - 48 a^2 c n^2 -
 72 b c n^2 + 96 a b c n^2 - 48 b^2 c n^2 - 36 c^2 n^2 +
 48 a c^2 n^2 - 48 b c^2 n^2 - 16 c^3 n^2 - 16 d n^2 - 72 a d n^2 +
 48 a^2 d n^2 + 72 b d n^2 - 96 a b d n^2 + 48 b^2 d n^2 +
 72 c d n^2 - 96 a c d n^2 + 96 b c d n^2 + 48 c^2 d n^2 -
 36 d^2 n^2 + 48 a d^2 n^2 - 48 b d^2 n^2 - 48 c d^2 n^2 +
 16 d^3 n^2 + 48 n^3 + 92 a n^3 - 144 a^2 n^3 + 16 a^3 n^3 -
 92 b n^3 + 288 a b n^3 - 48 a^2 b n^3 - 144 b^2 n^3 + 48 a b^2 n^3 -
 16 b^3 n^3 - 92 c n^3 + 288 a c n^3 - 48 a^2 c n^3 - 288 b c n^3 +
 96 a b c n^3 - 48 b^2 c n^3 - 144 c^2 n^3 + 48 a c^2 n^3 -
 48 b c^2 n^3 - 16 c^3 n^3 + 92 d n^3 - 288 a d n^3 + 48 a^2 d n^3 +
 288 b d n^3 - 96 a b d n^3 + 48 b^2 d n^3 + 288 c d n^3 -
 96 a c d n^3 + 96 b c d n^3 + 48 c^2 d n^3 - 144 d^2 n^3 +
 48 a d^2 n^3 - 48 b d^2 n^3 - 48 c d^2 n^3 + 16 d^3 n^3 - 60 n^4 +
 432 a n^4 - 144 a^2 n^4 - 432 b n^4 + 288 a b n^4 - 144 b^2 n^4 -
 432 c n^4 + 288 a c n^4 - 288 b c n^4 - 144 c^2 n^4 + 432 d n^4 -
 288 a d n^4 + 288 b d n^4 + 288 c d n^4 - 144 d^2 n^4 - 432 n^5 +
 432 a n^5 - 432 b n^5 - 432 c n^5 + 432 d n^5 - 432 n^6
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


def _mp(text: str) -> MultiPoly:
    return MultiPoly.from_string(text)


def quarter_dataset() -> tuple[MultiPoly, MultiPoly, tuple[MultiPoly, MultiPoly]]:
    """(p1, p2, cert) for the squared-base family, n-step 1."""
    n = MultiPoly.var("n")
    cert = (-(n * n) * _mp(QUARTER_CERT_CORE), MultiPoly.one())
    return _mp(QUARTER_P1), _mp(QUARTER_P2), cert


def negq_dataset() -> tuple[MultiPoly, MultiPoly, tuple[MultiPoly, MultiPoly]]:
    """(p1, p2, cert) for the alternating family, n-step 2."""
    A = MultiPoly.from_string
    pre = A("a + n") * A("1 + a + n") * A("b + n") * A("1 + b + n")
    den = A("a + k + n") * A("b + k + n")
    cert = (pre * _mp(NEGQ_CERT_CORE), den)
    return _mp(NEGQ_P1), _mp(NEGQ_P2), cert


def neg27_dataset() -> tuple[MultiPoly, MultiPoly, tuple[MultiPoly, MultiPoly]]:
    """(p1, p2, cert) for the doubled-base family, n-step 1."""
    A = MultiPoly.from_string
    pre = A("4n") * A("1 + 2n") * A("1 + 2n")
    den = A("b + k + 2n") * A("c + k + 2n")
    cert = (pre * _mp(NEG27_CERT_CORE), den)
    return _mp(NEG27_P1), _mp(NEG27_P2), cert
