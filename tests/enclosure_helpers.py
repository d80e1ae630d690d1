"""Test-only views of an `Enclosure` as exact rational endpoints.

They read only the center and radius fields, so a checker of certified
enclosures can use them without sharing the package's integer endpoint
arithmetic.
"""

from fractions import Fraction


def lower_end(enc) -> Fraction:
    return enc.center.to_fraction() - enc.radius.to_fraction()


def upper_end(enc) -> Fraction:
    return enc.center.to_fraction() + enc.radius.to_fraction()


def contains_value(enc, x) -> bool:
    return lower_end(enc) <= Fraction(x) <= upper_end(enc)


def contains(outer, inner) -> bool:
    return (lower_end(outer) <= lower_end(inner)
            and upper_end(inner) <= upper_end(outer))
