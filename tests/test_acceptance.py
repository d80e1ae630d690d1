"""Acceptance gate for the engine, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Every tolerance and window below is part of the
acceptance contract: exact zero for symbolic verification, 10^-48
combined enclosure radius at 50 digits, exact reduced-ratio agreement
for re-derived recurrences, exact termwise proportionality on j = 0..100,
derivation refusal on the alternating control summands, a 5% band on the
measured decay slope over J in [20, 120], 10^-3 agreement against the
direct-summation oracle, and guaranteed failure under random single
coefficient corruptions.
"""

import dataclasses
import decimal
import math
import random
import re
import time
from fractions import Fraction

from hyperaccel.accelerator import accelerated_stream, stream_proportional
from hyperaccel.catalog import (catalog_entries, derivation_recurrence,
                                derivation_term, derive_entry, entry,
                                series_text, verify_entry, verify_series)
from hyperaccel.exact_arith import MultiPoly, UniPoly
from hyperaccel.hypergeom_terms import (FamilyId, family_instantiate, family_term,
                                        k_ratio_at, k_shift_ratio)
from hyperaccel.numerics import direct_sum
from hyperaccel.telescoper import (Recurrence, builtin_recurrence,
                                   builtin_residual, recurrence_residual,
                                   specialize, theorem_families,
                                   zeilberger_two_term)

from control_summands import alt_control_double_offset, alt_control_single_offset
from quotient_helpers import same_ratio

F = Fraction


def test_01_symbolic_verification_zero_residual():
    """The three stored recurrences hold identically, in under 30 s."""
    start = time.monotonic()
    families = theorem_families()
    assert set(families) == {FamilyId.QUARTER, FamilyId.NEG_QUARTER,
                             FamilyId.NEG_27}
    for family in families:
        assert builtin_residual(family).is_zero
    assert time.monotonic() - start < 30.0


def test_02_all_display_identities_certified_at_50_digits():
    """Every display entry checks against its constant at 50 digits."""
    start = time.monotonic()
    bound = F(1, 10 ** 48)
    display = [e for e in catalog_entries() if e.chu is not None]
    assert len(display) == 95
    for e in display:
        report = verify_entry(e.id, 50)
        assert report.passed, e.id
        combined = (report.lhs.radius.to_fraction()
                    + report.rhs.radius.to_fraction())
        assert combined <= bound, e.id
    assert time.monotonic() - start < 120.0


def test_03_rederived_recurrences_match_stored_specializations():
    """Per-instance derivation agrees with the stored recurrence on every
    displayed example tuple of the three fully general families."""
    sections = {"one-param": re.compile(r"^Q\d+$"),
                "two-step": re.compile(r"^NQ\d+$"),
                "third-order": re.compile(r"^N27-\d+$")}
    counts = dict.fromkeys(sections, 0)
    for e in catalog_entries():
        section = next((name for name, pat in sections.items()
                        if pat.match(e.id)), None)
        if section is None:
            continue
        d = e.derivation
        counts[section] += 1
        if section == "two-step":
            assert d.r == 2, e.id
        term = family_instantiate(d.family, d.params)
        derived = zeilberger_two_term(term, d.r)
        stored = specialize(builtin_recurrence(d.family),
                            dict(zip(d.family.param_names, d.params)))
        assert derived is not None, e.id
        assert same_ratio(derived, stored), e.id
    assert counts["one-param"] >= 17
    assert counts["two-step"] == 8
    assert counts["third-order"] == 12


# Every classical-target display is the series of one of these entries:
# the eight linear-summand targets via Q12-Q15, NQ5-NQ7, and S64-7, and
# the nine polynomial-summand targets via S64-3, Q18, NQ8, N27-10, Q16,
# F427-11, Q17, N27-11, and S64-8.
REPRESENTATIVES = (
    "Q1", "Q12", "Q13", "Q14", "Q15", "Q16", "Q17", "Q18",
    "NQ1", "NQ5", "NQ6", "NQ7", "NQ8",
    "N27-1", "N27-10", "N27-11",
    "F427-1", "F427-11",
    "S1627-1",
    "S64-3", "S64-7", "S64-8",
    "S2764-1",
    "FR-1", "FR-2",
)


def test_04_streams_termwise_proportional_to_displays():
    """Each representative derived stream matches its display termwise
    with one fixed rational constant over j = 0..100, the constant
    derive_entry reports."""
    window = 100
    assert len(REPRESENTATIVES) >= 15
    section = re.compile(r"^(S2764|S1627|S64|F427|N27|NQ|Q|FR)")
    prefixes = {section.match(rid).group(1) for rid in REPRESENTATIVES}
    assert prefixes == {"Q", "NQ", "N27", "F427", "S1627", "S64", "S2764",
                        "FR"}
    assert series_text(entry("F427-11").chu) == series_text(entry("PM6").chu)
    for rid in REPRESENTATIVES:
        report = derive_entry(rid)
        assert report.recurrence_found, rid
        assert report.rate == entry(rid).rate, rid
        assert report.proportional is not None, rid
        e = entry(rid)
        stream = accelerated_stream(derivation_term(e), derivation_recurrence(e),
                                    e.derivation.n0, check_vanishing=False)
        assert stream_proportional(stream.take(window + 1),
                                   e.chu.terms(window + 1),
                                   j_max=window) == report.proportional, rid


def test_05_alternating_controls_admit_no_recurrence():
    """Both shifted alternating controls return None at r=1, max_deg=8."""
    rng = random.Random(20260816)

    def offset():
        while True:
            q = F(rng.randint(1, 9), rng.choice([2, 3, 4, 5, 6, 7]))
            if q.denominator > 1:
                return q

    for _ in range(3):
        a = F(rng.randint(1, 9), rng.choice([1, 2, 3]))
        b = F(rng.randint(1, 9), rng.choice([1, 2, 3]))
        c, d = offset(), offset()
        single = alt_control_single_offset(a, b, c)
        double = alt_control_double_offset(a, b, c, d)
        assert zeilberger_two_term(single, 1, max_deg=8) is None
        assert zeilberger_two_term(double, 1, max_deg=8) is None


RATE_WITNESSES = {
    F(1, 4): "RT1", F(-1, 4): "RT5", F(-1, 27): "EQ19", F(4, 27): "F427-1",
    F(16, 27): "S1627-1", F(1, 64): "RAMANUJAN-3", F(27, 64): "S2764-3",
    F(-1, 64): "FR-1", F(27, 32): "FR-2",
}


def test_06_measured_decay_slope_matches_signed_rate():
    """Least-squares digits-per-term over J in [20, 120] sits within 5%
    of -log10|rate| for a display entry at each of the nine rates."""

    def log10_abs(q):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            return float(decimal.Decimal(abs(q.numerator)).log10()
                         - decimal.Decimal(q.denominator).log10())

    for rate, rid in RATE_WITNESSES.items():
        e = entry(rid)
        assert e.rate == rate
        js = range(20, 121)
        ys = [log10_abs(e.chu.term(j)) for j in js]
        j_mean = sum(js) / len(js)
        y_mean = sum(ys) / len(ys)
        slope = (sum((j - j_mean) * (y - y_mean) for j, y in zip(js, ys))
                 / sum((j - j_mean) ** 2 for j in js))
        ideal = -math.log10(abs(rate))
        assert abs(-slope - ideal) <= 0.05 * ideal, rid


ORACLE_INSTANCES = (
    ("terminating binomial", FamilyId.SIXTEEN_27_A,
     (F(-1), F(1, 2)), 1, F(3)),
    ("alternating", FamilyId.NEG_QUARTER,
     (F(2, 3), F(1), F(-1, 3)), 2, F(2, 3)),
    ("unit ratio limit", FamilyId.QUARTER,
     (F(1, 3), F(1, 3), F(1), F(1, 3), F(1, 3), F(2, 3)), 1, F(1)),
    ("all-half tuple", FamilyId.QUARTER,
     (F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(0), F(0)), 1, F(1)),
    ("reciprocal squares", FamilyId.NEG_27,
     (F(1), F(0), F(0), F(0)), 1, F(1)),
)


def test_07_accelerated_sums_agree_with_direct_oracle():
    """On five convergent instances the accelerated sum matches the
    unaccelerated oracle to 10^-3."""
    for label, family, params, r, n0 in ORACLE_INSTANCES:
        term = family_instantiate(family, params)
        oracle = direct_sum(*k_ratio_at(k_shift_ratio(term), n0), 4)
        rec = zeilberger_two_term(term, r)
        assert rec is not None, label
        stream = accelerated_stream(term, rec, n0)
        total = F(0)
        j = 0
        while True:
            t = stream.term(j)
            total += t
            if j >= 8 and abs(t) < F(1, 10 ** 9):
                break
            j += 1
        diff = abs(total - oracle.center.to_fraction())
        assert diff <= F(1, 1000), label


def test_08_random_coefficient_corruptions_are_caught():
    """Five seeded single-coefficient corruptions all fail their checks:
    a perturbed stored p2 leaves a nonzero residual, and a perturbed
    display summand misses its constant."""
    rng = random.Random(77)
    display = [e for e in catalog_entries() if e.chu is not None]
    base = builtin_recurrence(FamilyId.QUARTER)
    term = family_term(FamilyId.QUARTER)
    for trial in range(5):
        if trial % 2 == 0:
            mono, _ = rng.choice(base.p2.terms)
            delta = MultiPoly.from_dict({mono: F(rng.choice([1, -1, 2]))})
            bad = Recurrence(r=base.r, p1=base.p1, p2=base.p2 + delta,
                             cert=base.cert)
            assert not recurrence_residual(term, bad).is_zero
        else:
            e = rng.choice(display)
            i = rng.randrange(e.chu.num.degree + 1)
            coeffs = list(e.chu.num.coeffs)
            coeffs[i] += 1
            bad_chu = dataclasses.replace(e.chu,
                                          num=UniPoly.from_coeffs(coeffs))
            assert not verify_series(bad_chu, e.closed, 25).passed
