"""Catalog integrity: transcription invariants, verification, derivation."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperaccel.accelerator import (ChuSeries, accelerated_stream, chu_normalize,
                                    stream_proportional)
from hyperaccel import catalog, hypergeom_terms
from hyperaccel.catalog import (CatalogEntry, catalog_entries, closed_text,
                                derive_entry, entry, export_lines,
                                parse_closed_text, parse_series_text,
                                series_text, verify_entry, verify_series)
from hyperaccel.exact_arith import UniPoly
from hyperaccel.numerics import ClosedForm, default_term_budget
from hyperaccel.telescoper import builtin_recurrence

from quotient_helpers import same_quotient

ENTRIES = catalog_entries()
BY_ID = {e.id: e for e in ENTRIES}

SECTION_PATTERNS = (
    (re.compile(r"Q\d+\Z"), 18),
    (re.compile(r"NQ\d+\Z"), 8),
    (re.compile(r"N27-\d+\Z"), 12),
    (re.compile(r"F427-\d+\Z"), 11),
    (re.compile(r"S1627-\d+\Z"), 4),
    (re.compile(r"S64-\d+\Z"), 8),
    (re.compile(r"S2764-\d+\Z"), 3),
    (re.compile(r"FR-\d+\Z"), 2),
)


def test_entry_totals():
    assert len(ENTRIES) == 123
    assert sum(1 for e in ENTRIES if e.chu is not None) == 95
    assert sum(1 for e in ENTRIES if e.derivation is not None) == 95
    assert sum(1 for e in ENTRIES
               if e.chu is None and e.derivation is not None) == 28
    assert sum(1 for e in ENTRIES
               if e.chu is not None and e.derivation is not None) == 67


def test_section_example_counts():
    for pattern, expected in SECTION_PATTERNS:
        assert sum(1 for e in ENTRIES if pattern.match(e.id)) == expected


def test_ids_unique():
    assert len(BY_ID) == len(ENTRIES)


def test_anchors_nonempty_unique():
    anchors = [e.anchor for e in ENTRIES]
    assert all(anchors)
    assert len(set(anchors)) == len(anchors)


def test_every_entry_has_series_or_derivation():
    for e in ENTRIES:
        assert e.chu is not None or e.derivation is not None


def test_rate_equals_series_z():
    for e in ENTRIES:
        if e.chu is not None:
            assert e.rate == e.chu.z, e.id


def test_display_entries_have_closed_forms():
    for e in ENTRIES:
        assert (e.chu is None) == (e.closed is None), e.id


def test_tentative_set():
    tentative = {e.id for e in ENTRIES if e.tentative}
    assert tentative == {"Q16", "N27-5", "N27-7", "S2764-1", "FR-2"}
    for rid in tentative:
        assert BY_ID[rid].note


def test_series_text_roundtrip():
    for e in ENTRIES:
        if e.chu is not None:
            assert parse_series_text(series_text(e.chu)) == e.chu, e.id


def test_closed_text_roundtrip():
    for e in ENTRIES:
        if e.closed is not None:
            assert parse_closed_text(closed_text(e.closed)) == e.closed, e.id


@given(coeff=st.fractions(min_value=-100, max_value=100).filter(bool),
       e_pi=st.integers(-3, 3), e_log2=st.integers(-3, 3),
       e_2=st.fractions(min_value=-3, max_value=3),
       e_3=st.fractions(min_value=-3, max_value=3))
@settings(max_examples=60, deadline=None)
def test_closed_text_roundtrip_property(coeff, e_pi, e_log2, e_2, e_3):
    cf = ClosedForm.make(coeff, Fraction(e_pi), Fraction(e_log2), e_2, e_3)
    assert parse_closed_text(closed_text(cf)) == cf


def test_export_lines_parse_back():
    lines = export_lines()
    assert len(lines) == len(ENTRIES)
    for line, e in zip(lines, ENTRIES):
        rid, series, closed = line.split("\t")
        assert rid == e.id
        if e.chu is None:
            assert series == "-"
        else:
            assert parse_series_text(series) == e.chu
        if e.closed is None:
            assert closed == "-"
        else:
            assert parse_closed_text(closed) == e.closed


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        entry("NO-SUCH-ID")


def test_verify_requires_display():
    with pytest.raises(ValueError):
        verify_entry("Q-R1", 20)


def test_derive_requires_derivation():
    with pytest.raises(ValueError):
        derive_entry("RAMANUJAN-1")


def test_verify_rt1_50_digits():
    rep = verify_entry("RT1", 50)
    assert rep.passed
    assert rep.lhs.decimal(20).startswith("2.2672492052927723132")


def test_verify_guillera_quarter_50_digits():
    rep = verify_entry("GUILLERA-QUARTER", 50)
    assert rep.passed
    assert rep.lhs.decimal(20).startswith("2.4674011002723396547")


def test_verify_corrupted_display_fails():
    e = entry("RT1")
    bad = ChuSeries(z=e.chu.z, upper=e.chu.upper, lower=e.chu.lower,
                    num=UniPoly.from_coeffs([3, 3]), den=e.chu.den)
    rep = verify_series(bad, e.closed, 50)
    assert not rep.passed


@pytest.mark.parametrize("rid", [
    "Q4", "RT5", "CHU-1", "CHU-3", "CHU-5", "RT8", "PM6",
    "S1627-4", "S2764-3", "FR-1", "FR-2",
])
def test_verify_one_display_per_rate(rid):
    rep = verify_entry(rid, 20)
    assert rep.passed, rid


def test_derive_q1():
    rep = derive_entry("Q1")
    assert rep.recurrence_found
    assert rep.rate == Fraction(1, 4)
    assert rep.proportional is not None


def test_derive_guillera_quarter_from_recovered_tuple():
    rep = derive_entry("GUILLERA-QUARTER")
    assert rep.recurrence_found
    assert rep.rate == Fraction(1, 4)
    assert rep.proportional == Fraction(1, 2)


def test_derive_f427_11_matches_its_display():
    rep = derive_entry("F427-11")
    assert rep.recurrence_found
    assert rep.rate == Fraction(4, 27)
    assert rep.proportional == Fraction(2, 45)


def test_eq19_eq20_not_termwise_proportional():
    a = entry("EQ19").chu
    b = entry("EQ20").chu
    lhs = [a.term(j) for j in range(101)]
    rhs = [b.term(j) for j in range(101)]
    assert stream_proportional(lhs, rhs, j_max=100) is None


# the termwise reference window, j = 0..WINDOW, for derive_entry's
# normal-form decision
WINDOW = 100


def _window_constant(e, term, rec, display):
    stream = accelerated_stream(term, rec, e.derivation.n0,
                                check_vanishing=False)
    return stream_proportional(stream.take(WINDOW + 1),
                               display.terms(WINDOW + 1), j_max=WINDOW)


def test_all_derivations(derivation_recipes):
    """Every recipe rebuilds: recurrence found, rate matches, and any
    stored display is termwise proportional to the derived stream, with
    the constant the reference window gives."""
    for e, term, rec in derivation_recipes:
        rep = derive_entry(e.id)
        assert rep.recurrence_found, e.id
        assert rep.rate == e.rate, e.id
        if e.chu is not None:
            assert rep.proportional is not None, e.id
            assert rep.proportional == _window_constant(e, term, rec, e.chu), e.id


def test_derive_entry_builds_each_shift_ratio_once(monkeypatch):
    """A derive_entry builds the summand's n-ratio factors once, and its
    k-ratio factors once where the solver runs; the solver, its exact
    re-check and the stream share them."""
    built = []
    factor_lists = hypergeom_terms._factor_lists
    monkeypatch.setattr(hypergeom_terms, "_factor_lists",
                        lambda term, index, step: built.append((index, step))
                        or factor_lists(term, index, step))
    solved = 0
    for e in ENTRIES:
        if e.derivation is None:
            continue
        built.clear()
        derive_entry(e.id)
        solver = builtin_recurrence(e.derivation.family) is None
        assert sorted(built) == [("k", 1)] * solver + [("n", e.derivation.r)], e.id
        solved += solver
    assert solved == 39


@pytest.mark.parametrize("index, delta", [
    (1, 1),    # num 17 + 43 j + 27 j^2: normalizes, to another form
    (0, -17),  # num(0) = 0: the first term vanishes, no bracket form
])
def test_derive_reports_none_for_inequivalent_display(
        monkeypatch, derivation_recipes, index, delta):
    e, term, rec = next(r for r in derivation_recipes if r[0].id == "Q1")
    coeffs = list(e.chu.num.coeffs)
    coeffs[index] += delta
    bad = dataclasses.replace(e, chu=dataclasses.replace(
        e.chu, num=UniPoly.from_coeffs(coeffs)))
    monkeypatch.setattr(catalog, "entry",
                        lambda key: bad if key == "Q1" else entry(key))
    rep = derive_entry("Q1")
    assert rep.recurrence_found and rep.rate == e.rate
    assert rep.proportional is None
    assert _window_constant(e, term, rec, bad.chu) is None


def _normal_form_constant(e, term, rec, display):
    """The constant from two bracket normal forms, the stream's and the
    display's: their scales' quotient when the forms are equal."""
    stream = accelerated_stream(term, rec, e.derivation.n0,
                                check_vanishing=False)
    series, scale = chu_normalize(stream.ratio, stream.term(0))
    try:
        form, d_scale = chu_normalize(display.ratio_parts(), display.term(0))
    except ValueError:
        return None
    return scale / d_scale if form == series else None


def test_quotient_decision_matches_two_normal_forms(monkeypatch, derivation_recipes):
    """derive_entry's quotient test gives the constant two normal forms
    give, on every stored display, on each with num tripled (same
    quotient, a third of the constant) and on each with one coefficient
    of num changed by -1, +1 or so that num(0) = 0 (None)."""
    checked = found = 0
    for e, term, rec in derivation_recipes:
        if e.chu is None:
            continue
        coeffs = list(e.chu.num.coeffs)
        variants = [coeffs, [3 * c for c in coeffs]]
        for index, delta in ((0, -1), (len(coeffs) - 1, 1), (0, -coeffs[0])):
            changed = list(coeffs)
            changed[index] += delta
            variants.append(changed)
        for num in variants:
            display = dataclasses.replace(e.chu, num=UniPoly.from_coeffs(num))
            shown = dataclasses.replace(e, chu=display)
            monkeypatch.setattr(catalog, "entry",
                                lambda key, shown=shown: shown)
            want = _normal_form_constant(e, term, rec, display)
            assert derive_entry(e.id).proportional == want, e.id
            checked += 1
            found += want is not None
    assert (checked, found) == (5 * 67, 2 * 67)


def test_stream_ratio_equals_display_ratio_for_all_j(derivation_recipes):
    """All-j form of the termwise check: the derived stream and its display
    have the same term quotient as rational functions of j."""
    checked = 0
    for e, term, rec in derivation_recipes:
        if e.chu is None:
            continue
        stream = accelerated_stream(term, rec, e.derivation.n0,
                                    check_vanishing=False)
        assert same_quotient(stream.ratio, e.chu.ratio_parts()), e.id
        checked += 1
    assert checked == 67


def test_every_recipe_stream_has_a_bracket_form(derivation_recipes):
    """derive_entry takes its constant from the first terms and builds no
    bracket normal form; every recipe stream, the 28 without a display
    too, still has one, and scale * series reproduces its first 41
    terms."""
    undisplayed = 0
    for e, term, rec in derivation_recipes:
        stream = accelerated_stream(term, rec, e.derivation.n0,
                                    check_vanishing=False)
        series, scale = chu_normalize(stream.ratio, stream.term(0))
        assert [scale * t for t in series.terms(41)] == stream.take(41), e.id
        undisplayed += e.chu is None
    assert (len(derivation_recipes), undisplayed) == (95, 28)


def test_term_budget_covers_slow_rates():
    assert default_term_budget(Fraction(27, 32), 50) >= 700
    assert default_term_budget(Fraction(1, 4), 50) >= 83
    assert default_term_budget(Fraction(0), 50) == 170


def test_presentation_order_groups_sections():
    ids = [e.id for e in ENTRIES]
    for pattern, count in SECTION_PATTERNS:
        positions = [i for i, rid in enumerate(ids) if pattern.match(rid)]
        assert len(positions) == count
        # displayed examples of one section are stored contiguously with
        # their section's recovered tuples
        span = positions[-1] - positions[0]
        assert span <= count + 16
