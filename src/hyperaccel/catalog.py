"""Catalog of accelerated-series identities and their verification drivers.

Each entry is one embedded row holding up to three faces of one
identity: a display series in bracket form, its closed-form constant,
and a derivation recipe (family, parameter tuple, start point, n-step).
Series rows use the text format

    z=1/4 upper=[1/3,1,5/3] lower=[7/6,3/2,11/6] num=[2,3] den=[1]

with num/den listing ascending polynomial coefficients in the summation
index, and closed-form rows read coeff*pi^a*log2^b*2^c*3^d with unit
factors omitted.  Both texts are exactly what export_text writes, so
the embedded catalog diffs cleanly against an exported file.

verify_series sums a display with certified enclosures, at the term cap
numerics picks unless one is passed, and checks overlap against its
constant's enclosure; derive_entry rebuilds the recurrence from the
recipe (the stored general-parameter recurrence where one exists,
creative telescoping otherwise), unrolls the accelerated stream, and
reports the exact termwise proportionality constant against the display
from their term quotients and first terms.  rate stores the signed
term ratio limit; it equals chu.z whenever a display is present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# chu_normalize is not called here; it stays importable as
# catalog.chu_normalize, which bench/selftest.py reads after the tracer
# uninstalls its wrappers
from .accelerator import (ChuSeries, accelerated_stream, chu_normalize,
                          convergence_rate, same_quotient)
from .exact_arith import UniPoly
from .hypergeom_terms import (FamilyId, HypTerm, _binom_n_k, _poch,
                              family_instantiate)
from .numerics import (ClosedForm, Enclosure, chu_eval_terms, closedform_eval,
                       radii_within)
from .telescoper import builtin_recurrence, specialize, zeilberger_two_term

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# Entry model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Derivation:
    """Recipe rebuilding a display: summand family, values, start, step."""

    family: FamilyId
    params: tuple[Fraction, ...]
    n0: Fraction
    r: int


@dataclass(frozen=True)
class CatalogEntry:
    """One identity: display series and/or derivation recipe, plus rate.

    tentative marks entries whose stored binding resolves a defect in
    the source display (arity mismatch or truncated parameter list);
    note documents the resolution.
    """

    id: str
    chu: Optional[ChuSeries]
    closed: Optional[ClosedForm]
    derivation: Optional[Derivation]
    rate: Fraction
    anchor: str
    tentative: bool = False
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    lhs: Enclosure
    rhs: Enclosure
    terms_used: int


@dataclass(frozen=True)
class DeriveReport:
    recurrence_found: bool
    rate: Optional[Fraction]
    # c with stream term = c * display term for every j, else None
    proportional: Optional[Fraction]


# ---------------------------------------------------------------------------
# Row text formats
# ---------------------------------------------------------------------------


_SERIES_RE = re.compile(
    r"z=(?P<z>\S+) upper=\[(?P<upper>[^\]]*)\] lower=\[(?P<lower>[^\]]*)\]"
    r" num=\[(?P<num>[^\]]*)\] den=\[(?P<den>[^\]]*)\]\Z"
)

_CLOSED_NAMES = ("pi", "log2", "2", "3")


def _fracs(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(Fraction(part) for part in text.split(","))


def _frac_list(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def series_text(s: ChuSeries) -> str:
    """Canonical one-line text for a bracket series."""
    return (
        f"z={s.z} upper={_frac_list(s.upper)} lower={_frac_list(s.lower)}"
        f" num={_frac_list(s.num.coeffs)}"
        f" den={_frac_list(s.den.coeffs)}"
    )


def parse_series_text(text: str) -> ChuSeries:
    """Inverse of series_text.  Raises ValueError on text that is not a
    bracket series: bad syntax, a zero denominator in a rational, or a
    zero num or den polynomial."""
    m = _SERIES_RE.match(text.strip())
    try:
        series = m and ChuSeries(
            z=Fraction(m.group("z")),
            upper=_fracs(m.group("upper")),
            lower=_fracs(m.group("lower")),
            num=UniPoly.from_coeffs(_fracs(m.group("num"))),
            den=UniPoly.from_coeffs(_fracs(m.group("den"))),
        )
    except (ValueError, ZeroDivisionError):
        series = None
    if series is None or series.num.is_zero or series.den.is_zero:
        raise ValueError(f"malformed series text: {text!r}")
    return series


def closed_text(cf: ClosedForm) -> str:
    """Canonical one-line text for a closed form; unit factors omitted."""
    parts = [str(cf.coeff)]
    for name, e in zip(_CLOSED_NAMES,
                       (cf.exp_pi, cf.exp_log2, cf.exp_2, cf.exp_3)):
        if e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def parse_closed_text(text: str) -> ClosedForm:
    parts = text.strip().split("*")
    coeff = Fraction(parts[0])
    exps = dict.fromkeys(_CLOSED_NAMES, _F0)
    for part in parts[1:]:
        name, _, e = part.partition("^")
        if name not in exps:
            raise ValueError(f"unknown closed-form factor: {part!r}")
        exps[name] += Fraction(e) if e else _F1
    return ClosedForm.make(coeff, exps["pi"], exps["log2"], exps["2"], exps["3"])


# ---------------------------------------------------------------------------
# Embedded rows
# ---------------------------------------------------------------------------


def _row(rid: str, *, series: Optional[str] = None,
         closed: Optional[str] = None, derive=None, rate: str,
         anchor: str, tentative: bool = False, note: str = "") -> CatalogEntry:
    derivation = None
    if derive is not None:
        family, params, n0, r = derive
        derivation = Derivation(FamilyId(family), _fracs(params),
                                Fraction(n0), r)
    return CatalogEntry(
        id=rid,
        chu=parse_series_text(series) if series else None,
        closed=parse_closed_text(closed) if closed else None,
        derivation=derivation,
        rate=Fraction(rate),
        anchor=anchor,
        tentative=tentative,
        note=note,
    )


# Displays that several entries share (a derivation example can reproduce a
# series displayed elsewhere); one text constant per shared display.
_RT1_S = "z=1/4 upper=[1/3,1,5/3] lower=[7/6,3/2,11/6] num=[2,3] den=[1]"
_RT1_C = "5/4*pi^1*3^-1/2"
_RT2_S = "z=1/4 upper=[3/4,3/2,3/2] lower=[1,13/8,17/8] num=[1,1] den=[1]"
_RT2_C = "15/16*2^1/2"
_RT3_S = "z=1/4 upper=[1/2,5/6,7/6] lower=[1,4/3,4/3] num=[7,18] den=[1]"
_RT3_C = "16/3*3^1/2"
_RT4_S = "z=1/4 upper=[1/2,4/3,5/3] lower=[1,19/12,25/12] num=[8,9] den=[1]"
_RT4_C = "91/16*3^1/2"
_RT5_S = "z=-1/4 upper=[1/8,5/8,3/4] lower=[7/8,1,11/8] num=[9,40] den=[1]"
_RT5_C = "6*2^1/2"
_RT6_S = "z=-1/4 upper=[-1/8,1/4,3/8] lower=[1,9/8,13/8] num=[7,40] den=[1]"
_RT6_C = "5*2^1/2"
_RT7_S = "z=-1/4 upper=[1/12,7/12,2/3] lower=[11/12,1,17/12] num=[13,60] den=[1]"
_RT7_C = "10*2^1/3"
_RT8_S = "z=1/64 upper=[-1/6,7/6,3/2] lower=[1,4/3,5/3] num=[11,14] den=[1]"
_RT8_C = "512/81*3^1/2"
_PM1_S = "z=1/64 upper=[1,1] lower=[5/4,7/4] num=[118,297,189] den=[2,9,9]"
_PM1_C = "6*pi^2"
_PM2_S = "z=1/4 upper=[1/3] lower=[7/6] num=[7,9] den=[2,5,3]"
_PM2_C = "2*pi^1*3^-1/2"
_PM3_S = "z=-1/4 upper=[4/3] lower=[7/6] num=[16,45,30] den=[2,9,13,6]"
_PM3_C = "4*pi^1*3^-1/2"
_PM4_S = ("z=-1/27 upper=[1/8,1/4,5/8,1] lower=[13/12,11/8,17/12,15/8]"
          " num=[44,305,688,448] den=[1]")
_PM4_C = "315/16*pi^1*2^-1/2"
_PM5_S = "z=1/4 upper=[1/4,1/2] lower=[9/8,13/8] num=[23,68,48] den=[3,7,4]"
_PM5_C = "5/2*pi^1"
_PM6_S = ("z=4/27 upper=[1,1/2,1/2,1/2] lower=[7/6,5/4,7/4,11/6]"
          " num=[32,193,338,184] den=[1]")
_PM6_C = "45/4*pi^1"
_PM7_S = "z=1/4 upper=[5/6,5/3] lower=[17/12,23/12] num=[71,174,108] den=[1,7,6]"
_PM7_C = "165/4*pi^1*3^-1/2"
_PM8_S = "z=-1/27 upper=[1/2,2/3,1] lower=[4/3,4/3,11/6] num=[7,26,21] den=[1]"
_PM8_C = "15/4*pi^1*3^-1/2"
_PM9_S = ("z=1/64 upper=[1/2,1,1,1] lower=[5/4,5/4,7/4,7/4]"
          " num=[22,61,42] den=[1]")
_PM9_C = "9/4*pi^2"
_EQ19_S = ("z=-1/27 upper=[-1/4,5/4,5/4] lower=[1,13/12,17/12]"
           " num=[5,28] den=[1]")
_EQ19_C = "15/4*2^1/2"
_EQ20_S = ("z=-1/27 upper=[1/4,1/4,3/4] lower=[1,13/12,17/12]"
           " num=[11,124,224] den=[1]")
_EQ20_C = "15/2*2^1/2"
_RAM1_S = "z=1/4 upper=[1/2,1/2,1/2] lower=[1,1,1] num=[1,6] den=[1]"
_RAM1_C = "4*pi^-1"
_CHU2_S = "z=2/27 upper=[1,1,1] lower=[3/2,4/3,5/3] num=[7,10] den=[1]"
_CHU2_C = "3/4*pi^2"


_ENTRIES: tuple[CatalogEntry, ...] = (
    # -- linear-summand displays with radical or reciprocal-pi constants ----
    _row("RAMANUJAN-1", series=_RAM1_S, closed=_RAM1_C, rate="1/4",
         anchor="rate 1/4 display for 4/pi with summand 6k+1",
         note="the recovered-tuple list reaches this constant through"
              " the tuple (1/4,1/4,0,1,1/4,1/4) at n=1, whose stream sums"
              " to exactly 4/pi in a rearranged bracket form; no recovered"
              " stream is termwise proportional to this display"),
    _row("RAMANUJAN-2",
         series="z=-1/4 upper=[1/4,1/2,3/4] lower=[1,1,1] num=[3,20] den=[1]",
         closed="8*pi^-1", rate="-1/4",
         anchor="rate -1/4 display for 8/pi with summand 20k+3"),
    _row("RAMANUJAN-3",
         series="z=1/64 upper=[1/2,1/2,1/2] lower=[1,1,1] num=[5,42] den=[1]",
         closed="16*pi^-1", rate="1/64",
         anchor="rate 1/64 display for 16/pi with summand 42k+5"),
    _row("RT1", series=_RT1_S, closed=_RT1_C, rate="1/4",
         anchor="rate 1/4 display for 5*pi/(4*sqrt(3)) with summand 3k+2"),
    _row("RT2", series=_RT2_S, closed=_RT2_C, rate="1/4",
         anchor="rate 1/4 display for 15*sqrt(2)/16 with summand k+1"),
    _row("RT3", series=_RT3_S, closed=_RT3_C, rate="1/4",
         anchor="rate 1/4 display for 16*sqrt(3)/3 with summand 18k+7"),
    _row("RT4", series=_RT4_S, closed=_RT4_C, rate="1/4",
         anchor="rate 1/4 display for 91*sqrt(3)/16 with summand 9k+8"),
    _row("RT5", series=_RT5_S, closed=_RT5_C, rate="-1/4",
         anchor="rate -1/4 display for 6*sqrt(2) with summand 40k+9"),
    _row("RT6", series=_RT6_S, closed=_RT6_C, rate="-1/4",
         anchor="rate -1/4 display for 5*sqrt(2) with summand 40k+7"),
    _row("RT7", series=_RT7_S, closed=_RT7_C, rate="-1/4",
         anchor="rate -1/4 display for 10*2^(1/3) with summand 60k+13"),
    _row("RT8", series=_RT8_S, closed=_RT8_C, rate="1/64",
         anchor="rate 1/64 display for 512*sqrt(3)/81 with summand 14k+11"),
    _row("CHU-1",
         series="z=2/27 upper=[1/2,1/2,1/2] lower=[5/6,1,7/6] num=[1,5] den=[1]",
         closed="3/4*2^1/2", rate="2/27",
         anchor="rate 2/27 display for 3*sqrt(2)/4 with summand 5k+1"),
    _row("CHU-2", series=_CHU2_S, closed=_CHU2_C, rate="2/27",
         anchor="rate 2/27 display for 3*pi^2/4 with summand 10k+7"),
    _row("CHU-3",
         series="z=-1/27 upper=[1/3,2/3,1/6] lower=[1,1,1] num=[2,21] den=[1]",
         closed="9*pi^-1*2^-4/3*3^1/2", rate="-1/27",
         anchor="rate -1/27 display for 9*sqrt(3)/(2^(4/3)*pi) with"
                " summand 21n+2"),
    _row("CHU-4",
         series="z=-1/27 upper=[1/3,2/3,5/6] lower=[1,1,1] num=[5,42] den=[1]",
         closed="27*pi^-1*2^-5/3*3^1/2", rate="-1/27",
         anchor="rate -1/27 display for 27*sqrt(3)/(2^(5/3)*pi) with"
                " summand 42n+5"),
    _row("CHU-5",
         series="z=1/9 upper=[1,3/4,5/4] lower=[3/2,3/2,3/2] num=[5,8] den=[1]",
         closed="1*pi^1*3^1/2", rate="1/9",
         anchor="rate 1/9 display for pi*sqrt(3) with summand 8n+5"),
    _row("CHU-6", series=_CHU2_S, closed=_CHU2_C, rate="2/27",
         anchor="restated rate 2/27 display for 3*pi^2/4 with summand 10n+7"),
    _row("GUILLERA-QUARTER",
         series="z=1/4 upper=[1,1,1] lower=[3/2,3/2,3/2] num=[2,3] den=[1]",
         closed="1/4*pi^2",
         derive=("quarter", "1/2,1/2,1/2,1/2,0,0", "1", 1), rate="1/4",
         anchor="rate 1/4 display for pi^2/4 with summand 3n+2 over a"
                " triple-one upper row",
         note="the all-half recovered tuple at n=1 yields this display"
              " termwise with proportionality constant 1/2"),
    _row("EQ19", series=_EQ19_S, closed=_EQ19_C, rate="-1/27",
         anchor="rate -1/27 display for 15*sqrt(2)/4 with summand 28k+5"),
    _row("EQ20", series=_EQ20_S, closed=_EQ20_C, rate="-1/27",
         anchor="rate -1/27 display for 15*sqrt(2)/2 with summand"
                " 224k^2+124k+11"),
    # -- motivating pi displays with polynomial or rational summands -------
    _row("PM1", series=_PM1_S, closed=_PM1_C, rate="1/64",
         anchor="rate 1/64 display for 6*pi^2 with summand"
                " 189k^2+297k+118 over (3k+1)(3k+2)"),
    _row("PM2", series=_PM2_S, closed=_PM2_C, rate="1/4",
         anchor="rate 1/4 display for 2*pi/sqrt(3) with summand 9k+7"
                " over (k+1)(3k+2)"),
    _row("PM3", series=_PM3_S, closed=_PM3_C, rate="-1/4",
         anchor="rate -1/4 display for 4*pi/sqrt(3) with summand"
                " 30k^2+45k+16 over (k+1)(2k+1)(3k+2)"),
    _row("PM4", series=_PM4_S, closed=_PM4_C, rate="-1/27",
         anchor="rate -1/27 display for 315*pi/(16*sqrt(2)) with summand"
                " 448k^3+688k^2+305k+44",
         note="display carries four upper and four lower parameters"
              " against a cubic summand; transcribed verbatim and"
              " adjudicated numerically"),
    _row("PM5", series=_PM5_S, closed=_PM5_C, rate="1/4",
         anchor="rate 1/4 display for 5*pi/2 with summand 48k^2+68k+23"
                " over (k+1)(4k+3)"),
    _row("PM6", series=_PM6_S, closed=_PM6_C, rate="4/27",
         anchor="rate 4/27 display for 45*pi/4 with summand"
                " 184k^3+338k^2+193k+32"),
    _row("PM7", series=_PM7_S, closed=_PM7_C, rate="1/4",
         anchor="rate 1/4 display for 165*pi/(4*sqrt(3)) with summand"
                " 108k^2+174k+71 over (k+1)(6k+1)"),
    _row("PM8", series=_PM8_S, closed=_PM8_C, rate="-1/27",
         anchor="rate -1/27 display for 15*pi/(4*sqrt(3)) with summand"
                " 21k^2+26k+7"),
    _row("PM9", series=_PM9_S, closed=_PM9_C, rate="1/64",
         anchor="rate 1/64 display for 9*pi^2/4 with summand 42k^2+61k+22"),
    # -- rate 1/4 seven-parameter examples ----------------------------------
    _row("Q1",
         series="z=1/4 upper=[2/3] lower=[11/6] num=[17,42,27] den=[1,4,3]",
         closed="10*pi^1*3^-1/2",
         derive=("quarter", "1/3,1/3,1,1/3,1/3,2/3", "1", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/3,1/3,1,1/3,1/3,2/3) at n=1 giving"
                " 10*pi/sqrt(3)"),
    _row("Q2",
         series="z=1/4 upper=[1/6,1/6,1] lower=[13/12,19/12,11/6]"
                " num=[6,19,18] den=[1]",
         closed="35/18*pi^1",
         derive=("quarter", "1/6,1/6,1/6,1,2/3,2/3", "5/6", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,1/6,1/6,1,2/3,2/3) at n=5/6 giving"
                " 35*pi/18"),
    _row("Q3",
         series="z=1/4 upper=[3/4,3/2] lower=[11/8,15/8] num=[31,76,48]"
                " den=[1,5,4]",
         closed="21/2*pi^1",
         derive=("quarter", "1/2,1/4,3/4,3/2,3/4,0", "1/2", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/2,1/4,3/4,3/2,3/4,0) at n=1/2 giving"
                " 21*pi/2"),
    _row("Q4",
         series="z=1/4 upper=[1/2,1/2,3/4] lower=[1,9/8,13/8]"
                " num=[1,9,12] den=[1]",
         closed="5/4*2^1/2",
         derive=("quarter", "1/4,1/4,1/4,0,0,0", "3/4", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/4,1/4,1/4,0,0,0) at n=3/4 giving"
                " 5*sqrt(2)/4"),
    _row("Q5",
         series="z=1/4 upper=[1/2,3/4,5/4] lower=[9/8,15/8,2]"
                " num=[17,40,24] den=[1]",
         closed="14*2^1/2",
         derive=("quarter", "3/8,5/8,1/8,7/8,0,0", "1", 1), rate="1/4",
         anchor="rate 1/4 tuple (3/8,5/8,1/8,7/8,0,0) at n=1 giving"
                " 14*sqrt(2)"),
    _row("Q6",
         series="z=1/4 upper=[7/12,5/6,11/12,7/6] lower=[1,5/4,11/8,15/8]"
                " num=[35,135,108] den=[1]",
         closed="567/16*2^1/2",
         derive=("quarter", "1/12,5/12,1/4,0,0,0", "1", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/12,5/12,1/4,0,0,0) at n=1 giving"
                " 567*sqrt(2)/16"),
    _row("Q7",
         series="z=1/4 upper=[1/4,5/12,3/4,11/12] lower=[5/6,1,13/12,19/12]"
                " num=[9,104,144] den=[1]",
         closed="28/3*2^1/2",
         derive=("quarter", "1/12,7/12,1/6,0,0,0", "5/6", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/12,7/12,1/6,0,0,0) at n=5/6 giving"
                " 28*sqrt(2)/3"),
    _row("Q8",
         series="z=1/4 upper=[1/6,2/3,5/6,4/3] lower=[1,5/4,3/2,7/4]"
                " num=[16,63,54] den=[1]",
         closed="81/8*3^1/2",
         derive=("quarter", "1/6,5/6,1/2,0,0,0", "1", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,5/6,1/2,0,0,0) at n=1 giving"
                " 81*sqrt(3)/8"),
    _row("Q9",
         series="z=1/4 upper=[1/2,1/2,5/6,5/6] lower=[2/3,1,7/6,5/3]"
                " num=[3,28,36] den=[1]",
         closed="32/9*3^1/2",
         derive=("quarter", "1/6,1/6,1/3,0,0,0", "2/3", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,1/6,1/3,0,0,0) at n=2/3 giving"
                " 32*sqrt(3)/9"),
    _row("Q10",
         series="z=1/4 upper=[1/3,1/2,2/3] lower=[1,13/12,19/12]"
                " num=[4,39,54] den=[1]",
         closed="7/2*3^1/2",
         derive=("quarter", "1/6,1/2,2/3,5/6,0,0", "1/6", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,1/2,2/3,5/6,0,0) at n=1/6 giving"
                " 7*sqrt(3)/2"),
    _row("Q11",
         series="z=1/4 upper=[1/3,5/6,5/3,13/6] lower=[1,7/4,9/4,7/3]"
                " num=[65,114,54] den=[1]",
         closed="405/7*2^1/3",
         derive=("quarter", "1/6,2/3,-2/3,2/3,0,0", "5/3", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,2/3,-2/3,2/3,0,0) at n=5/3 giving"
                " 405*2^(1/3)/7"),
    _row("Q12", series=_RT1_S, closed=_RT1_C,
         derive=("quarter", "1/6,5/6,1/6,5/6,0,0", "1", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,5/6,1/6,5/6,0,0) at n=1 reproducing"
                " the 3k+2 display for 5*pi/(4*sqrt(3))"),
    _row("Q13", series=_RT2_S, closed=_RT2_C,
         derive=("quarter", "1/4,1/4,1/6,11/12,0,0", "5/6", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/4,1/4,1/6,11/12,0,0) at n=5/6"
                " reproducing the k+1 display for 15*sqrt(2)/16"),
    _row("Q14", series=_RT3_S, closed=_RT3_C,
         derive=("quarter", "1/6,1/6,1/3,2/3,1/3,0", "2/3", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,1/6,1/3,2/3,1/3,0) at n=2/3"
                " reproducing the 18k+7 display for 16*sqrt(3)/3"),
    _row("Q15", series=_RT4_S, closed=_RT4_C,
         derive=("quarter", "1/6,1/2,-5/6,0,0,0", "11/6", 1), rate="1/4",
         anchor="rate 1/4 tuple (1/6,1/2,-5/6,0,0,0) at n=11/6"
                " reproducing the 9k+8 display for 91*sqrt(3)/16"),
    _row("Q16", series=_PM5_S, closed=_PM5_C,
         derive=("quarter", "3/2,1,7/4,3/2,0,0", "1/4", 1), rate="1/4",
         anchor="rate 1/4 tuple (3/2,1,7/4,3/2,0,0) at n=1/4 reproducing"
                " the rational-summand display for 5*pi/2",
         tentative=True,
         note="printed tuple has d=0, whose stream sums to no rational"
              " multiple of pi; d=3/2 is the unique single-coordinate"
              " correction whose stream is termwise proportional to the"
              " display, with constant 3/5"),
    _row("Q17", series=_PM7_S, closed=_PM7_C,
         derive=("quarter", "1,1/6,1/2,4/3,1/6,0", "2/3", 1), rate="1/4",
         anchor="rate 1/4 tuple (1,1/6,1/2,4/3,1/6,0) at n=2/3 reproducing"
                " the rational-summand display for 165*pi/(4*sqrt(3))"),
    _row("Q18", series=_PM2_S, closed=_PM2_C,
         derive=("quarter", "1,2/3,1/3,2/3,2/3,0", "4/3", 1), rate="1/4",
         anchor="rate 1/4 tuple (1,2/3,1/3,2/3,2/3,0) at n=4/3 reproducing"
                " the 9k+7 display for 2*pi/sqrt(3)"),
    # recovered rate 1/4 tuples without a local display
    _row("Q-R1", derive=("quarter", "1/3,1/3,1/3,0,0,0", "1", 1), rate="1/4",
         anchor="recovered rate 1/4 tuple (1/3,1/3,1/3,0,0,0) at n=1"),
    _row("Q-R2", derive=("quarter", "2/3,2/3,2/3,0,0,0", "1", 1), rate="1/4",
         anchor="recovered rate 1/4 tuple (2/3,2/3,2/3,0,0,0) at n=1"),
    _row("Q-R4", derive=("quarter", "1/2,1,1/2,1/2,0,0", "1", 1), rate="1/4",
         anchor="recovered rate 1/4 tuple (1/2,1,1/2,1/2,0,0) at n=1"),
    _row("Q-R5", derive=("quarter", "1/4,1/4,0,1,1/4,1/4", "1", 1),
         rate="1/4",
         anchor="recovered rate 1/4 tuple (1/4,1/4,0,1,1/4,1/4) at n=1",
         note="stream sums to the reciprocal-pi constant of the classical"
              " rate 1/4 display, in a rearranged bracket form"),
    _row("Q-S1", derive=("quarter", "3/4,3/4,3/4,0,0,0", "1", 1), rate="1/4",
         anchor="recovered rate 1/4 tuple (3/4,3/4,3/4,0,0,0) at n=1"),
    _row("Q-S2", derive=("quarter", "1/4,1/4,-1/4,0,0,0", "5/4", 1),
         rate="1/4",
         anchor="recovered rate 1/4 tuple (1/4,1/4,-1/4,0,0,0) at n=5/4"),
    _row("Q-S3", derive=("quarter", "3/4,3/4,-3/4,0,0,0", "7/4", 1),
         rate="1/4",
         anchor="recovered rate 1/4 tuple (3/4,3/4,-3/4,0,0,0) at n=7/4"),
    _row("Q-S4", derive=("quarter", "2/3,2/3,-2/3,0,0,0", "5/3", 1),
         rate="1/4",
         anchor="recovered rate 1/4 tuple (2/3,2/3,-2/3,0,0,0) at n=5/3"),
    _row("Q-S5", derive=("quarter", "1/3,1/6,5/6,1/2,1/6,0", "1/2", 1),
         rate="1/4",
         anchor="recovered rate 1/4 tuple (1/3,1/6,5/6,1/2,1/6,0) at n=1/2"),
    # -- rate -1/4 three-parameter examples (n-step 2) ----------------------
    _row("NQ1",
         series="z=-1/4 upper=[1/2,1] lower=[4/3,5/3] num=[17,30] den=[1]",
         closed="64/3*log2^1",
         derive=("neg-quarter", "2/3,1,-1/3", "2/3", 2), rate="-1/4",
         anchor="rate -1/4 tuple (2/3,1,-1/3) at n=2/3 giving 64*log(2)/3"),
    _row("NQ2",
         series="z=-1/4 upper=[1/4,2/3,3/4,5/6] lower=[11/12,1,17/12,3/2]"
                " num=[10,51,60] den=[1]",
         closed="5*3^1/2",
         derive=("neg-quarter", "1/6,1/3,1/6", "2/3", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/6,1/3,1/6) at n=2/3 giving 5*sqrt(3)"),
    _row("NQ3",
         series="z=-1/4 upper=[5/6,4/3] lower=[1,5/3] num=[33,88,60] den=[1]",
         closed="32/3*2^1/3",
         derive=("neg-quarter", "1/6,1/2,-5/6", "5/6", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/6,1/2,-5/6) at n=5/6 giving"
                " 32*2^(1/3)/3"),
    _row("NQ4",
         series="z=-1/4 upper=[-1/12,1/6,5/12,2/3] lower=[3/4,1,5/4,3/2]"
                " num=[11,174,360] den=[1]",
         closed="9*2^1/3",
         derive=("neg-quarter", "1/6,2/3,1/2", "1/3", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/6,2/3,1/2) at n=1/3 giving 9*2^(1/3)"),
    _row("NQ5", series=_RT5_S, closed=_RT5_C,
         derive=("neg-quarter", "1/4,1/2,1/4", "1/2", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/4,1/2,1/4) at n=1/2 reproducing the"
                " 40k+9 display for 6*sqrt(2)"),
    _row("NQ6", series=_RT6_S, closed=_RT6_C,
         derive=("neg-quarter", "3/4,1/2,3/4", "1/2", 2), rate="-1/4",
         anchor="rate -1/4 tuple (3/4,1/2,3/4) at n=1/2 reproducing the"
                " 40k+7 display for 5*sqrt(2)"),
    _row("NQ7", series=_RT7_S, closed=_RT7_C,
         derive=("neg-quarter", "1/6,1/3,1/2", "2/3", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/6,1/3,1/2) at n=2/3 reproducing the"
                " 60k+13 display for 10*2^(1/3)"),
    _row("NQ8", series=_PM3_S, closed=_PM3_C,
         derive=("neg-quarter", "1/6,5/6,1/6", "7/6", 2), rate="-1/4",
         anchor="rate -1/4 tuple (1/6,5/6,1/6) at n=7/6 reproducing the"
                " rational-summand display for 4*pi/sqrt(3)"),
    # -- rate -1/27 four-parameter examples ---------------------------------
    _row("N27-1",
         series="z=-1/27 upper=[3/8,3/4,7/8,1] lower=[9/8,19/12,13/8,23/12]"
                " num=[164,697,976,448] den=[1]",
         closed="1155/16*pi^1*2^-1/2",
         derive=("neg-27", "1/4,1/2,3/4,0", "1/4", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/4,1/2,3/4,0) at n=1/4 giving"
                " 1155*pi/(16*sqrt(2))"),
    _row("N27-2",
         series="z=-1/27 upper=[1/2,1/2,1/2,1,1,1]"
                " lower=[5/4,5/4,4/3,5/3,7/4,7/4]"
                " num=[136,919,2232,2336,896] den=[1]",
         closed="27/2*pi^2",
         derive=("neg-27", "1/2,1/2,1/2,0", "1/2", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/2,1/2,1/2,0) at n=1/2 giving"
                " 27*pi^2/2"),
    _row("N27-3",
         series="z=-1/27 upper=[1/2,1] lower=[4/3,5/3] num=[17,28] den=[1]",
         closed="24*log2^1",
         derive=("neg-27", "1/2,0,-1/2,0", "1", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/2,0,-1/2,0) at n=1 giving 24*log(2)"),
    _row("N27-4",
         series="z=-1/27 upper=[1/2,1/2] lower=[4/3,5/3]"
                " num=[201,1268,2824,2656,896] den=[3,19,32,16]",
         closed="96*log2^1",
         derive=("neg-27", "1,1/2,1,0", "1/2", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1,1/2,1,0) at n=1/2 giving 96*log(2)"),
    _row("N27-5",
         series="z=-1/27 upper=[1/2,1/2] lower=[7/6,11/6]"
                " num=[21,48,28] den=[1,1]",
         closed="30*log2^1",
         derive=("neg-27", "1,0,0,1/2", "1", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1,0,0,1/2) at n=1 giving 30*log(2)",
         tentative=True,
         note="four parameter names printed against five values; bound as"
              " (a,b,c,d,n)=(1,0,0,1/2,1), the assignment that reproduces"
              " the display"),
    _row("N27-6", series=_EQ20_S, closed=_EQ20_C,
         derive=("neg-27", "1/4,1/4,1/2,0", "1/4", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/4,1/4,1/2,0) at n=1/4 reproducing"
                " the quadratic-summand display for 15*sqrt(2)/2"),
    _row("N27-7",
         series="z=-1/27 upper=[3/8,5/8,3/4,7/8,9/8]"
                " lower=[1,7/6,3/2,3/2,11/6]"
                " num=[1395,7472,12928,7168] den=[1]",
         closed="960*2^1/2",
         derive=("neg-27", "1/4,1/2,0,1/4", "1/2", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/4,1/2,0,1/4) at n=1/2 giving"
                " 960*sqrt(2)",
         tentative=True,
         note="four parameter names printed against five values; bound as"
              " (a,b,c,d,n)=(1/4,1/2,0,1/4,1/2), the assignment that"
              " reproduces the display"),
    _row("N27-8",
         series="z=-1/27 upper=[1/2,5/6,4/3,4/3]"
                " lower=[1,25/18,31/18,37/18] num=[32,75,42] den=[1]",
         closed="1729/96*3^1/2",
         derive=("neg-27", "1/6,0,5/6,0", "1/2", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/6,0,5/6,0) at n=1/2 giving"
                " 1729*sqrt(3)/96"),
    _row("N27-9",
         series="z=-1/27 upper=[1/3,1/3,2/3,5/6] lower=[1,10/9,13/9,16/9]"
                " num=[37,396,1035,756] den=[1]",
         closed="28*2^1/3",
         derive=("neg-27", "1/6,1/6,1/3,0", "1/3", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/6,1/6,1/3,0) at n=1/3 giving"
                " 28*2^(1/3)"),
    _row("N27-10", series=_PM4_S, closed=_PM4_C,
         derive=("neg-27", "3/4,1/4,-1/2,0", "3/4", 1), rate="-1/27",
         anchor="rate -1/27 tuple (3/4,1/4,-1/2,0) at n=3/4 reproducing"
                " the cubic-summand display for 315*pi/(16*sqrt(2))"),
    _row("N27-11", series=_PM8_S, closed=_PM8_C,
         derive=("neg-27", "1/3,2/3,1,1/3", "1/3", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/3,2/3,1,1/3) at n=1/3 reproducing"
                " the 21k^2+26k+7 display for 15*pi/(4*sqrt(3))"),
    _row("N27-12", series=_EQ19_S, closed=_EQ19_C,
         derive=("neg-27", "1/4,3/4,0,3/4", "1/2", 1), rate="-1/27",
         anchor="rate -1/27 tuple (1/4,3/4,0,3/4) at n=1/2 reproducing"
                " the 28k+5 display for 15*sqrt(2)/4"),
    # recovered rate -1/27 tuples without a local display
    _row("N27-R1", derive=("neg-27", "1,0,0,0", "1", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (1,0,0,0) at n=1"),
    _row("N27-R2", derive=("neg-27", "1,0,-1/2,0", "1", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (1,0,-1/2,0) at n=1"),
    _row("N27-R3", derive=("neg-27", "1/2,0,1/2,0", "1/2", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (1/2,0,1/2,0) at n=1/2"),
    _row("N27-R4", derive=("neg-27", "1,1/2,1/2,0", "1/2", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (1,1/2,1/2,0) at n=1/2"),
    _row("N27-R5", derive=("neg-27", "1/2,1/2,1/2,1/2", "1/2", 1),
         rate="-1/27",
         anchor="recovered rate -1/27 tuple (1/2,1/2,1/2,1/2) at n=1/2"),
    _row("N27-R6", derive=("neg-27", "1/3,1/3,2/3,0", "1/3", 1),
         rate="-1/27",
         anchor="recovered rate -1/27 tuple (1/3,1/3,2/3,0) at n=1/3"),
    _row("N27-R7", derive=("neg-27", "1/3,0,1/3,0", "2/3", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (1/3,0,1/3,0) at n=2/3"),
    _row("N27-R8", derive=("neg-27", "2/3,2/3,1,0", "1/3", 1), rate="-1/27",
         anchor="recovered rate -1/27 tuple (2/3,2/3,1,0) at n=1/3"),
    # -- rate 4/27 three-parameter examples ---------------------------------
    _row("F427-1",
         series="z=4/27 upper=[7/12,11/12,13/12,17/12] lower=[1,13/8,17/8,9/4]"
                " num=[16796,55923,58788,19872] den=[1]",
         closed="885735/64*2^1/2",
         derive=("four-27", "1/12,5/12,1/4", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/12,5/12,1/4) at n=1 giving"
                " 885735*sqrt(2)/64"),
    _row("F427-2",
         series="z=4/27 upper=[3/8,3/8,1/2,7/8,7/8]"
                " lower=[3/4,1,13/12,17/12,7/4]"
                " num=[45,618,1840,1472] den=[1]",
         closed="45*2^1/2",
         derive=("four-27", "1/4,1/4,-1/2", "3/4", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/4,1/4,-1/2) at n=3/4 giving 45*sqrt(2)"),
    _row("F427-3",
         series="z=4/27 upper=[3/4,3/4,3/4,5/4,5/4]"
                " lower=[1,11/8,17/12,15/8,25/12]"
                " num=[300,1309,1748,736] den=[1]",
         closed="4095/16*2^1/2",
         derive=("four-27", "1/4,1/4,-1/4", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/4,1/4,-1/4) at n=1 giving"
                " 4095*sqrt(2)/16"),
    _row("F427-4",
         series="z=4/27 upper=[5/12,7/12,11/12,13/12] lower=[1,9/8,5/4,13/8]"
                " num=[260,1449,1656] den=[1]",
         closed="3645/16*2^1/2",
         derive=("four-27", "1/12,5/12,-3/4", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/12,5/12,-3/4) at n=1 giving"
                " 3645*sqrt(2)/16"),
    _row("F427-5",
         series="z=4/27 upper=[3/8,5/8,7/8,9/8] lower=[1,7/6,3/2,11/6]"
                " num=[315,984,736] den=[1]",
         closed="240*2^1/2",
         derive=("four-27", "1/4,3/4,-1/2", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/4,3/4,-1/2) at n=1 giving 240*sqrt(2)"),
    _row("F427-6",
         series="z=4/27 upper=[1/6,5/6,4/3,5/3] lower=[1,3/2,7/4,9/4]"
                " num=[640,1521,828] den=[1]",
         closed="98415/256*3^1/2",
         derive=("four-27", "1/6,5/6,1/2", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/6,5/6,1/2) at n=1 giving"
                " 98415*sqrt(3)/256"),
    _row("F427-7",
         series="z=4/27 upper=[5/12,5/12,1/2,11/12,11/12]"
                " lower=[2/3,1,10/9,13/9,16/9]"
                " num=[109,1510,4320,3312] den=[1]",
         closed="896/9*3^1/2",
         derive=("four-27", "1/6,1/6,-1/3", "2/3", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/6,1/6,-1/3) at n=2/3 giving"
                " 896*sqrt(3)/9"),
    _row("F427-8",
         series="z=4/27 upper=[3/4,3/4,5/6,5/4,5/4]"
                " lower=[1,4/3,13/9,16/9,19/9]"
                " num=[1215,5494,7632,3312] den=[1]",
         closed="71680/81*3^1/2",
         derive=("four-27", "1/6,1/6,-1/3", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/6,1/6,-1/3) at n=1 giving"
                " 71680*sqrt(3)/81"),
    _row("F427-9",
         series="z=4/27 upper=[1/3,5/12,2/3,11/12] lower=[1,10/9,13/9,16/9]"
                " num=[26,303,828,621] den=[1]",
         closed="28*2^1/3",
         derive=("four-27", "1/6,1/3,-2/3", "5/6", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/6,1/3,-2/3) at n=5/6 giving 28*2^(1/3)"),
    _row("F427-10",
         series="z=4/27 upper=[1/3,1/3,7/12,5/6,13/12]"
                " lower=[1,7/6,7/6,3/2,5/3]"
                " num=[91,738,1728,1242] den=[1]",
         closed="81*2^1/3",
         derive=("four-27", "2/3,1/6,-2/3", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (2/3,1/6,-2/3) at n=1 giving 81*2^(1/3)"),
    _row("F427-11", series=_PM6_S, closed=_PM6_C,
         derive=("four-27", "1/2,1/2,-1/2", "1", 1), rate="4/27",
         anchor="rate 4/27 tuple (1/2,1/2,-1/2) at n=1 reproducing the"
                " cubic-summand display for 45*pi/4"),
    # -- rate 16/27 binomial examples ----------------------------------------
    _row("S1627-1",
         series="z=16/27 upper=[3/8,5/8,7/8,9/8] lower=[1,4/3,5/3,5/2]"
                " num=[321,1564,2096,704] den=[1]",
         closed="384*2^1/2",
         derive=("sixteen-27-a", "-1,1/2", "1/2", 1), rate="16/27",
         anchor="rate 16/27 tuple (-1,1/2) at n=1/2 via the unit-factor"
                " binomial core giving 384*sqrt(2)"),
    _row("S1627-2",
         series="z=16/27 upper=[7/12,5/6,13/12] lower=[1,7/3,5/3]"
                " num=[113,237,99] den=[1]",
         closed="144*2^1/3",
         derive=("sixteen-27-a", "-1/3,1/3", "1/3", 1), rate="16/27",
         anchor="rate 16/27 tuple (-1/3,1/3) at n=1/3 via the unit-factor"
                " binomial core giving 144*2^(1/3)"),
    _row("S1627-3",
         series="z=16/27 upper=[-3/4,5/8,7/8,9/8,11/8]"
                " lower=[1,5/4,4/3,5/3,5/2]"
                " num=[633,2252,2416,704] den=[1]",
         closed="192*2^1/2",
         derive=("sixteen-27-b", "1/4,1/4", "1/2", 1), rate="16/27",
         anchor="rate 16/27 tuple (1/4,1/4) at n=1/2 via the double-factor"
                " binomial core giving 192*sqrt(2)"),
    _row("S1627-4",
         series="z=16/27 upper=[-7/6,7/12,13/12] lower=[1/3,2/3,1]"
                " num=[133,66] den=[4,3]",
         closed="-14*2^1/3",
         derive=("sixteen-27-b", "-1/3,1/3", "1/3", 1), rate="16/27",
         anchor="rate 16/27 tuple (-1/3,1/3) at n=1/3 via the double-factor"
                " binomial core giving -14*2^(1/3)"),
    _row("S1627-R1", derive=("sixteen-27-a", "1/2,1/2", "1/2", 1),
         rate="16/27",
         anchor="recovered rate 16/27 tuple (1/2,1/2) at n=1/2 via the"
                " unit-factor binomial core"),
    # -- rate 1/64 examples ---------------------------------------------------
    _row("S64-1",
         series="z=1/64 upper=[1/4,1/2,3/4,1] lower=[9/8,11/8,13/8,15/8]"
                " num=[82,411,656,336] den=[1]",
         closed="105/4*pi^1",
         derive=("sixty4-a", "1/2,1/4,3/4", "1/4", 1), rate="1/64",
         anchor="rate 1/64 tuple (1/2,1/4,3/4) at n=1/4 giving 105*pi/4"
                " with summand (3j+2)(112j^2+144j+41)"),
    _row("S64-2",
         series="z=1/64 upper=[1/3,1/3,1,1,1,5/3,5/3]"
                " lower=[7/6,7/6,3/2,3/2,3/2,11/6,11/6]"
                " num=[46,231,369,189] den=[1]",
         closed="75/16*pi^2",
         derive=("sixty4-a", "1/2,3/4,3/4", "1/4", 1), rate="1/64",
         anchor="rate 1/64 tuple (1/2,3/4,3/4) at n=1/4 giving 75*pi^2/16"
                " with summand (3j+2)(63j^2+81j+23)"),
    _row("S64-3", series=_PM1_S, closed=_PM1_C,
         derive=("sixty4-a", "1,1/2,1/2", "1/2", 1), rate="1/64",
         anchor="rate 1/64 tuple (1,1/2,1/2) at n=1/2 reproducing the"
                " rational-summand display for 6*pi^2"),
    _row("S64-4",
         series="z=1/64 upper=[1/6,1/3,5/6,1,5/3]"
                " lower=[13/12,17/12,3/2,19/12,23/12]"
                " num=[58,303,492,252] den=[1]",
         closed="385/12*pi^1*3^-1/2",
         derive=("sixty4-b", "-5/6,0,-2/3", "1", 1), rate="1/64",
         anchor="rate 1/64 tuple (-5/6,0,-2/3) at n=1 via the paired-base"
                " core giving 385*pi/(12*sqrt(3))"),
    _row("S64-5",
         series="z=1/64 upper=[-3/4,-1/2,1/4,3/4,7/4]"
                " lower=[3/8,7/8,1,9/8,13/8]"
                " num=[-17,-70,304,672] den=[1]",
         closed="-10*2^1/2",
         derive=("sixty4-b", "-3/4,1/2,-1", "1/4", 1), rate="1/64",
         anchor="rate 1/64 tuple (-3/4,1/2,-1) at n=1/4 via the paired-base"
                " core giving -10*sqrt(2)"),
    _row("S64-6",
         series="z=1/64 upper=[1/6,1/3,2/3,5/6] lower=[1,5/4,3/2,7/4]"
                " num=[203,1557,3420,2268] den=[1]",
         closed="162*2^1/3",
         derive=("sixty4-b", "-2/3,-1/6,-1/2", "5/6", 1), rate="1/64",
         anchor="rate 1/64 tuple (-2/3,-1/6,-1/2) at n=5/6 via the"
                " paired-base core giving 162*2^(1/3)"),
    _row("S64-7", series=_RT8_S, closed=_RT8_C,
         derive=("sixty4-b", "-2/3,-1/3,-1", "5/6", 1), rate="1/64",
         anchor="rate 1/64 tuple (-2/3,-1/3,-1) at n=5/6 reproducing the"
                " 14k+11 display for 512*sqrt(3)/81"),
    _row("S64-8", series=_PM9_S, closed=_PM9_C,
         derive=("sixty4-b", "1/2,1/2,0", "1/2", 1), rate="1/64",
         anchor="rate 1/64 tuple (1/2,1/2,0) at n=1/2 reproducing the"
                " 42k^2+61k+22 display for 9*pi^2/4"),
    # recovered rate 1/64 tuples without a local display
    _row("S64-R1", derive=("sixty4-b", "0,0,-1", "1/2", 1), rate="1/64",
         anchor="recovered rate 1/64 tuple (0,0,-1) at n=1/2"),
    _row("S64-R2", derive=("sixty4-b", "0,0,0", "1", 1), rate="1/64",
         anchor="recovered rate 1/64 tuple (0,0,0) at n=1"),
    _row("S64-R3", derive=("sixty4-b", "-2/3,0,-1/3", "1", 1), rate="1/64",
         anchor="recovered rate 1/64 tuple (-2/3,0,-1/3) at n=1"),
    _row("S64-R4", derive=("sixty4-b", "1/2,0,0", "1/2", 1), rate="1/64",
         anchor="recovered rate 1/64 tuple (1/2,0,0) at n=1/2"),
    _row("S64-R5", derive=("sixty4-b", "-2/3,1/6,-1", "5/6", 1), rate="1/64",
         anchor="recovered rate 1/64 tuple (-2/3,1/6,-1) at n=5/6"),
    _row("S64-R6", derive=("sixty4-b", "-2/3,1/3,-2/3", "5/6", 1),
         rate="1/64",
         anchor="recovered rate 1/64 tuple (-2/3,1/3,-2/3) at n=5/6"),
    _row("S64-R7", derive=("sixty4-b", "1/3,1/3,-2/3", "1/3", 1),
         rate="1/64",
         anchor="recovered rate 1/64 tuple (1/3,1/3,-2/3) at n=1/3"),
    _row("S64-R8", derive=("sixty4-b", "-1/2,1/4,-1", "3/4", 1),
         rate="1/64",
         anchor="recovered rate 1/64 tuple (-1/2,1/4,-1) at n=3/4"),
    _row("S64-R9", derive=("sixty4-b", "-1/2,1/2,-1/2", "3/4", 1),
         rate="1/64",
         anchor="recovered rate 1/64 tuple (-1/2,1/2,-1/2) at n=3/4"),
    # -- rate 27/64 examples --------------------------------------------------
    _row("S2764-1",
         series="z=27/64 upper=[1/2,1/2,1/2,5/6,1,7/6]"
                " lower=[5/4,5/4,11/8,7/4,7/4,15/8]"
                " num=[120,753,1700,1656,592] den=[1]",
         closed="189/4*pi^1",
         derive=("twenty7-64", "3/8,0,3/8", "1/2", 1), rate="27/64",
         anchor="rate 27/64 tuple (3/8,0,3/8) at n=1/2 giving 189*pi/4",
         tentative=True,
         note="display prints six upper against five lower parameters;"
              " lower row completed with a second 5/4, the completion"
              " the derived stream normalizes to, and the completed"
              " series sums to the displayed constant"),
    _row("S2764-2",
         series="z=27/64 upper=[5/6,7/6] lower=[5/4,7/4]"
                " num=[111,256,148] den=[1,3,2]",
         closed="192*log2^1",
         derive=("twenty7-64", "1,0,0", "1/2", 1), rate="27/64",
         anchor="rate 27/64 tuple (1,0,0) at n=1/2 giving 192*log(2)"),
    _row("S2764-3",
         series="z=27/64 upper=[1,4/3,5/3] lower=[7/4,2,9/4]"
                " num=[69,101,37] den=[3,2]",
         closed="30",
         derive=("twenty7-64", "0,0,1", "1", 1), rate="27/64",
         anchor="rate 27/64 tuple (0,0,1) at n=1 giving the integer 30"),
    _row("S2764-R1", derive=("twenty7-64", "1/4,0,1/4", "1", 1),
         rate="27/64",
         anchor="recovered rate 27/64 tuple (1/4,0,1/4) at n=1"),
    # -- further rates --------------------------------------------------------
    _row("FR-1",
         series="z=-1/64 upper=[1,10/9,13/9,3/2,5/3,16/9]"
                " lower=[7/6,14/9,7/4,17/9,20/9,9/4]"
                " num=[780,2155,1956,585] den=[1]",
         closed="8800/21*pi^1*3^-1/2",
         derive=("neg-64", "-2/3,2/3,0", "2/3", 1), rate="-1/64",
         anchor="rate -1/64 tuple (-2/3,2/3,0) at n=2/3 giving"
                " 8800*pi/(21*sqrt(3))"),
    _row("FR-2",
         series="z=27/32 upper=[1,4/3,5/3] lower=[7/4,9/4,5/2]"
                " num=[12,16,5] den=[1]",
         closed="45/4*pi^1",
         derive=("twenty7-32", "1,1/2", "1/2", 1), rate="27/32",
         anchor="rate 27/32 tuple (1,1/2) at n=1/2 giving 45*pi/4 with"
                " summand 5j^2+16j+12",
         tentative=True,
         note="three values printed against four parameter names; the"
              " Pochhammer base is read as 2n+b, affine in n, the reading"
              " that admits a unit-offset recurrence"),
)

_BY_ID = {e.id: e for e in _ENTRIES}


def catalog_entries() -> list[CatalogEntry]:
    """All entries in presentation order."""
    return list(_ENTRIES)


def entry(rid: str) -> CatalogEntry:
    try:
        return _BY_ID[rid]
    except KeyError:
        raise KeyError(f"unknown entry id: {rid}") from None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_series(chu: ChuSeries, closed: ClosedForm, digits: int,
                  max_terms: Optional[int] = None) -> VerifyReport:
    """Certified comparison of a bracket series against its constant.

    Passes iff the two enclosures overlap and their combined radius is
    at most 10^-(digits-2).  max_terms, when given, overrides the term
    cap that chu_eval_terms picks.
    """
    lhs, used = chu_eval_terms(chu, digits, max_terms)
    rhs = closedform_eval(closed, digits)
    ok = lhs.overlaps(rhs) and radii_within((lhs, rhs), digits - 2)
    return VerifyReport(passed=ok, lhs=lhs, rhs=rhs, terms_used=used)


def verify_entry(rid: str, digits: int,
                 max_terms: Optional[int] = None) -> VerifyReport:
    e = entry(rid)
    if e.chu is None or e.closed is None:
        raise ValueError(f"entry {rid} has no display series to verify")
    return verify_series(e.chu, e.closed, digits, max_terms)


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


# binom(n,k) (1)_k / (2n+b)_{k+a} with a and b free
_VARIANT = HypTerm(tuple(_binom_n_k() + _poch("1", "k", 1)
                         + _poch("2n + b", "k + a", -1)))


def _variant_base_in_n(a: Fraction, b: Fraction) -> HypTerm:
    """binom(n,k) (1)_k / (2n+b)_{k+a} with the Pochhammer base affine in n.

    The stored family reads the base as 2k+b and admits no two-term
    recurrence at small n-offsets; this reading reproduces the stored
    rate 27/32 display.  The symbolic summand is built once, and a tuple
    is substituted into its `Affine` rows, as `family_instantiate` does.
    """
    return _VARIANT.subst({"a": a, "b": b})


def derivation_term(e: CatalogEntry) -> HypTerm:
    """Instantiated summand for an entry's derivation recipe."""
    d = e.derivation
    if d is None:
        raise ValueError(f"entry {e.id} has no derivation")
    if e.id == "FR-2":
        return _variant_base_in_n(*d.params)
    return family_instantiate(d.family, d.params)


def derivation_recurrence(e: CatalogEntry, term: Optional[HypTerm] = None):
    """Recurrence for an entry: stored general form where one exists.
    term is the entry's `derivation_term`, built here when not given."""
    d = e.derivation
    if d is None:
        raise ValueError(f"entry {e.id} has no derivation")
    base = builtin_recurrence(d.family)
    if base is not None:
        point = dict(zip(d.family.param_names, d.params))
        return specialize(base, point)
    return zeilberger_two_term(term if term is not None else derivation_term(e),
                               d.r)


def derive_entry(rid: str) -> DeriveReport:
    """Re-derive an entry's recurrence and compare against its display.

    proportional is the constant c with stream term = c * display term
    for every j; None when no display is stored, its first term is zero
    or its term quotient differs from the stream's.  Equal term
    quotients make the two sequences termwise proportional from their
    first terms on, so c is the stream's first term over the display's.
    accelerator.same_quotient decides the equality on the factors, and
    no quotient or bracket normal form is expanded.
    """
    e = entry(rid)
    term = derivation_term(e)
    rec = derivation_recurrence(e, term)
    if rec is None:
        return DeriveReport(recurrence_found=False, rate=None,
                            proportional=None)
    rate = convergence_rate(rec)
    stream = accelerated_stream(term, rec, e.derivation.n0,
                                check_vanishing=False)
    proportional = None
    if e.chu is not None:
        t0 = e.chu.term(0)
        # t0 != 0 makes num and den nonzero
        if t0 != 0 and same_quotient(stream.quotient, e.chu.quotient()):
            proportional = stream.term(0) / t0
    return DeriveReport(recurrence_found=True, rate=rate,
                        proportional=proportional)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_lines() -> list[str]:
    """One tab-separated line per entry: id, series text, closed text."""
    lines = []
    for e in _ENTRIES:
        series = series_text(e.chu) if e.chu is not None else "-"
        closed = closed_text(e.closed) if e.closed is not None else "-"
        lines.append(f"{e.id}\t{series}\t{closed}")
    return lines


def export_text() -> str:
    return "\n".join(export_lines()) + "\n"
