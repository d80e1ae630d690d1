"""Exact-arithmetic engine for hypergeometric series accelerations.

The package verifies two-term contiguous recurrences for parameterized
hypergeometric summands by exact telescoping, re-derives them with a
Gosper-style creative-telescoping solver, expands the resulting
accelerated series as exact rational term streams, normalizes the streams
to bracketed Pochhammer-quotient form, and certifies displayed closed
forms numerically with exact interval enclosures.
"""

from hyperaccel.accelerator import (
    AccelStream,
    ChuSeries,
    accelerated_stream,
    chu_normalize,
    convergence_rate,
    stream_proportional,
)
from hyperaccel.catalog import (
    CatalogEntry,
    catalog_entries,
    default_term_budget,
    derive_entry,
    entry,
    export_text,
    parse_series_text,
    series_text,
    verify_entry,
)
from hyperaccel.exact_arith import (
    MultiPoly,
    NRat,
    Rational,
    RatFunc,
    UniPoly,
    rational_roots,
)
from hyperaccel.hypergeom_terms import (
    FamilyId,
    HypTerm,
    family_instantiate,
    family_term,
    k_shift_ratio,
    n_shift_ratio,
)
from hyperaccel.numerics import Enclosure, chu_eval, direct_sum_eval
from hyperaccel.telescoper import (
    Recurrence,
    builtin_recurrence,
    builtin_residual,
    derive_recurrence,
    recurrence_residual,
    same_ratio,
    specialize,
    theorem_families,
    zeilberger_two_term,
)

__all__ = [
    "AccelStream",
    "CatalogEntry",
    "ChuSeries",
    "Enclosure",
    "FamilyId",
    "HypTerm",
    "MultiPoly",
    "NRat",
    "RatFunc",
    "Rational",
    "Recurrence",
    "UniPoly",
    "accelerated_stream",
    "builtin_recurrence",
    "builtin_residual",
    "catalog_entries",
    "chu_eval",
    "chu_normalize",
    "convergence_rate",
    "default_term_budget",
    "derive_entry",
    "derive_recurrence",
    "direct_sum_eval",
    "entry",
    "export_text",
    "family_instantiate",
    "family_term",
    "k_shift_ratio",
    "n_shift_ratio",
    "parse_series_text",
    "rational_roots",
    "recurrence_residual",
    "same_ratio",
    "series_text",
    "specialize",
    "stream_proportional",
    "theorem_families",
    "verify_entry",
    "zeilberger_two_term",
]

__version__ = "0.1.0"
