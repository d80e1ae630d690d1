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
)
from hyperaccel.catalog import (
    CatalogEntry,
    catalog_entries,
    derive_entry,
    entry,
    export_text,
    parse_series_text,
    series_text,
    verify_entry,
)
from hyperaccel.exact_arith import (
    MultiPoly,
    Rational,
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
from hyperaccel.numerics import Enclosure, chu_eval_terms, default_term_budget
from hyperaccel.telescoper import (
    Recurrence,
    SymbolicRecurrence,
    builtin_recurrence,
    builtin_residual,
    derive_recurrence,
    recurrence_residual,
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
    "Rational",
    "Recurrence",
    "SymbolicRecurrence",
    "UniPoly",
    "accelerated_stream",
    "builtin_recurrence",
    "builtin_residual",
    "catalog_entries",
    "chu_eval_terms",
    "chu_normalize",
    "convergence_rate",
    "default_term_budget",
    "derive_entry",
    "derive_recurrence",
    "entry",
    "export_text",
    "family_instantiate",
    "family_term",
    "k_shift_ratio",
    "n_shift_ratio",
    "parse_series_text",
    "rational_roots",
    "recurrence_residual",
    "series_text",
    "specialize",
    "theorem_families",
    "verify_entry",
    "zeilberger_two_term",
]

__version__ = "0.1.0"
