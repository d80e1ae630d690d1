"""Shared fixtures: the derivation recipes with their recurrences."""

import pytest

from hyperaccel.catalog import catalog_entries, derivation_recurrence, derivation_term


@pytest.fixture(scope="session")
def derivation_recipes():
    """(entry, summand, recurrence) for all 95 recipes, built once per run
    because building the recurrences is the slow part of a derive pass."""
    return [(e, derivation_term(e), derivation_recurrence(e))
            for e in catalog_entries() if e.derivation is not None]
