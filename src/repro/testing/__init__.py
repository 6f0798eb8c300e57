"""Shared deterministic test instrumentation (storage fault injection).

Only tests activate anything here: with no :class:`FlakyBackend` installed,
nothing in this package runs.
"""

from repro.testing.faults import ALL_INDEX_METHODS, FlakyBackend, flaky_database

__all__ = [
    "ALL_INDEX_METHODS",
    "FlakyBackend",
    "flaky_database",
]
