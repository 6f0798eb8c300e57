"""Exact data and statistics from the paper's running example (Figure 2, Eq. (16), (23))."""

from repro.paperdata.figure2 import (
    figure2_database,
    figure2_expected_output,
    figure2_marginal_probabilities,
    four_cycle_cardinality_statistics,
    four_cycle_full_statistics,
)

__all__ = [
    "figure2_database",
    "figure2_expected_output",
    "figure2_marginal_probabilities",
    "four_cycle_cardinality_statistics",
    "four_cycle_full_statistics",
]
