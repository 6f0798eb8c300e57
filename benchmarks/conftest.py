"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure, table or numeric claim of the
paper (the ``bench_e*``, ``bench_table*`` and ``bench_figure*`` scripts index
the experiments by name), measures the relevant
computation with pytest-benchmark, and prints the regenerated artifact so the
run's output can be compared against the paper side by side (run with ``-s``
to see the tables).
"""

from __future__ import annotations

import pytest


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print a small fixed-width table (the benchmarks' reporting format)."""
    widths = [len(h) for h in headers]
    rendered_rows = [[str(value) for value in row] for row in rows]
    for row in rendered_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rendered_rows:
        print("  ".join(value.ljust(widths[i]) for i, value in enumerate(row)))


@pytest.fixture
def report_table():
    return print_table
