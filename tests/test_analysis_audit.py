"""The analysis gate over the real tree, plus the plan-verifier smoke.

Two promises ride on this module:

* the shipped source is lint-clean — zero unsuppressed findings, every
  suppression justified — which is exactly the CI gate
  (``python -m repro.analysis src/ --format=json``), run here so a local
  ``pytest`` catches a violation before CI does;
* every query in the library builds a plan that passes static verification
  under both storage backends — the verifier must never reject a plan the
  engine legitimately builds (no false positives on the happy path).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths, verify_plan
from repro.datagen import random_graph_database
from repro.engine import Engine
from repro.query.library import (
    bowtie_query,
    clique_query,
    cycle_query,
    four_cycle_boolean,
    four_cycle_full,
    four_cycle_projected,
    loomis_whitney_query,
    path_query,
    star_query,
    triangle_query,
    two_path_projected,
)
from repro.stats import collect_statistics

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


# ---------------------------------------------------------------------------
# the lint gate
# ---------------------------------------------------------------------------

def test_source_tree_has_zero_unsuppressed_findings():
    report = lint_paths([SRC])
    assert report.clean, "\n" + report.render()


def test_every_suppression_in_the_tree_is_justified():
    report = lint_paths([SRC])
    for finding in report.suppressed:
        assert finding.justification, finding.render()


def test_gate_actually_covers_the_tree():
    # A gate that silently lints zero files passes vacuously; pin the
    # corpus so a path typo cannot hollow the check out.
    from repro.analysis.linter import iter_python_files

    files = iter_python_files([SRC])
    assert len(files) > 40
    names = {path.name for path in files}
    assert {"core.py", "storage.py", "kernels.py", "planner.py"} <= names


# ---------------------------------------------------------------------------
# plan-verifier smoke: the full query library x both backends
# ---------------------------------------------------------------------------

SMOKE_CASES = [
    ("triangle", triangle_query(), 30, 8),
    ("four-cycle-projected", four_cycle_projected(), 24, 7),
    ("four-cycle-full", four_cycle_full(), 24, 7),
    ("four-cycle-boolean", four_cycle_boolean(), 24, 7),
    ("three-cycle", cycle_query(3), 24, 7),
    ("path-3", path_query(3, free_variables=("X1", "X4")), 30, 8),
    ("two-path-projected", two_path_projected(), 30, 8),
    ("star-3", star_query(3), 30, 8),
    ("clique-4", clique_query(4), 20, 6),
    ("loomis-whitney-3", loomis_whitney_query(3), 20, 6),
    ("bowtie", bowtie_query(free_variables=("X",)), 20, 6),
]


@pytest.mark.parametrize("backend", ["set", "columnar"])
@pytest.mark.parametrize(
    "query,size,domain",
    [case[1:] for case in SMOKE_CASES],
    ids=[case[0] for case in SMOKE_CASES])
def test_library_plans_pass_static_verification(query, size, domain, backend):
    database = random_graph_database(query, size, domain, seed=23,
                                     backend=backend)
    statistics = collect_statistics(database, query, include_degrees=False)
    engine = Engine(database)
    prepared = engine.prepare(query, statistics=statistics)
    # Every freshly built plan was verified on its way into the cache ...
    assert engine.stats.plans_built == 1
    assert engine.stats.plans_verified == 1
    # ... the rebuilt executable plan is clean in the original space too ...
    assert verify_plan(prepared.plan) == []
    # ... and executing rebuilds it from the verified cache entry.
    engine.execute(query, statistics=statistics)
    assert engine.stats.plans_reused == 1
    assert engine.stats.plans_verified == 1
