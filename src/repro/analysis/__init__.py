"""``repro.analysis``: static plan verification and codebase invariant linting.

The runtime layers built in PRs 1–6 each rest on invariants none of them
re-check at execution time: cached :class:`~repro.engine.plan_cache.PlanRecipe`
objects are rebuilt with ``validate=False``, shared counters assume every writer holds the lock, and
the asyncio service assumes no coroutine ever blocks.  Our own history shows
these rot silently — PR 2's dropped answers came from a raw float threshold
against an LP objective, PR 4 and PR 6 each fixed an unlocked
read-modify-write on shared counters.  This package moves those bug classes
from production triage to CI time:

* :mod:`repro.analysis.plan_verifier` — static checks on plan artifacts
  (running intersection, atom/variable coverage, free-variable safety,
  semijoin-order validity, width sanity, semiring↔kernel capability,
  Shannon-flow proof-step well-formedness), wired into the engine's plan
  cache insert;
* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — an AST
  linter with a rule registry, ``file:line`` findings with fix hints,
  justified inline suppressions and JSON output, encoding the repo's
  locked-counter, async-blocking, cache-invalidation, pickle-safety,
  cancellation and float-epsilon disciplines;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis src/ --format=json``,
  the zero-unsuppressed-findings CI gate.
"""

from repro.analysis.findings import Finding, Report
from repro.analysis.linter import (
    LintRule,
    lint_paths,
    lint_source,
    register_rule,
    registered_rules,
)
from repro.analysis.plan_verifier import (
    PlanVerificationError,
    WIDTH_SLACK,
    assert_valid,
    verify_bags,
    verify_plan,
    verify_proof_sequence,
    verify_recipe,
    verify_semijoin_order,
    verify_semiring_kernel_compatibility,
)

__all__ = [
    "Finding",
    "Report",
    "LintRule",
    "lint_paths",
    "lint_source",
    "register_rule",
    "registered_rules",
    "PlanVerificationError",
    "WIDTH_SLACK",
    "assert_valid",
    "verify_bags",
    "verify_plan",
    "verify_proof_sequence",
    "verify_recipe",
    "verify_semijoin_order",
    "verify_semiring_kernel_compatibility",
]
