"""The cardinality profiler: polymatroid estimates vs observed node sizes.

ROADMAP open item 3 asks for the feedback loop the paper implies but never
implements: the engine *predicts* intermediate sizes with polymatroid bounds
(the LP of Section 3) and then *sees* the real sizes go by — the
:class:`~repro.relational.operators.WorkCounter` tallies every materialised
intermediate.  This module closes the observation half of that loop, as
read-only telemetry:

* a **plan node** is a unit the cost model prices: a decomposition bag of a
  static/adaptive plan, a join-tree node of a Yannakakis plan, and the
  output relation itself;
* at plan-build time the engine seeds one :class:`NodeProfile` per node with
  the polymatroid bound of the node's variable set
  (:func:`repro.bounds.polymatroid.polymatroid_bound` accepts a bare
  variable set; the LP solves are region-cached, so seeding is cheap);
* at execution time the runners report observed node sizes through
  ``WorkCounter.observe_node`` (they merge with the counters), and the
  engine folds them into the profile;
* the profile is keyed by the plan-cache entry — it lives *inside* the
  cached :class:`~repro.engine.plan_cache.PlanRecipe`, so every execution of
  the same query fingerprint (including alpha-renamings, via the canonical
  renaming) accumulates into one profile that survives as long as the cache
  entry does.

Node keys are canonical variable names (the fingerprint renaming), so a
renamed query's observations land on the same nodes its twin seeded.
:meth:`CardinalityProfile.estimated_vs_observed` is the report the optimizer
hook will eventually consume — and what ``Engine.explain(analyze=True)`` and
the example script print today.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass
class NodeProfile:
    """One plan node: its estimate (fixed at seeding) and observed sizes."""

    kind: str
    #: Canonically renamed, sorted variable names — the node's identity.
    variables: tuple[str, ...]
    estimated_exponent: float | None = None
    #: ``N ** estimated_exponent`` — the polymatroid size bound.
    estimated_rows: float | None = None
    runs: int = 0
    observed_last: int = 0
    observed_peak: int = 0
    observed_total: int = 0

    def observe(self, rows: int) -> None:
        self.runs += 1
        self.observed_last = rows
        self.observed_peak = max(self.observed_peak, rows)
        self.observed_total += rows

    def as_dict(self) -> dict:
        ratio = None
        if self.estimated_rows and self.runs:
            ratio = self.observed_peak / self.estimated_rows
        return {
            "node": f"{self.kind}({','.join(self.variables)})",
            "kind": self.kind,
            "variables": list(self.variables),
            "estimated_exponent": self.estimated_exponent,
            "estimated_rows": self.estimated_rows,
            "runs": self.runs,
            "observed_last": self.observed_last,
            "observed_peak": self.observed_peak,
            "observed_mean": (self.observed_total / self.runs
                              if self.runs else None),
            "observed_over_estimated": ratio,
        }


class CardinalityProfile:
    """Per-fingerprint estimated-vs-observed sizes for every plan node."""

    def __init__(self, fingerprint: str, plan_kind: str) -> None:
        self.fingerprint = fingerprint
        self.plan_kind = plan_kind
        self.executions = 0
        self._lock = threading.Lock()
        self._nodes: dict[tuple[str, ...], NodeProfile] = {}

    # ------------------------------------------------------------- seeding
    def seed(self, nodes: Iterable[tuple[str, Iterable[str]]],
             statistics, renaming: dict[str, str]) -> None:
        """Price each ``(kind, variable set)`` node with its polymatroid
        bound.  ``statistics`` and the variable sets are in the query's own
        namespace; keys are stored canonically via ``renaming``.
        """
        from repro.bounds.polymatroid import polymatroid_bound

        for kind, variables in nodes:
            varset = frozenset(variables)
            key = _canonical(varset, renaming)
            with self._lock:
                if key in self._nodes:
                    continue
            bound = polymatroid_bound(varset, statistics)
            profile = NodeProfile(kind=kind, variables=key,
                                  estimated_exponent=bound.exponent,
                                  estimated_rows=bound.size_bound)
            with self._lock:
                self._nodes.setdefault(key, profile)

    # ---------------------------------------------------------- observation
    def record(self, observations: Sequence[tuple[str, Sequence[str], int]],
               renaming: dict[str, str]) -> None:
        """Fold one execution's ``WorkCounter.observations`` into the profile.

        ``renaming`` maps the *executing* query's variable names to canonical
        ones — it may differ from the seeding query's renaming when the plan
        was reused across an alpha-renaming.
        """
        with self._lock:
            self.executions += 1
            for kind, variables, rows in observations:
                key = _canonical(variables, renaming)
                node = self._nodes.get(key)
                if node is None:
                    # An execution-time intermediate the cost model never
                    # priced (e.g. a sub-bag projection): still tracked,
                    # with no estimate to compare against.
                    node = self._nodes[key] = NodeProfile(kind=kind,
                                                          variables=key)
                node.observe(int(rows))

    # -------------------------------------------------------------- reports
    def nodes(self) -> list[NodeProfile]:
        with self._lock:
            return sorted(self._nodes.values(),
                          key=lambda node: (node.kind, node.variables))

    def estimated_vs_observed(self) -> list[dict]:
        """One document per node: the polymatroid estimate next to what the
        executions actually materialised."""
        return [node.as_dict() for node in self.nodes()]

    def describe(self) -> str:
        """A fixed-width estimated-vs-observed table (the example script)."""
        rows = self.estimated_vs_observed()
        header = (f"{'node':<38} {'est. rows':>12} {'peak':>8} "
                  f"{'last':>8} {'obs/est':>8}")
        lines = [f"profile {self.fingerprint or '(uncached)'} "
                 f"[{self.plan_kind}] over {self.executions} executions",
                 header, "-" * len(header)]
        for doc in rows:
            estimated = (f"{doc['estimated_rows']:.1f}"
                         if doc["estimated_rows"] is not None else "-")
            ratio = (f"{doc['observed_over_estimated']:.3f}"
                     if doc["observed_over_estimated"] is not None else "-")
            lines.append(f"{doc['node']:<38} {estimated:>12} "
                         f"{doc['observed_peak']:>8} {doc['observed_last']:>8} "
                         f"{ratio:>8}")
        return "\n".join(lines)


def plan_nodes(plan) -> list[tuple[str, frozenset[str]]]:
    """The priceable nodes of a :class:`~repro.optimizer.planner.QueryPlan`,
    in the plan's own variable namespace."""
    nodes: list[tuple[str, frozenset[str]]] = [
        ("output", frozenset(plan.query.free_variables))]
    seen = {frozenset(plan.query.free_variables)}
    if plan.decomposition is not None:
        for bag in plan.decomposition.bags:
            bag = frozenset(bag)
            if bag not in seen:
                seen.add(bag)
                nodes.append(("bag", bag))
    for decomposition in plan.decompositions:
        for bag in decomposition.bags:
            bag = frozenset(bag)
            if bag not in seen:
                seen.add(bag)
                nodes.append(("bag", bag))
    if plan.decomposition is None and not plan.decompositions:
        # Yannakakis: the join-tree nodes are the atoms' variable sets.
        for atom in plan.query.atoms:
            varset = frozenset(atom.variables)
            if varset not in seen:
                seen.add(varset)
                nodes.append(("node", varset))
    return nodes


def _canonical(variables: Iterable[str],
               renaming: dict[str, str]) -> tuple[str, ...]:
    return tuple(sorted(renaming.get(v, v) for v in variables))
