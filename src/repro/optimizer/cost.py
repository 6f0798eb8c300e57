"""The information-theoretic cost model used by the planner.

The cost of a plan is the worst-case size of its largest intermediate relation
(Section 4.1), measured on the log_N scale:

* a Yannakakis plan for a free-connex acyclic query costs ``max(1, log_N OUT)``
  — linear in input plus output;
* a static plan built on a tree decomposition costs the decomposition's worst
  bag bound (Eq. (21)), and the best static plan costs ``fhtw(Q, S)``;
* an adaptive PANDA plan costs ``subw(Q, S)`` (Eq. (41)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import is_acyclic, is_free_connex
from repro.stats.constraints import ConstraintSet
from repro.widths.fhtw import FhtwResult, fractional_hypertree_width
from repro.widths.subw import SubwResult, submodular_width


@dataclass
class CostEstimate:
    """All cost figures the planner compares."""

    query: ConjunctiveQuery
    statistics: ConstraintSet
    is_acyclic: bool
    is_free_connex: bool
    fhtw: FhtwResult
    subw: SubwResult
    #: The free-connex tree decompositions both widths were computed over.
    #: Plan runners reuse them, so choosing *and executing* a plan enumerates
    #: decompositions exactly once per costed estimate.
    decompositions: tuple = ()

    @property
    def fhtw_exponent(self) -> float:
        return self.fhtw.width

    @property
    def subw_exponent(self) -> float:
        return self.subw.width

    @property
    def adaptive_gain(self) -> float:
        """How much the adaptive plan improves on the best static plan (log_N scale)."""
        return self.fhtw.width - self.subw.width

    def describe(self) -> str:
        lines = [f"cost estimate for {self.query}"]
        lines.append(f"  acyclic: {self.is_acyclic}, free-connex: {self.is_free_connex}")
        lines.append(f"  fhtw(Q,S) = {self.fhtw.width:.4g} "
                     f"(best static plan {self.fhtw.best_decomposition})")
        lines.append(f"  subw(Q,S) = {self.subw.width:.4g}")
        if self.adaptive_gain > 1e-9:
            lines.append(f"  adaptive plans win by N^{self.adaptive_gain:.4g}")
        return "\n".join(lines)


def estimate_costs(query: ConjunctiveQuery, statistics: ConstraintSet
                   ) -> CostEstimate:
    """Compute every cost figure the planner needs.

    The TD enumeration is shared between the two width computations, and so
    is the compiled ``Γ_n ∧ S`` feasible region: the per-bag LPs of ``fhtw``
    and the per-selector LPs of ``subw`` re-solve one cached program.
    """
    decompositions = enumerate_tree_decompositions(query)
    atom_sets = [atom.varset for atom in query.atoms]
    fhtw = fractional_hypertree_width(query, statistics, decompositions=decompositions)
    subw = submodular_width(query, statistics, decompositions=decompositions)
    return CostEstimate(
        query=query,
        statistics=statistics,
        is_acyclic=is_acyclic(atom_sets),
        is_free_connex=is_free_connex(atom_sets, query.free_variables),
        fhtw=fhtw,
        subw=subw,
        decompositions=tuple(decompositions),
    )
