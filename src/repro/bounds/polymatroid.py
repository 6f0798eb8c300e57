"""The polymatroid bound for CQs and disjunctive datalog rules (Theorems 4.1, 5.1).

Given statistics ``S`` over variables ``V``, the polymatroid bound of a CQ
with free variables ``F`` is

    max { h(F)  :  h ∈ Γ_n,  h |= S }

and the polymatroid bound of a DDR with head targets ``B`` is

    max { min_{B ∈ B} h(B)  :  h ∈ Γ_n,  h |= S }.

Both are linear programs over one variable per non-empty subset of ``V``,
constrained by the elemental Shannon inequalities and the statistics rows
``h(Y|X) <= log_N N_{Y|X}`` (degree constraints) or
``h(X)/k + h(Y|X) <= log_N N_{Y|X,k}`` (ℓk-norm constraints, Eq. (73)).
Everything is expressed on the paper's log_N scale.

The feasible region ``Γ_n ∧ S`` depends only on the ground set and the
statistics, not on the objective, so :meth:`PolymatroidProgram.shared`
memoizes fully-built programs keyed by ``(variables, statistics
fingerprint)``: ``fhtw`` solving one LP per bag, ``subw`` one per bag
selector and repeated bound queries all re-solve one compiled sparse region
instead of regenerating the O(n²·2ⁿ) elemental family and rebuilding the
matrices.  The min-target rows of a DDR bound are stacked on the compiled
region per solve (they never mutate it), so CQ and DDR bounds share the same
cache entry.  Build/hit counters land in
:func:`repro.lp.model.lp_cache_stats` under ``region_builds`` /
``region_hits``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.entropy.elemental import elemental_inequalities
from repro.entropy.setfunc import SetFunction
from repro.lp.model import (
    BoundedCache,
    LinearProgram,
    LPSolution,
    register_lp_cache,
)
from repro.query.cq import ConjunctiveQuery
from repro.stats.constraints import ConstraintSet, DegreeConstraint, LpNormConstraint
from repro.utils.varsets import format_varset, powerset

#: ``h{…}`` variable names are constructed for every subset row of every
#: constraint of every program; interning them per subset makes the dict
#: operations inside the LP builder pointer comparisons on repeat visits.
_NAME_CACHE: dict[frozenset[str], str] = {}

register_lp_cache(_NAME_CACHE.clear)


def entropy_variable_name(subset: frozenset[str]) -> str:
    """The (interned) LP variable name for ``h(subset)``."""
    cached = _NAME_CACHE.get(subset)
    if cached is None:
        cached = sys.intern("h" + format_varset(subset))
        _NAME_CACHE[subset] = cached
    return cached


@dataclass
class BoundResult:
    """The result of a polymatroid-bound LP.

    ``exponent`` is the bound on the log_N scale; ``size_bound`` converts it
    back to a tuple count using the statistics' reference size;
    ``polymatroid`` is the optimal (worst-case) polymatroid witnessing the
    bound.
    """

    exponent: float
    size_bound: float
    polymatroid: SetFunction
    lp_summary: str = ""

    def __str__(self) -> str:
        return f"N^{self.exponent:.4g} = {self.size_bound:.6g} tuples"


class PolymatroidProgram:
    """Shared construction of the ``h |= S, Γ_n`` feasible region.

    Solving never mutates the region: objectives are swapped per solve and
    the DDR min-targets ride along as ephemeral rows, so one instance can be
    shared between arbitrarily many bound queries (see :meth:`shared`).
    """

    def __init__(self, variables: Iterable[str], statistics: ConstraintSet,
                 name: str = "polymatroid") -> None:
        self.variables = frozenset(variables) | statistics.variables
        if not self.variables:
            raise ValueError("the polymatroid LP needs at least one variable")
        self.statistics = statistics
        self.program = LinearProgram(name)
        self._declare_entropy_variables()
        self._add_shannon_constraints()
        self._add_statistics_constraints()
        # Every bound query is a maximization; record the sense up front so
        # summaries stay truthful even though the per-solve objectives are
        # passed through ``resolve`` without touching the program.
        self.program.set_objective({}, maximize=True)

    # --------------------------------------------------------------- sharing
    @classmethod
    def shared(cls, variables: Iterable[str],
               statistics: ConstraintSet) -> "PolymatroidProgram":
        """A region-cache lookup: reuse a compiled ``Γ_n ∧ S`` program.

        Keyed by the ground set and the statistics' content fingerprint, so
        any two callers with structurally identical inputs — the per-bag LPs
        of ``fhtw``, the per-selector LPs of ``subw``, repeated bound queries
        from the optimizer — share one compiled program.  The program is
        always named ``polymatroid-region``: per-caller names would be
        misleading, since a cache hit serves whoever asked first.
        """
        ground = frozenset(variables) | statistics.variables
        key = (ground, statistics.fingerprint())
        cached = _REGION_CACHE.lookup(key)
        if cached is not None:
            return cached
        return _REGION_CACHE.store(
            key, cls(ground, statistics, name="polymatroid-region"))

    # ------------------------------------------------------------- building
    def _declare_entropy_variables(self) -> None:
        for subset in powerset(self.variables):
            if subset:
                self.program.add_variable(entropy_variable_name(subset), lower=0.0)

    def _add_shannon_constraints(self) -> None:
        for inequality in elemental_inequalities(self.variables):
            coefficients = {
                entropy_variable_name(subset): float(coeff)
                for subset, coeff in inequality.coefficients
                if subset
            }
            self.program.add_ge(coefficients, 0.0)

    def _add_statistics_constraints(self) -> None:
        for constraint in self.statistics:
            coefficients = self._constraint_row(constraint)
            rhs = self.statistics.exponent_of(constraint)
            self.program.add_le(coefficients, rhs)

    def _constraint_row(self, constraint) -> dict[str, float]:
        union = constraint.target | constraint.given
        coefficients: dict[str, float] = {entropy_variable_name(union): 1.0}
        if isinstance(constraint, DegreeConstraint):
            if constraint.given:
                coefficients[entropy_variable_name(constraint.given)] = -1.0
            return coefficients
        if isinstance(constraint, LpNormConstraint):
            # (1/k)·h(X) + h(Y|X) = h(XY) − (1 − 1/k)·h(X)
            if constraint.given:
                weight = -(1.0 - 1.0 / constraint.order)
                if abs(weight) > 1e-12:
                    coefficients[entropy_variable_name(constraint.given)] = weight
            return coefficients
        raise TypeError(f"unsupported constraint type: {type(constraint)!r}")

    # -------------------------------------------------------------- solving
    def maximize(self, objective: dict[frozenset[str], float]) -> LPSolution:
        coefficients = {entropy_variable_name(subset): weight
                        for subset, weight in objective.items() if subset}
        return self.program.resolve(objective=coefficients, maximize=True)

    def maximize_single(self, subset: frozenset[str]) -> LPSolution:
        return self.maximize({subset: 1.0})

    def maximize_each(self, subsets: Sequence[frozenset[str]]) -> list[LPSolution]:
        """One ``max h(B)`` solve per subset against the compiled region."""
        objectives = [{entropy_variable_name(subset): 1.0} for subset in subsets]
        return self.program.solve_many(objectives, maximize=True)

    def maximize_min(self, subsets: Sequence[frozenset[str]]) -> LPSolution:
        """``max min_B h(B)`` via the auxiliary variable ``t`` of Eq. (45).

        ``t`` and its ``t <= h(B)`` rows are ephemeral: they are stacked on
        the compiled region for this solve only, so a shared program can
        serve every selector of a ``subw`` computation in turn.
        """
        rows = [({"t": 1.0, entropy_variable_name(subset): -1.0}, 0.0)
                for subset in subsets]
        return self.program.resolve(
            objective={"t": 1.0}, maximize=True,
            extra_variables={"t": (None, None)}, extra_le=rows)

    def solution_polymatroid(self, solution: LPSolution) -> SetFunction:
        values = {}
        for subset in powerset(self.variables):
            if subset:
                values[subset] = solution.value(entropy_variable_name(subset))
        return SetFunction(self.variables, values)


#: Compiled ``Γ_n ∧ S`` regions keyed by (ground set, statistics fingerprint).
_REGION_CACHE = BoundedCache("region", 64)


def polymatroid_bound(query: ConjunctiveQuery | Iterable[str],
                      statistics: ConstraintSet) -> BoundResult:
    """The polymatroid bound of a CQ (or of a plain variable set).

    For a :class:`ConjunctiveQuery` the bound is on ``h(F)`` where ``F`` is
    the query's free-variable set; the ground set of the LP is the union of
    the query's variables and the statistics' variables, as in Theorem 4.1.
    Passing a bare variable set bounds ``h`` of that set — this is how bag
    sub-queries are costed in Eq. (21).
    """
    if isinstance(query, ConjunctiveQuery):
        target = query.free_variables
        variables = query.variables
    else:
        target = frozenset(query)
        variables = target
    if not target:
        # A Boolean query has output size at most 1: exponent 0.
        empty = SetFunction(variables | statistics.variables, {})
        return BoundResult(exponent=0.0, size_bound=1.0, polymatroid=empty,
                           lp_summary="boolean query: output size 1")
    builder = PolymatroidProgram.shared(variables, statistics)
    solution = builder.maximize_single(target)
    exponent = solution.objective
    return BoundResult(
        exponent=exponent,
        size_bound=statistics.size_from_exponent(exponent),
        polymatroid=builder.solution_polymatroid(solution),
        lp_summary=builder.program.describe(),
    )


def ddr_polymatroid_bound(targets: Sequence[Iterable[str]],
                          statistics: ConstraintSet,
                          variables: Iterable[str] = ()) -> BoundResult:
    """The polymatroid bound of a DDR with the given head targets (Theorem 5.1).

    ``targets`` is the list of bag variable sets in one bag selector; the
    bound is ``max_h min_B h(B)``.  Every selector of the same query re-solves
    the same shared ``Γ_n ∧ S`` region, appending only its min-target rows.
    """
    target_sets = [frozenset(target) for target in targets]
    if not target_sets:
        raise ValueError("a DDR needs at least one head target")
    ground = frozenset(variables) | frozenset().union(*target_sets)
    builder = PolymatroidProgram.shared(ground, statistics)
    solution = builder.maximize_min(target_sets)
    exponent = solution.objective
    return BoundResult(
        exponent=exponent,
        size_bound=statistics.size_from_exponent(exponent),
        polymatroid=builder.solution_polymatroid(solution),
        lp_summary=builder.program.describe(),
    )


def output_size_bound(query: ConjunctiveQuery, statistics: ConstraintSet) -> float:
    """Convenience wrapper: the worst-case output size bound in tuples."""
    return polymatroid_bound(query, statistics).size_bound
