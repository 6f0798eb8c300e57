"""Shannon-flow inequalities as exact dual certificates (Section 6.2, Lemma 6.1).

The DDR bound ``max_{h |= S, Γn} min_B h(B)`` has a dual of the form

    min Σ w_{Y|X} · log_N N_{Y|X}
    s.t. Σ_B λ_B h(B)  <=  Σ w_{Y|X} h(Y|X)   for every polymatroid h,
         ‖λ‖₁ = 1, λ, w >= 0.

The universally-quantified constraint means that the difference
``Σ w h(Y|X) − Σ λ h(B)`` is a non-negative combination of the elemental
Shannon inequalities — the Farkas multipliers ``σ`` of that combination are
exactly the *identity form* (Eq. (63)) that Section 7 turns into a proof
sequence and Section 8 turns into the PANDA algorithm.

The solver here works in two phases:

1. solve the dual LP numerically (HiGHS) over variables ``(λ, w, σ)``;
2. reconstruct ``λ`` and ``w`` as small-denominator rationals and re-derive an
   exact ``σ`` with the exact simplex of :mod:`repro.lp.exact`, then verify
   the identity coefficient-by-coefficient.  That simplex pivots an integer
   tableau (numerators over a row denominator) and is handed the subset ×
   elemental incidence as plain ints, built once per call and shared with
   phase 1's σ block; its pivots are those of a ``Fraction`` tableau, so the
   certificate does not depend on the arithmetic.

The result is an exact certificate whose identity form feeds the
proof-sequence construction.

Both phases are deterministic in ``(targets, ground set, statistics)``, and
adaptive PANDA re-derives the same certificates on every evaluation of the
same query shape (one per bag selector, per run), so verified certificates
are memoized on exactly that key — the statistics participate through their
content fingerprint.  A hit skips the dual-LP row construction (and the
subset × elemental incidence it reads), the HiGHS solve *and* the exact
witness recovery; the ``flow_builds`` / ``flow_hits`` counters of
:func:`repro.lp.model.lp_cache_stats` make the reuse observable.  The dual
LP itself also benefits from the compiled sparse substrate and the memoized
elemental family.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.entropy.elemental import ElementalInequality, elemental_inequalities
from repro.flows.proof_steps import Term
from repro.lp.exact import ExactLPError, solve_min_with_inequalities
from repro.lp.model import BoundedCache, LinearProgram, lp_caching_enabled
from repro.stats.constraints import ConstraintSet, DegreeConstraint
from repro.utils.rationals import as_fraction, common_denominator
from repro.utils.varsets import format_varset, powerset


class ShannonFlowError(RuntimeError):
    """Raised when no exact Shannon-flow certificate can be constructed."""


@dataclass
class ShannonFlowInequality:
    """A rational Shannon-flow inequality with an exact Farkas witness.

    ``Σ_B targets[B]·h(B) <= Σ_c sources[c]·h(Y_c|X_c)`` holds for every
    polymatroid because the difference equals ``Σ_e witness[e]·e(h)`` with all
    ``witness`` multipliers non-negative.
    """

    targets: dict[frozenset[str], Fraction]
    sources: dict[DegreeConstraint, Fraction]
    witness: dict[ElementalInequality, Fraction]
    statistics: ConstraintSet

    # ------------------------------------------------------------ inspection
    @property
    def variables(self) -> frozenset[str]:
        result: set[str] = set()
        for target in self.targets:
            result.update(target)
        for constraint in self.sources:
            result.update(constraint.variables)
        return frozenset(result)

    def bound_exponent(self) -> Fraction:
        """``Σ w_{Y|X} log_N N_{Y|X}``: the exponent of the DDR size bound."""
        total = Fraction(0)
        for constraint, weight in self.sources.items():
            total += weight * as_fraction(self.statistics.exponent_of(constraint),
                                          max_denominator=10 ** 6)
        return total

    def size_bound(self) -> float:
        """``Π N_{Y|X}^{w}`` (Theorem 6.2)."""
        return self.statistics.size_from_exponent(float(self.bound_exponent()))

    def describe(self) -> str:
        left = " + ".join(f"{weight}·h{format_varset(target)}"
                          for target, weight in sorted(self.targets.items(),
                                                       key=lambda kv: sorted(kv[0])))
        right = " + ".join(f"{weight}·h({format_varset(c.target)}|{format_varset(c.given)})"
                           if c.given else f"{weight}·h{format_varset(c.target)}"
                           for c, weight in self.sources.items())
        return f"{left} <= {right}"

    # ----------------------------------------------------------- validation
    def identity_defect(self) -> dict[frozenset[str], Fraction]:
        """Per-subset defect of the identity; all zeros for a valid certificate."""
        defect: dict[frozenset[str], Fraction] = {}

        def bump(subset: frozenset[str], amount: Fraction) -> None:
            if not subset or amount == 0:
                return
            defect[subset] = defect.get(subset, Fraction(0)) + amount
            if defect[subset] == 0:
                del defect[subset]

        for constraint, weight in self.sources.items():
            union = constraint.target | constraint.given
            bump(union, weight)
            if constraint.given:
                bump(constraint.given, -weight)
        for inequality, weight in self.witness.items():
            for subset, coeff in inequality.coefficients:
                bump(subset, -weight * coeff)
        for target, weight in self.targets.items():
            bump(target, -weight)
        return defect

    def verify(self) -> bool:
        """Exact verification of the Farkas identity and sign conditions."""
        if any(weight < 0 for weight in self.targets.values()):
            return False
        if any(weight < 0 for weight in self.sources.values()):
            return False
        if any(weight < 0 for weight in self.witness.values()):
            return False
        if sum(self.targets.values(), Fraction(0)) != 1:
            return False
        return not self.identity_defect()

    # -------------------------------------------------------------- integral
    def to_integral(self) -> "IntegralShannonFlow":
        """Scale every coefficient by the least common denominator."""
        denominators = list(self.targets.values()) + list(self.sources.values()) \
            + list(self.witness.values())
        scale = common_denominator(denominators)
        targets = Counter()
        for target, weight in self.targets.items():
            count = int(weight * scale)
            if count:
                targets[target] += count
        sources: Counter = Counter()
        term_sources: dict[Term, list[tuple[DegreeConstraint, int]]] = {}
        for constraint, weight in self.sources.items():
            count = int(weight * scale)
            if count <= 0:
                continue
            term = Term(constraint.target, constraint.given)
            sources[term] += count
            term_sources.setdefault(term, []).append((constraint, count))
        witness: Counter = Counter()
        for inequality, weight in self.witness.items():
            count = int(weight * scale)
            if count:
                witness[inequality] += count
        return IntegralShannonFlow(targets=targets, sources=sources, witness=witness,
                                   denominator=scale, term_sources=term_sources,
                                   statistics=self.statistics)


@dataclass
class IntegralShannonFlow:
    """The integral form of a Shannon-flow inequality (Section 7).

    ``Σ_B targets[B]·h(B) <= Σ sources[t]·t(h)`` with integer multiplicities;
    ``denominator`` records the scaling from the rational certificate, so the
    size bound of the original inequality is recovered as
    ``N^{(Σ w·log_N N)/denominator}``.
    """

    targets: Counter
    sources: Counter
    witness: Counter
    denominator: int
    statistics: ConstraintSet
    term_sources: dict[Term, list[tuple[DegreeConstraint, int]]] = field(default_factory=dict)

    def identity_defect(self) -> dict[frozenset[str], int]:
        defect: dict[frozenset[str], int] = {}

        def bump(subset: frozenset[str], amount: int) -> None:
            if not subset or amount == 0:
                return
            defect[subset] = defect.get(subset, 0) + amount
            if defect[subset] == 0:
                del defect[subset]

        for term, count in self.sources.items():
            for subset, coeff in term.coefficients().items():
                bump(subset, coeff * count)
        for inequality, count in self.witness.items():
            for subset, coeff in inequality.coefficients:
                bump(subset, -coeff * count)
        for target, count in self.targets.items():
            bump(target, -count)
        return defect

    def verify(self) -> bool:
        if any(count < 0 for count in self.targets.values()):
            return False
        if any(count < 0 for count in self.sources.values()):
            return False
        if any(count < 0 for count in self.witness.values()):
            return False
        return not self.identity_defect()

    def total_target_multiplicity(self) -> int:
        return sum(self.targets.values())

    def bound_exponent(self) -> float:
        """The per-copy exponent: ``(Σ_c count_c · log_N N_c) / denominator``."""
        total = 0.0
        for term, pairs in self.term_sources.items():
            for constraint, count in pairs:
                total += count * self.statistics.exponent_of(constraint)
        return total / self.denominator

    def size_bound(self) -> float:
        return self.statistics.size_from_exponent(self.bound_exponent())

    def describe(self) -> str:
        left = " + ".join(f"{count}·h{format_varset(target)}"
                          for target, count in sorted(self.targets.items(),
                                                      key=lambda kv: sorted(kv[0])))
        right = " + ".join(f"{count}·{term}" for term, count in self.sources.items())
        return f"{left} <= {right}"


# ---------------------------------------------------------------------------
# solving for a flow
# ---------------------------------------------------------------------------

#: Verified certificates keyed by (sorted targets, ground set, statistics
#: fingerprint).  Hits return a fresh shell over the shared (immutable-in-
#: practice) coefficient dicts' copies, so callers can mutate their result.
_FLOW_CACHE = BoundedCache("flow", 64)


def _copy_flow(flow: ShannonFlowInequality,
               statistics: ConstraintSet) -> ShannonFlowInequality:
    return ShannonFlowInequality(targets=dict(flow.targets),
                                 sources=dict(flow.sources),
                                 witness=dict(flow.witness),
                                 statistics=statistics)


def find_shannon_flow(targets: Sequence[Iterable[str]],
                      statistics: ConstraintSet,
                      variables: Iterable[str] = ()) -> ShannonFlowInequality:
    """Find an optimal Shannon-flow inequality for a DDR's head targets.

    ``targets`` are the bag variable sets of one bag selector.  The returned
    certificate is exact (verified), and its bound exponent equals the DDR's
    polymatroid bound (Lemma 6.1 / strong duality).  Re-solving the same
    (targets, statistics) pair — as adaptive PANDA does on every run over the
    same query shape — returns a memoized verified certificate.

    Only degree constraints participate: the proof-sequence machinery of
    Section 7 (and hence the PANDA executor) is defined for degree
    constraints; ℓp-norm constraints are supported by the bound LPs but not by
    this certificate path.
    """
    target_sets = [frozenset(target) for target in targets]
    if not target_sets:
        raise ValueError("a Shannon flow needs at least one target")
    if statistics.lp_norm_constraints:
        raise ShannonFlowError(
            "Shannon-flow certificates are only implemented for degree constraints; "
            "drop the ℓp-norm constraints or use the bound LPs directly")
    constraints = list(statistics.degree_constraints)
    if not constraints:
        raise ShannonFlowError("the statistics contain no degree constraints")
    ground = frozenset(variables) | frozenset().union(*target_sets) | statistics.variables

    cache_key = None
    if lp_caching_enabled():
        cache_key = (tuple(sorted(tuple(sorted(target)) for target in target_sets)),
                     ground, statistics.fingerprint())
        cached = _FLOW_CACHE.lookup(cache_key)
        if cached is not None:
            return _copy_flow(cached, statistics)

    elementals = elemental_inequalities(ground)
    # The subset × elemental incidence as plain ints, built once: the σ block
    # of the dual LP and the exact witness's matrix both read it.
    incidence: dict[frozenset[str], list[tuple[int, int]]] = {
        subset: [] for subset in powerset(ground) if subset}
    for i, inequality in enumerate(elementals):
        for subset, coefficient in inequality.coefficients:
            incidence[subset].append((i, coefficient))

    program = LinearProgram("shannon-flow-dual")
    lam_names = [f"lam{i}" for i in range(len(target_sets))]
    w_names = [f"w{i}" for i in range(len(constraints))]
    sigma_names = [f"s{i}" for i in range(len(elementals))]
    for name in lam_names + w_names + sigma_names:
        program.add_variable(name, lower=0.0)

    # One identity row per non-empty subset of the ground set.
    for subset, entries in incidence.items():
        row: dict[str, float] = {}
        for i, constraint in enumerate(constraints):
            union = constraint.target | constraint.given
            coefficient = 0.0
            if subset == union:
                coefficient += 1.0
            if constraint.given and subset == constraint.given:
                coefficient -= 1.0
            if coefficient:
                row[w_names[i]] = row.get(w_names[i], 0.0) + coefficient
        for i, coefficient in entries:
            row[sigma_names[i]] = -float(coefficient)
        for i, target in enumerate(target_sets):
            if subset == target:
                row[lam_names[i]] = row.get(lam_names[i], 0.0) - 1.0
        if row:
            program.add_eq(row, 0.0)
    program.add_eq({name: 1.0 for name in lam_names}, 1.0)
    objective = {w_names[i]: statistics.exponent_of(constraints[i])
                 for i in range(len(constraints))}
    program.set_objective(objective, maximize=False)
    solution = program.solve()

    lam = {target_sets[i]: as_fraction(solution.value(lam_names[i]))
           for i in range(len(target_sets))
           if solution.value(lam_names[i]) > 1e-9}
    weights = {constraints[i]: as_fraction(solution.value(w_names[i]))
               for i in range(len(constraints))
               if solution.value(w_names[i]) > 1e-9}
    lam = _renormalize(lam)
    sigma = _exact_witness(lam, weights, incidence, elementals)
    flow = ShannonFlowInequality(targets=lam, sources=weights, witness=sigma,
                                 statistics=statistics)
    if not flow.verify():
        raise ShannonFlowError("failed to verify the reconstructed Shannon-flow certificate")
    if cache_key is not None:
        _FLOW_CACHE.store(cache_key, _copy_flow(flow, statistics))
    return flow


def _renormalize(lam: dict[frozenset[str], Fraction]) -> dict[frozenset[str], Fraction]:
    total = sum(lam.values(), Fraction(0))
    if total == 0:
        raise ShannonFlowError("the dual solution has no positive λ coefficients")
    if total == 1:
        return lam
    return {target: weight / total for target, weight in lam.items()}


def _exact_witness(lam: Mapping[frozenset[str], Fraction],
                   weights: Mapping[DegreeConstraint, Fraction],
                   incidence: Mapping[frozenset[str], Sequence[tuple[int, int]]],
                   elementals: Sequence[ElementalInequality]) -> dict[ElementalInequality, Fraction]:
    """Recover exact Farkas multipliers σ for given exact (λ, w).

    Solves the exact feasibility problem
    ``Σ_e σ_e · coeff_e(S) = Σ w·a(S) − Σ λ·[S = B]`` for all subsets ``S``
    with ``σ >= 0``, minimising ``Σ σ`` (any feasible point would do).
    ``incidence`` lists each subset's ``(elemental index, coefficient)``
    pairs; the exact solver gets those ints as its matrix.
    """
    required: dict[frozenset[str], Fraction] = {}

    def bump(subset: frozenset[str], amount: Fraction) -> None:
        if not subset or amount == 0:
            return
        required[subset] = required.get(subset, Fraction(0)) + amount
        if required[subset] == 0:
            del required[subset]

    for constraint, weight in weights.items():
        union = constraint.target | constraint.given
        bump(union, weight)
        if constraint.given:
            bump(constraint.given, -weight)
    for target, weight in lam.items():
        bump(target, -weight)

    matrix = []
    for entries in incidence.values():
        row = [0] * len(elementals)
        for i, coefficient in entries:
            row[i] = coefficient
        matrix.append(row)
    rhs = [required.get(subset, 0) for subset in incidence]
    costs = [1] * len(elementals)
    try:
        solution = solve_min_with_inequalities(costs, [], [], matrix, rhs)
    except ExactLPError as exc:
        raise ShannonFlowError(
            "could not recover an exact Farkas witness for the Shannon flow "
            f"(λ = {dict(lam)}, w = { {str(k): v for k, v in weights.items()} })"
        ) from exc
    return {elementals[i]: solution.values[i]
            for i in range(len(elementals)) if solution.values[i] != 0}


def shannon_flow_for_cq(free_variables: Iterable[str],
                        statistics: ConstraintSet,
                        variables: Iterable[str] = ()) -> ShannonFlowInequality:
    """The Shannon-flow certificate of a plain CQ bound (a single-target DDR)."""
    return find_shannon_flow([frozenset(free_variables)], statistics,
                             variables=variables)
