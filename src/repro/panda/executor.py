"""The PANDA / PANDAExpress executor for disjunctive datalog rules (Section 8).

Given a DDR, statistics and a database, the executor

1. finds an optimal Shannon-flow inequality for the DDR (Section 6.2),
2. converts it to integral form and builds a proof sequence (Section 7.1),
3. initialises one sub-probability measure table per source term from the
   guard relations of the statistics (Table 2, left-to-right), and
4. replays the proof steps on the measure tables, truncating every composition
   at the ``1/B`` threshold, where ``B = N^{bound exponent}`` is the DDR's
   worst-case size bound.

The supports of the final target-term tables form a model of the DDR whose
relations each have at most ``≈ B`` tuples.  Eager truncation replaces the
paper's Reset-lemma bookkeeping; it is sound because of a potential argument,
not the seed's (wrong) "later steps only multiply by factors ≤ 1" story —
marginal steps *sum* weights, so an individual tuple's weight alone says
nothing.  The correct invariant: every measure weight is ≤ 1, and for every
body tuple ``t`` the potential ``Φ(t) = Σ over live terms of
-log w_term(π_term(t))`` starts at ``≤ log B`` (that is what the Shannon-flow
objective certifies about the source initialisations) and never increases —
decomposition splits ``-log w`` into ``-log w_marg - log w_cond`` exactly,
composition adds the two back, submodularity keeps the data, and
monotonicity replaces a weight by a marginal *sum* that contains it.  Since
every summand of ``Φ(t)`` is nonnegative, each individual one is at most
``log B``: a body tuple's projection carries weight ``≥ 1/B`` in *every*
live table, at *every* step, so truncating strictly below the true ``1/B``
only ever removes junk.  The delicate part is "strictly below the true
``1/B``" — see :data:`TRUNCATION_SLACK`.

On a columnar database, every measure table stays encoded from
initialisation to the heads (see :mod:`repro.panda.measures`): the steps, the
atom filters and the truncation run as NumPy kernels over the guard
relations' own code tables, and each head comes out as an encoded columnar
relation.  The ``dict`` backend replays the same steps with the
tuple-at-a-time reference algebra, as does any step whose kernel declines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ddr.rule import DisjunctiveDatalogRule
from repro.flows.proof_sequence import ProofSequence, construct_proof_sequence
from repro.flows.proof_steps import (
    CompositionStep,
    DecompositionStep,
    MonotonicityStep,
    SubmodularityStep,
    Term,
)
from repro.flows.shannon_flow import (
    IntegralShannonFlow,
    ShannonFlowInequality,
    find_shannon_flow,
)
from repro.panda.measures import ConditionalMeasure, UnconditionalMeasure, compose
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.stats.constraints import (
    ConstraintSet,
    DegreeConstraint,
    guarding_atoms,
)
from repro.telemetry.trace import get_tracer
from repro.utils.varsets import format_varset


class PandaExecutionError(RuntimeError):
    """Raised when the PANDA executor cannot process a DDR."""


@dataclass
class _Entry:
    """One live term of the inequality together with its measure table."""

    term: Term
    measure: UnconditionalMeasure | ConditionalMeasure


@dataclass
class PandaReport:
    """Execution trace of one DDR evaluation."""

    flow: ShannonFlowInequality
    integral: IntegralShannonFlow
    sequence: ProofSequence
    bound_exponent: float
    size_bound: float
    threshold: float
    head_sizes: dict[frozenset[str], int] = field(default_factory=dict)
    max_table_size: int = 0
    step_log: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"PANDA execution (bound N^{self.bound_exponent:.4g} = "
                 f"{self.size_bound:.6g}, threshold {self.threshold:.3g})"]
        lines.append(f"  shannon flow: {self.flow.describe()}")
        lines.append(f"  proof steps: {len(self.sequence)}")
        for bag, size in self.head_sizes.items():
            lines.append(f"  head {format_varset(bag)}: {size} tuples")
        lines.append(f"  largest measure table: {self.max_table_size} tuples")
        return "\n".join(lines)


#: Relative slack between the computed ``1/size_bound`` and the truncation
#: threshold actually applied.  Soundness requires the threshold to sit
#: *strictly below* the true ``1/B``: every body tuple's projection carries
#: weight ``>= 1/B`` in every live measure table (see the module docstring),
#: but that inequality is attained exactly — e.g. a body tuple guarded only by
#: a cardinality-7 source term ends with weight exactly ``1/7``.  The bound
#: exponent comes out of a floating-point LP whose objective can undershoot
#: the exact optimum by ~1e-9, which makes ``size_bound`` undershoot ``B``
#: and ``1/size_bound`` overshoot the true ``1/B`` — so a hair of slack
#: (the seed used ``1e-9``) is not enough, and answers were silently dropped.
#: ``1e-6`` dominates both the LP error and the float rounding of the weight
#: products themselves, while loosening the size guarantee only by the
#: negligible factor ``1/(1 - 1e-6)``.
TRUNCATION_SLACK = 1e-6


def _safe_threshold(size_bound: float) -> float:
    """The eager-truncation threshold for a given worst-case size bound."""
    return (1.0 / size_bound) * (1.0 - TRUNCATION_SLACK) if size_bound > 0 else 0.0


def evaluate_ddr(ddr: DisjunctiveDatalogRule, database: Database,
                 statistics: ConstraintSet) -> tuple[dict[frozenset[str], Relation], PandaReport]:
    """Evaluate a DDR with PANDA; returns ``{target: relation}`` plus a report."""
    flow = find_shannon_flow(ddr.targets, statistics, variables=ddr.variables)
    integral = flow.to_integral()
    sequence = construct_proof_sequence(integral)
    bound_exponent = float(flow.bound_exponent())
    size_bound = statistics.size_from_exponent(bound_exponent)
    threshold = _safe_threshold(size_bound)

    entries = _initial_entries(ddr.query, database, statistics, integral)
    filters = [database.bind_atom(atom) for atom in ddr.query.atoms]
    report = PandaReport(flow=flow, integral=integral, sequence=sequence,
                         bound_exponent=bound_exponent, size_bound=size_bound,
                         threshold=threshold)
    _record_sizes(entries, report)

    # One span covers the whole proof replay: a span per step costs more
    # than the cheap steps themselves on warm plans (proofs run to dozens
    # of steps), and the step-by-step trajectory is already recorded on
    # ``report.step_log`` for anyone debugging a single proof.
    with get_tracer().span("panda.proof",
                           {"steps": len(sequence.steps)}) as span:
        for step in sequence.steps:
            _apply_step(step, entries, threshold, report, filters)
            _record_sizes(entries, report)
        span.set("live_terms", len(entries))

    heads = _collect_heads(ddr, entries, threshold)
    report.head_sizes = {bag: len(rel) for bag, rel in heads.items()}
    return heads, report


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------

def _initial_entries(query: ConjunctiveQuery, database: Database,
                     statistics: ConstraintSet,
                     integral: IntegralShannonFlow) -> list[_Entry]:
    entries: list[_Entry] = []
    for term, pairs in integral.term_sources.items():
        for constraint, count in pairs:
            relation = _guard_relation(query, database, constraint)
            for _ in range(count):
                entries.append(_Entry(term=term,
                                      measure=_initial_measure(relation, constraint)))
    return entries


def _guard_relation(query: ConjunctiveQuery, database: Database,
                    constraint: DegreeConstraint) -> Relation:
    """The relation (with atom-variable columns) that guards a constraint."""
    candidates = guarding_atoms(query, constraint)
    if not candidates:
        raise PandaExecutionError(
            f"no atom of {query.name} guards the constraint {constraint}")
    return database.bind_atom(candidates[0])


def _initial_measure(relation: Relation,
                     constraint: DegreeConstraint) -> UnconditionalMeasure | ConditionalMeasure:
    if constraint.is_cardinality:
        return UnconditionalMeasure.uniform_from_relation(
            relation, constraint.target, denominator=constraint.bound)
    return ConditionalMeasure.per_group_uniform(relation, constraint.target,
                                                constraint.given)


# ---------------------------------------------------------------------------
# step application
# ---------------------------------------------------------------------------

def _apply_step(step, entries: list[_Entry], threshold: float,
                report: PandaReport, filters: list[Relation]) -> None:
    if isinstance(step, DecompositionStep):
        _apply_decomposition(step, entries)
    elif isinstance(step, SubmodularityStep):
        _apply_submodularity(step, entries)
    elif isinstance(step, CompositionStep):
        _apply_composition(step, entries, threshold, filters)
    elif isinstance(step, MonotonicityStep):
        _apply_monotonicity(step, entries)
    else:  # pragma: no cover - defensive
        raise PandaExecutionError(f"unsupported proof step: {step}")
    report.step_log.append(step.describe())


def _take_entry(entries: list[_Entry], term: Term) -> _Entry:
    for index, entry in enumerate(entries):
        if entry.term == term:
            return entries.pop(index)
    raise PandaExecutionError(f"no measure table available for term {term}")


def _apply_decomposition(step: DecompositionStep, entries: list[_Entry]) -> None:
    entry = _take_entry(entries, Term(step.whole))
    measure = entry.measure
    if not isinstance(measure, UnconditionalMeasure):
        raise PandaExecutionError("decomposition needs an unconditional measure")
    if not step.part:
        entries.append(entry)
        return
    marginal = measure.marginal(step.part)
    conditional = measure.conditional_on(step.part)
    entries.append(_Entry(term=Term(step.part), measure=marginal))
    entries.append(_Entry(term=Term(step.whole - step.part, step.part),
                          measure=conditional))


def _apply_submodularity(step: SubmodularityStep, entries: list[_Entry]) -> None:
    entry = _take_entry(entries, Term(step.target, step.given))
    measure = entry.measure
    if isinstance(measure, UnconditionalMeasure):
        # h(Y) → h(Y|Z): the measure stays the same and simply ignores Z; the
        # sorted view is served by the measure backend's memoized index.
        measure = ConditionalMeasure.from_unconditional(measure)
    entries.append(_Entry(term=Term(step.target, step.given | step.extra),
                          measure=measure))


def _apply_composition(step: CompositionStep, entries: list[_Entry],
                       threshold: float, filters: list[Relation]) -> None:
    marginal_entry = _take_entry(entries, Term(step.given))
    conditional_entry = _take_entry(entries, Term(step.target, step.given))
    marginal = marginal_entry.measure
    conditional = conditional_entry.measure
    if not isinstance(marginal, UnconditionalMeasure):
        raise PandaExecutionError("composition needs an unconditional left operand")
    if not isinstance(conditional, ConditionalMeasure):
        raise PandaExecutionError("composition needs a conditional right operand")
    combined = compose(marginal, conditional, threshold)
    combined = _filter_with_atoms(combined, filters)
    entries.append(_Entry(term=Term(step.given | step.target), measure=combined))


def _filter_with_atoms(measure: UnconditionalMeasure,
                       filters: list[Relation]) -> UnconditionalMeasure:
    """Semijoin a composed measure's support with every atom it covers.

    Compositions can pair marginals that originate from different relations,
    which may introduce combinations that satisfy neither; dropping tuples
    that are inconsistent with an input atom never removes a body tuple's
    projection (a body tuple satisfies every atom), never increases any
    measure, and keeps the executed partitioning aligned with the paper's
    Table 2 narrative (light tuples stay in the light part).
    """
    column_set = set(measure.variables)
    relevant = [relation for relation in filters
                if set(relation.columns) <= column_set and relation.columns]
    if not relevant:
        return measure
    return measure.semijoin(relevant)


def _apply_monotonicity(step: MonotonicityStep, entries: list[_Entry]) -> None:
    entry = _take_entry(entries, Term(step.whole))
    measure = entry.measure
    if not isinstance(measure, UnconditionalMeasure):
        raise PandaExecutionError("monotonicity needs an unconditional measure")
    if not step.smaller:
        return
    entries.append(_Entry(term=Term(step.smaller), measure=measure.marginal(step.smaller)))


# ---------------------------------------------------------------------------
# output collection
# ---------------------------------------------------------------------------

def _collect_heads(ddr: DisjunctiveDatalogRule, entries: list[_Entry],
                   threshold: float) -> dict[frozenset[str], Relation]:
    heads: dict[frozenset[str], Relation] = {}
    for target in ddr.targets:
        columns = tuple(sorted(target))
        heads[target] = Relation(f"Q{format_varset(target)}", columns, [])
    for entry in entries:
        if not entry.term.is_unconditional:
            continue
        target = entry.term.target
        if target not in heads:
            continue
        measure = entry.measure
        if not isinstance(measure, UnconditionalMeasure):  # pragma: no cover
            continue
        truncated = measure.truncate(threshold)
        support = truncated.support_relation(f"Q{format_varset(target)}")
        heads[target] = heads[target].union(
            support.project(heads[target].columns), name=heads[target].name)
    return heads


def _record_sizes(entries: list[_Entry], report: PandaReport) -> None:
    for entry in entries:
        report.max_table_size = max(report.max_table_size, len(entry.measure))
