"""Adaptive (multi-tree-decomposition) CQ evaluation — the full PANDA pipeline.

Rules (28)–(29) of the paper: an adaptive plan computes, for every bag ``B``
of every free-connex tree decomposition, a relation ``Q_B`` such that every
body tuple is covered by *all* bags of *some* decomposition; the answer is
then the union, over the decompositions, of the acyclic join of their bags.

The evaluator proceeds selector by selector: every bag selector gives a DDR
(Section 5.1) which is evaluated with the PANDA executor; the per-bag outputs
are unioned across selectors, semijoin-reduced against the input atoms they
cover, and finally each decomposition's bags are joined with the Yannakakis
algorithm and projected onto the free variables.

The evaluator works for set-semantics CQ evaluation and for idempotent
aggregate semantics; it deliberately refuses non-idempotent semirings (e.g.
counting), which is the Section 9.1 caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algorithms.yannakakis import yannakakis_over_relations
from repro.ddr.rule import DisjunctiveDatalogRule, bag_selectors
from repro.decompositions.enumerate import enumerate_tree_decompositions
from repro.decompositions.treedecomp import TreeDecomposition
from repro.lp.model import LP_STATS
from repro.panda.executor import PandaReport, evaluate_ddr
from repro.query.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.relation import Relation
from repro.stats.collect import collect_statistics
from repro.stats.constraints import ConstraintSet
from repro.utils.varsets import format_varset


@dataclass
class AdaptiveReport:
    """Execution trace of an adaptive PANDA plan."""

    decompositions: list[TreeDecomposition]
    ddr_reports: list[PandaReport] = field(default_factory=list)
    bag_sizes: dict[frozenset[str], int] = field(default_factory=dict)
    counter: WorkCounter = field(default_factory=WorkCounter)
    #: LP-layer cache events (flow/region/elemental builds and hits) that
    #: occurred during this evaluation — nonzero ``flow_hits`` means the run
    #: reused memoized Shannon-flow certificates instead of re-deriving them.
    lp_cache_events: dict[str, int] = field(default_factory=dict)

    @property
    def max_bag_size(self) -> int:
        return max(self.bag_sizes.values(), default=0)

    @property
    def max_intermediate(self) -> int:
        table_max = max((report.max_table_size for report in self.ddr_reports), default=0)
        return max(table_max, self.max_bag_size, self.counter.max_intermediate)

    @property
    def subw_exponent(self) -> float:
        return max((report.bound_exponent for report in self.ddr_reports), default=0.0)

    def describe(self) -> str:
        lines = [f"adaptive PANDA plan over {len(self.decompositions)} decompositions, "
                 f"{len(self.ddr_reports)} DDRs (subw exponent {self.subw_exponent:.4g})"]
        for bag, size in sorted(self.bag_sizes.items(), key=lambda kv: sorted(kv[0])):
            lines.append(f"  bag {format_varset(bag)}: {size} tuples")
        lines.append(f"  max intermediate: {self.max_intermediate} tuples")
        if self.lp_cache_events:
            events = ", ".join(f"{key}={value}" for key, value
                               in sorted(self.lp_cache_events.items()))
            lines.append(f"  lp caches: {events}")
        return "\n".join(lines)


def evaluate_adaptive(query: ConjunctiveQuery, database: Database,
                      statistics: ConstraintSet | None = None,
                      decompositions: Sequence[TreeDecomposition] | None = None,
                      max_variables: int = 9,
                      counter: WorkCounter | None = None) -> tuple[Relation, AdaptiveReport]:
    """Evaluate a CQ with the adaptive (multi-TD) PANDA plan.

    ``statistics`` defaults to the cardinality constraints measured on the
    database (one per atom); richer statistics (degree constraints, FDs) yield
    tighter bounds and finer partitioning.  Pass ``decompositions`` (e.g. the
    ones a cost estimate already enumerated) to skip re-enumerating them, and
    ``counter`` to have the report account work directly into the caller's
    counter instead of a private one.
    """
    if statistics is None:
        statistics = collect_statistics(database, query, include_degrees=False)
    if decompositions is None:
        decompositions = enumerate_tree_decompositions(query, max_variables=max_variables)
    decompositions = list(decompositions)
    if not decompositions:
        raise ValueError("the query admits no free-connex tree decomposition")
    report = AdaptiveReport(decompositions=decompositions)
    if counter is not None:
        report.counter = counter

    # A guaranteed-empty query needs no proof steps: any empty atom makes the
    # body unsatisfiable, so return the empty answer without running a DDR.
    if any(len(relation) == 0 for relation in database.bind_query(query)):
        report.bag_sizes = {bag: 0 for decomposition in decompositions
                            for bag in decomposition.bags}
        return Relation(query.name, tuple(sorted(query.free_variables)), []), report

    before = LP_STATS.snapshot()
    bag_relations = _evaluate_all_ddrs(query, database, statistics, decompositions, report)
    report.lp_cache_events = LP_STATS.delta(before)
    _semijoin_reduce_bags(query, database, bag_relations, report)
    report.bag_sizes = {bag: len(rel) for bag, rel in bag_relations.items()}

    answer = _combine_decompositions(query, decompositions, bag_relations, report)
    return answer, report


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

def _evaluate_all_ddrs(query: ConjunctiveQuery, database: Database,
                       statistics: ConstraintSet,
                       decompositions: Sequence[TreeDecomposition],
                       report: AdaptiveReport) -> dict[frozenset[str], Relation]:
    """Evaluate every bag-selector DDR and union the per-bag outputs."""
    bag_relations: dict[frozenset[str], Relation] = {}
    for decomposition in decompositions:
        for bag in decomposition.bags:
            bag_relations.setdefault(
                bag, Relation(f"Q{format_varset(bag)}", tuple(sorted(bag)), []))
    for selector in bag_selectors(decompositions):
        report.counter.check()
        ddr = DisjunctiveDatalogRule(query, selector)
        heads, ddr_report = evaluate_ddr(ddr, database, statistics)
        report.ddr_reports.append(ddr_report)
        for bag, relation in heads.items():
            if bag in bag_relations:
                bag_relations[bag] = bag_relations[bag].union(
                    relation.project(bag_relations[bag].columns),
                    name=bag_relations[bag].name)
            else:
                bag_relations[bag] = relation
    return bag_relations


def _semijoin_reduce_bags(query: ConjunctiveQuery, database: Database,
                          bag_relations: dict[frozenset[str], Relation],
                          report: AdaptiveReport) -> None:
    """Filter each bag relation with every input atom it covers (junk removal).

    PANDA's measure supports can contain combinations that satisfy only the
    atoms used along their composition chain; semijoining with every atom
    whose variables lie inside the bag restores the invariant
    ``Q_B ⊆ ⋈ of the atoms inside B`` that the final per-TD join relies on.
    """
    bound = list(zip(query.atoms, database.bind_query(query)))
    for bag, relation in bag_relations.items():
        report.counter.check()
        reduced = relation
        for atom, filter_relation in bound:
            if atom.varset <= bag:
                reduced = reduced.semijoin(filter_relation)
        bag_relations[bag] = reduced
        report.counter.record(reduced, note=f"semijoin-reduced bag {format_varset(bag)}")


def _combine_decompositions(query: ConjunctiveQuery,
                            decompositions: Sequence[TreeDecomposition],
                            bag_relations: dict[frozenset[str], Relation],
                            report: AdaptiveReport) -> Relation:
    """Rule (29): union, over the decompositions, of the acyclic joins of their bags."""
    free = sorted(query.free_variables)
    answer = Relation(query.name, tuple(free), [])
    saw_result = False
    for decomposition in decompositions:
        relations = [bag_relations[bag] for bag in decomposition.bags]
        partial = yannakakis_over_relations(relations, query.free_variables,
                                            counter=report.counter,
                                            name=f"{query.name}_{decomposition}")
        if query.is_boolean:
            saw_result = saw_result or len(partial) > 0
        else:
            answer = answer.union(partial.project(answer.columns), name=query.name)
    if query.is_boolean:
        return Relation(query.name, (), [()] if saw_result else [])
    return answer
