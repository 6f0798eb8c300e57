"""The static plan verifier: artifacts are proven well-formed before they run.

The paper's guarantees are conditional: Yannakakis is ``O(N + OUT)`` *if* the
query really is free-connex acyclic, a static TD plan is bounded by the fhtw
witness *if* its bags satisfy the running-intersection property and cover
every atom, PANDA's proof sequence bounds intermediates *if* every step is a
legal polymatroid rewrite, and the vectorized kernels compute the right
⊕-aggregates *if* the semiring's values fit the registered array reductions.
The runtime re-checks none of this — plans are rebuilt from cached
:class:`~repro.engine.plan_cache.PlanRecipe` objects with ``validate=False``
— so a corrupted or poisoned recipe would execute silently and return wrong
answers.

This module is the gate.  Every checker returns a list of *problems* (plain
actionable strings); empty means verified.  :func:`assert_valid` converts
problems into a :class:`PlanVerificationError`.  The engine verifies every
recipe before it enters the plan cache (``Engine._resolve_plan``, counted by
``EngineStats.plans_verified``), so every later cache hit rebuilds a
verified decision.

Checks implemented here:

* **running intersection** — the bags admit a join tree in which, for every
  variable, the bags containing it form a connected subtree (checked
  explicitly on the GYO-produced tree, not assumed from it);
* **atom/variable coverage** — every query atom fits inside some bag, and
  bags use only the query's variables;
* **free-variable safety** — the free variables stay projectable: bags plus
  an atom over the free variables remain acyclic (free-connex);
* **semijoin-order validity** — an acyclic structure admits a full-reducer
  semijoin order, i.e. GYO reduction succeeds (Yannakakis' precondition);
* **width sanity** — cached widths satisfy ``subw ≤ fhtw + ε`` with an
  explicit slack, never a raw float comparison (the PR 2 lesson);
* **semiring ↔ kernel capability** — a semiring registered for vectorized
  kernels must carry scalar values; tuple-valued semirings (top-k min-plus)
  must fall back to the reference path;
* **proof-step well-formedness** — every Shannon-flow proof step is a legal
  rewrite applied to terms that exist, and the replayed sequence produces
  every target term.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.flows.proof_sequence import ProofSequence
from repro.flows.proof_steps import (
    ProofStepError,
    Term,
    step_is_value_preserving,
)
from repro.optimizer.planner import PlanKind, QueryPlan
from repro.query.cq import ConjunctiveQuery
from repro.query.hypergraph import JoinTree, gyo_reduction, is_free_connex
from repro.utils.varsets import format_varset

#: Slack for comparing LP-derived widths.  The LP solver's objective carries
#: ~1e-9 error (see :data:`repro.panda.executor.TRUNCATION_SLACK` for the bug
#: this convention comes from), so width consistency is checked with an
#: explicit epsilon, never with raw ``<=``.
WIDTH_SLACK = 1e-6


class PlanVerificationError(ValueError):
    """A plan artifact failed static verification; ``problems`` lists why."""

    def __init__(self, what: str, problems: Sequence[str]) -> None:
        self.what = what
        self.problems = list(problems)
        details = "\n".join(f"  - {problem}" for problem in self.problems)
        super().__init__(f"{what} failed static verification:\n{details}")


def assert_valid(what: str, problems: Sequence[str]) -> None:
    """Raise :class:`PlanVerificationError` when ``problems`` is non-empty."""
    if problems:
        raise PlanVerificationError(what, problems)


# ---------------------------------------------------------------------------
# bag-structure checks
# ---------------------------------------------------------------------------

def _connected_under(tree: JoinTree, members: list[int]) -> bool:
    """True when ``members`` induce a connected subtree of ``tree``."""
    if len(members) <= 1:
        return True
    member_set = set(members)
    adjacency: dict[int, list[int]] = {index: [] for index in members}
    for child, parent in tree.edges():
        if child in member_set and parent in member_set:
            adjacency[child].append(parent)
            adjacency[parent].append(child)
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(members)


def verify_bags(bags: Sequence[Iterable[str]],
                query_atoms: Sequence[tuple[str, frozenset[str]]] = (),
                free_variables: Iterable[str] | None = None,
                variables: frozenset[str] | None = None,
                label: str = "decomposition") -> list[str]:
    """Structural verification of one bag set (one tree decomposition).

    ``query_atoms`` are ``(relation, varset)`` pairs to check coverage
    against; ``variables`` bounds the allowed variable universe;
    ``free_variables`` triggers the free-connex (free-variable safety)
    check.  All in the *same* name space as the bags — callers translate.
    """
    problems: list[str] = []
    bag_sets = [frozenset(bag) for bag in bags]
    if not bag_sets:
        return [f"{label} has no bags: a plan cannot execute an empty "
                "decomposition — rebuild the recipe from a fresh estimate"]
    for bag in bag_sets:
        if not bag:
            problems.append(f"{label} contains an empty bag — drop it or "
                            "rebuild the recipe")
    bag_sets = [bag for bag in bag_sets if bag]
    if variables is not None:
        for bag in bag_sets:
            unknown = bag - variables
            if unknown:
                problems.append(
                    f"{label} bag {format_varset(bag)} uses variables "
                    f"{format_varset(frozenset(unknown))} that do not occur "
                    "in the query — the recipe was bound to the wrong query")
    for relation, varset in query_atoms:
        if not any(varset <= bag for bag in bag_sets):
            problems.append(
                f"{label} covers no bag for atom {relation}"
                f"{format_varset(varset)} — its join constraint would be "
                "silently dropped; add a bag containing "
                f"{format_varset(varset)}")
    tree = gyo_reduction(bag_sets)
    if tree is None:
        problems.append(
            f"{label} bags are not acyclic (GYO reduction fails), so no "
            "semijoin full-reducer order exists — the bags do not form a "
            "valid tree decomposition")
    else:
        # Re-check the running-intersection property explicitly on the
        # produced tree instead of trusting the reduction.
        for variable in sorted({v for bag in bag_sets for v in bag}):
            members = [index for index, node in enumerate(tree.nodes)
                       if variable in node]
            if not _connected_under(tree, members):
                problems.append(
                    f"{label} violates the running-intersection property for "
                    f"variable {variable}: the bags containing it do not "
                    "form a connected subtree — joins may equate unrelated "
                    "occurrences")
    if free_variables is not None:
        free = frozenset(free_variables)
        if free and tree is not None and \
                not is_free_connex(bag_sets, free):
            problems.append(
                f"{label} is not free-connex for free variables "
                f"{format_varset(free)}: projecting after the join loses the "
                "O(N + OUT) guarantee — enumerate a free-connex "
                "decomposition instead")
    return problems


def verify_semijoin_order(bags: Sequence[Iterable[str]]) -> list[str]:
    """A full-reducer semijoin order exists iff GYO reduction succeeds."""
    bag_sets = [frozenset(bag) for bag in bags if frozenset(bag)]
    if not bag_sets:
        return ["no bags: nothing to order"]
    if gyo_reduction(bag_sets) is None:
        return ["no full-reducer semijoin order exists: the hypergraph is "
                "cyclic, so Yannakakis-style semijoin reduction is unsound"]
    return []


# ---------------------------------------------------------------------------
# recipe and plan verification
# ---------------------------------------------------------------------------

def _canonical_atoms(query: ConjunctiveQuery,
                     renaming: Mapping[str, str]) -> list[tuple[str, frozenset[str]]]:
    return [(atom.relation, frozenset(renaming[v] for v in atom.varset))
            for atom in query.atoms]


def verify_recipe(recipe, query: ConjunctiveQuery | None = None,
                  renaming: Mapping[str, str] | None = None) -> list[str]:
    """Verify a :class:`~repro.engine.plan_cache.PlanRecipe` before caching.

    ``query``/``renaming`` (the canonical renaming from
    :func:`repro.engine.fingerprint.query_fingerprint`) enable the coverage
    and free-variable checks; without them only the self-contained structure
    is verified.  Returns problems; empty means the recipe may enter the
    plan cache.
    """
    problems: list[str] = []
    if not isinstance(recipe.kind, PlanKind):
        return [f"unknown plan kind {recipe.kind!r}: expected one of "
                f"{[kind.value for kind in PlanKind]}"]
    if not isinstance(recipe.fingerprint, str) or not recipe.fingerprint:
        problems.append("recipe has no fingerprint: cache entries without an "
                        "identity cannot be invalidated or audited")
    fhtw, subw = recipe.fhtw_width, recipe.subw_width
    for name, width in (("fhtw", fhtw), ("subw", subw)):
        if not isinstance(width, (int, float)):
            problems.append(f"{name} width {width!r} is not a number")
    if isinstance(fhtw, (int, float)) and isinstance(subw, (int, float)) \
            and not (math.isnan(fhtw) or math.isnan(subw)):
        if subw > fhtw + WIDTH_SLACK:
            problems.append(
                f"width inversion: subw = {subw:.6g} exceeds fhtw = "
                f"{fhtw:.6g} beyond the {WIDTH_SLACK:g} slack, but the "
                "submodular width never exceeds the fractional hypertree "
                "width — the widths were computed for different queries")
        if min(fhtw, subw) < -WIDTH_SLACK:
            problems.append(
                f"negative width (fhtw = {fhtw:.6g}, subw = {subw:.6g}): "
                "LP width objectives are non-negative")

    canonical_atoms: list[tuple[str, frozenset[str]]] = []
    canonical_free: frozenset[str] | None = None
    canonical_vars: frozenset[str] | None = None
    if query is not None:
        if renaming is None:
            _, renaming = query.canonicalize()
        canonical_atoms = _canonical_atoms(query, renaming)
        canonical_free = frozenset(renaming[v] for v in query.free_variables)
        canonical_vars = frozenset(renaming.values())

    if recipe.kind is PlanKind.STATIC_TD:
        if not recipe.best_bags:
            problems.append(
                "static-TD recipe has no best_bags: the plan cannot be "
                "rebuilt — cache it with the winning decomposition's bags")
        else:
            problems.extend(verify_bags(
                recipe.best_bags, canonical_atoms,
                free_variables=canonical_free, variables=canonical_vars,
                label="static decomposition"))
    elif recipe.kind is PlanKind.ADAPTIVE_PANDA:
        if not recipe.decomposition_bags:
            problems.append(
                "adaptive recipe has no decomposition_bags: adaptive PANDA "
                "unions over free-connex decompositions and cannot run "
                "without them")
        for index, bags in enumerate(recipe.decomposition_bags):
            problems.extend(verify_bags(
                bags, canonical_atoms,
                free_variables=canonical_free, variables=canonical_vars,
                label=f"adaptive decomposition #{index}"))
    elif recipe.kind is PlanKind.YANNAKAKIS:
        if not (recipe.is_acyclic and recipe.is_free_connex):
            problems.append(
                "Yannakakis recipe for a query not flagged free-connex "
                "acyclic: semijoin reduction is unsound on cyclic queries — "
                "re-plan as static-TD or adaptive")
        if query is not None:
            problems.extend(verify_semijoin_order(
                [varset for _, varset in canonical_atoms]))
            if canonical_free and not is_free_connex(
                    [varset for _, varset in canonical_atoms], canonical_free):
                problems.append(
                    "query is acyclic but not free-connex for its free "
                    f"variables {format_varset(canonical_free)}: Yannakakis "
                    "loses the O(N + OUT) bound — plan a free-connex "
                    "decomposition instead")
    return problems


def verify_plan(plan: QueryPlan) -> list[str]:
    """Verify an executable plan in its own (original) variable space."""
    query = plan.query
    atoms = [(atom.relation, atom.varset) for atom in query.atoms]
    problems: list[str] = []
    if plan.kind is PlanKind.STATIC_TD:
        if plan.decomposition is None:
            problems.append("static-TD plan carries no decomposition")
        else:
            problems.extend(verify_bags(
                plan.decomposition.bags, atoms,
                free_variables=query.free_variables,
                variables=query.variables, label="static decomposition"))
    elif plan.kind is PlanKind.ADAPTIVE_PANDA:
        for index, decomposition in enumerate(plan.decompositions):
            problems.extend(verify_bags(
                decomposition.bags, atoms,
                free_variables=query.free_variables,
                variables=query.variables,
                label=f"adaptive decomposition #{index}"))
    elif plan.kind is PlanKind.YANNAKAKIS:
        problems.extend(verify_semijoin_order(
            [varset for _, varset in atoms]))
        if query.free_variables and not is_free_connex(
                [varset for _, varset in atoms], query.free_variables):
            problems.append(
                "Yannakakis plan for a non-free-connex projection: the "
                "semijoin order cannot make the projection linear")
    return problems


# ---------------------------------------------------------------------------
# semiring ↔ kernel capability compatibility
# ---------------------------------------------------------------------------

def verify_semiring_kernel_compatibility(semiring) -> list[str]:
    """A kernel-registered semiring must carry scalar (array-able) values.

    The vectorized kernels reduce annotation *arrays*; a semiring whose
    values are tuples or objects (top-k min-plus keeps the k best costs as a
    sorted tuple) cannot be expressed as an ``np.minimum.reduceat``-style
    reduction and must take the reference Python path.  A spec registered
    for such a semiring would silently compute element-wise garbage.
    """
    from repro.relational.kernels import kernel_supported_semirings

    problems: list[str] = []
    scalar = all(isinstance(value, (bool, int, float))
                 for value in (semiring.zero, semiring.one))
    if semiring.name in kernel_supported_semirings() and not scalar:
        problems.append(
            f"semiring {semiring.name!r} carries non-scalar values "
            f"(zero={semiring.zero!r}, one={semiring.one!r}) but is "
            "registered for vectorized kernels — tuple-valued semirings "
            "must route to the reference fallback path")
    return problems


# ---------------------------------------------------------------------------
# Shannon-flow proof-step well-formedness
# ---------------------------------------------------------------------------

def verify_proof_sequence(sequence: ProofSequence) -> list[str]:
    """Every step must be a legal rewrite on terms that exist, and the
    replayed sequence must produce every target term.

    A malformed step is exactly how PANDA's measure-table interpretation
    goes wrong: a step consuming a term that is not present corresponds to
    partitioning a table that was never materialised.
    """
    problems: list[str] = []
    terms = Counter(sequence.initial_sources)
    for index, step in enumerate(sequence.steps):
        consumed = step.consumed()
        produced = step.produced()
        # Value direction: decomposition/composition preserve the coefficient
        # sum exactly; monotonicity/submodularity may only lose value.  A
        # step whose produced terms cover *more* than it consumed would
        # manufacture entropy out of nothing.
        delta: Counter = Counter()
        for term in consumed:
            for subset, coeff in term.coefficients().items():
                delta[subset] -= coeff
        for term in produced:
            for subset, coeff in term.coefficients().items():
                delta[subset] += coeff
        if step_is_value_preserving(step) and any(delta.values()):
            problems.append(
                f"step {index + 1} ({step}) claims to preserve value but "
                "changes the coefficient identity — decomposition and "
                "composition must rewrite h-terms exactly")
        try:
            step.apply(terms)
        except ProofStepError as error:
            problems.append(
                f"step {index + 1} is not applicable: {error} — earlier "
                "steps never produced the consumed term")
            return problems
    for target, count in sequence.targets.items():
        have = terms[Term(target)]
        if have < count:
            problems.append(
                f"replayed sequence produces h{format_varset(target)} with "
                f"multiplicity {have} < required {count}: the proof does "
                "not establish its Shannon-flow inequality")
    return problems
