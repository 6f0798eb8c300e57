"""Fixture tests for the static plan verifier.

The corrupted-recipe classes here are the attack surface the verifier
guards: the engine rebuilds cached :class:`PlanRecipe` objects with
``validate=False``, so each corruption below would otherwise execute
silently and return wrong answers.  Every rejection must carry an actionable message — the assertion
style checks the *explanation*, not just the refusal.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.analysis import (
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
from repro.datagen import random_graph_database
from repro.engine import Engine, query_fingerprint
from repro.engine.plan_cache import PlanRecipe
from repro.flows import construct_proof_sequence, find_shannon_flow
from repro.flows.proof_sequence import ProofSequence
from repro.optimizer import PlanKind
from repro.query.library import (
    triangle_query,
    two_path_projected,
)
from repro.relational.semiring import (
    BUILTIN_SEMIRINGS,
    Semiring,
    top_k_min_plus_semiring,
)
from repro.stats import collect_statistics
from repro.utils.varsets import varset


def _canonical(query):
    digest, renaming = query_fingerprint(query)
    return digest, renaming


def _valid_triangle_recipe():
    query = triangle_query()
    digest, renaming = _canonical(query)
    bag = frozenset(renaming.values())
    return query, renaming, PlanRecipe(
        kind=PlanKind.STATIC_TD, reason="fixture",
        fhtw_width=1.5, subw_width=1.5,
        is_acyclic=False, is_free_connex=False,
        best_bags=(bag,), decomposition_bags=(),
        fingerprint=f"{digest}x0000")


def _problems(recipe, query, renaming):
    return verify_recipe(recipe, query=query, renaming=renaming)


# ---------------------------------------------------------------------------
# the healthy baseline
# ---------------------------------------------------------------------------

def test_valid_recipe_passes():
    query, renaming, recipe = _valid_triangle_recipe()
    assert _problems(recipe, query, renaming) == []


def test_assert_valid_raises_with_every_problem_listed():
    with pytest.raises(PlanVerificationError) as excinfo:
        assert_valid("fixture artifact", ["first problem", "second problem"])
    assert excinfo.value.what == "fixture artifact"
    assert excinfo.value.problems == ["first problem", "second problem"]
    assert "first problem" in str(excinfo.value)
    assert "second problem" in str(excinfo.value)


# ---------------------------------------------------------------------------
# corrupted-recipe classes (each one a distinct way wrong answers slip in)
# ---------------------------------------------------------------------------

def test_rejects_recipe_dropping_an_atom():
    # Class 1: bags that cover only two of the triangle's three atoms — the
    # third join constraint would silently vanish from the answer.
    query, renaming, recipe = _valid_triangle_recipe()
    v = sorted(renaming.values())
    corrupted = dataclasses.replace(
        recipe, best_bags=(frozenset({v[0], v[1]}), frozenset({v[1], v[2]})))
    (problem,) = _problems(corrupted, query, renaming)
    assert "covers no bag for atom" in problem
    assert "silently dropped" in problem


def test_rejects_cyclic_bags():
    # Class 2: a bag set violating the running-intersection property (the
    # 4-cycle's edge set is the canonical cyclic hypergraph) — no join tree,
    # no full-reducer semijoin order.
    from repro.query.library import four_cycle_projected

    query = four_cycle_projected()
    digest, renaming = _canonical(query)
    edge_bags = tuple(frozenset(renaming[v] for v in atom.varset)
                      for atom in query.atoms)
    recipe = PlanRecipe(
        kind=PlanKind.STATIC_TD, reason="fixture",
        fhtw_width=2.0, subw_width=1.5,
        is_acyclic=False, is_free_connex=False,
        best_bags=edge_bags, decomposition_bags=(),
        fingerprint=f"{digest}x0000")
    problems = _problems(recipe, query, renaming)
    assert any("not acyclic" in problem and "GYO" in problem
               for problem in problems)


def test_rejects_unknown_variables_in_bags():
    # Class 3: a recipe bound to the wrong query — its bags talk about
    # variables the query does not have.
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(
        recipe, best_bags=(recipe.best_bags[0] | {"z9"},))
    problems = _problems(corrupted, query, renaming)
    assert any("z9" in problem and "wrong query" in problem
               for problem in problems)


def test_rejects_static_recipe_without_bags():
    # Class 4: a static-TD decision with nothing to rebuild the plan from.
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, best_bags=())
    problems = _problems(corrupted, query, renaming)
    assert any("no best_bags" in problem for problem in problems)


def test_rejects_width_inversion():
    # Class 5: subw > fhtw beyond the slack — the widths cannot belong to
    # the same query, so the cached decision is untrustworthy.
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, subw_width=recipe.fhtw_width + 1.0)
    problems = _problems(corrupted, query, renaming)
    assert any("width inversion" in problem for problem in problems)
    # ... while LP noise within the slack stays legal (the PR 2 lesson:
    # epsilon, not raw comparison).
    noisy = dataclasses.replace(
        recipe, subw_width=recipe.fhtw_width + WIDTH_SLACK / 2)
    assert _problems(noisy, query, renaming) == []


def test_rejects_negative_widths():
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, fhtw_width=-2.0, subw_width=-2.0)
    problems = _problems(corrupted, query, renaming)
    assert any("negative width" in problem for problem in problems)


def test_rejects_yannakakis_recipe_for_cyclic_query():
    # Class 6: a Yannakakis decision whose own flags admit the query is not
    # free-connex acyclic — semijoin reduction would be unsound.
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, kind=PlanKind.YANNAKAKIS,
                                    best_bags=())
    problems = _problems(corrupted, query, renaming)
    assert any("unsound on cyclic queries" in problem for problem in problems)
    # Even with lying flags, the structural semijoin-order check catches it.
    lying = dataclasses.replace(corrupted, is_acyclic=True,
                                is_free_connex=True)
    problems = _problems(lying, query, renaming)
    assert any("no full-reducer semijoin order" in problem
               for problem in problems)


def test_rejects_yannakakis_recipe_violating_free_connexity():
    # Class 7: the 2-path with both endpoints free is acyclic but not
    # free-connex — Yannakakis would lose the O(N + OUT) bound.
    query = two_path_projected()
    digest, renaming = _canonical(query)
    recipe = PlanRecipe(
        kind=PlanKind.YANNAKAKIS, reason="fixture",
        fhtw_width=1.0, subw_width=1.0,
        is_acyclic=True, is_free_connex=True,
        best_bags=(), decomposition_bags=(),
        fingerprint=f"{digest}x0000")
    problems = _problems(recipe, query, renaming)
    assert any("not free-connex" in problem for problem in problems)


def test_rejects_adaptive_recipe_without_decompositions():
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, kind=PlanKind.ADAPTIVE_PANDA,
                                    best_bags=())
    problems = _problems(corrupted, query, renaming)
    assert any("no decomposition_bags" in problem for problem in problems)


def test_rejects_recipe_without_fingerprint():
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, fingerprint="")
    problems = _problems(corrupted, query, renaming)
    assert any("no fingerprint" in problem for problem in problems)


def test_rejects_unknown_plan_kind():
    query, renaming, recipe = _valid_triangle_recipe()
    corrupted = dataclasses.replace(recipe, kind="bogus-strategy")
    (problem,) = _problems(corrupted, query, renaming)
    assert "unknown plan kind" in problem


# ---------------------------------------------------------------------------
# bag-structure checks in isolation
# ---------------------------------------------------------------------------

def test_verify_bags_flags_empty_bag_sets():
    (problem,) = verify_bags([])
    assert "no bags" in problem
    problems = verify_bags([frozenset(), frozenset({"X"})])
    assert any("empty bag" in problem for problem in problems)


def test_verify_bags_checks_running_intersection_explicitly():
    # {X,Y}, {Y,Z}, {X,Z} is the cyclic triangle of pairs: GYO fails.
    problems = verify_bags([varset("XY"), varset("YZ"), varset("XZ")])
    assert any("not acyclic" in problem for problem in problems)
    # A path of bags sharing Y is fine.
    assert verify_bags([varset("XY"), varset("YZ")]) == []


def test_verify_semijoin_order_mirrors_gyo():
    assert verify_semijoin_order([varset("XY"), varset("YZ")]) == []
    (problem,) = verify_semijoin_order(
        [varset("XY"), varset("YZ"), varset("XZ")])
    assert "cyclic" in problem


# ---------------------------------------------------------------------------
# engine integration: verify-on-insert, counted
# ---------------------------------------------------------------------------

def test_engine_counts_verified_plans():
    query = triangle_query()
    database = random_graph_database(query, 30, 8, seed=11)
    statistics = collect_statistics(database, query, include_degrees=False)
    engine = Engine(database)
    engine.execute(query, statistics=statistics)
    assert engine.stats.plans_built == 1
    assert engine.stats.plans_verified == 1
    # Cache hits rebuild the already-verified recipe: no re-verification.
    engine.execute(query, statistics=statistics)
    assert engine.stats.plans_reused == 1
    assert engine.stats.plans_verified == 1
    assert "verified" in engine.stats.describe()
    assert engine.stats.as_dict()["plans_verified"] == 1


def test_engine_refuses_to_cache_a_corrupted_recipe(monkeypatch):
    query = triangle_query()
    database = random_graph_database(query, 30, 8, seed=11)
    statistics = collect_statistics(database, query, include_degrees=False)
    engine = Engine(database)
    original = engine._recipe_from_plan

    def corrupt(chosen, renaming):
        recipe = original(chosen, renaming)
        return dataclasses.replace(recipe, best_bags=(),
                                   decomposition_bags=())

    monkeypatch.setattr(engine, "_recipe_from_plan", corrupt)
    with pytest.raises(PlanVerificationError):
        engine.prepare(query, statistics=statistics)
    assert engine.stats.plans_verified == 0


def test_verify_plan_accepts_engine_built_plans():
    query = triangle_query()
    database = random_graph_database(query, 24, 7, seed=5)
    statistics = collect_statistics(database, query, include_degrees=False)
    prepared = Engine(database).prepare(query, statistics=statistics)
    assert verify_plan(prepared.plan) == []


# ---------------------------------------------------------------------------
# semiring <-> kernel capability
# ---------------------------------------------------------------------------

def test_builtin_scalar_semirings_are_kernel_compatible():
    for semiring in BUILTIN_SEMIRINGS:
        assert verify_semiring_kernel_compatibility(semiring) == []


def test_top_k_min_plus_routes_to_the_fallback_path():
    np = pytest.importorskip("numpy")  # noqa: F841 - kernels need numpy
    from repro.relational.kernels import kernel_supported_semirings

    top_k = top_k_min_plus_semiring(3)
    # Tuple-valued: must NOT be registered for vectorized kernels ...
    assert top_k.name not in kernel_supported_semirings()
    # ... and as long as it is not, the capability check is satisfied.
    assert verify_semiring_kernel_compatibility(top_k) == []


def test_tuple_valued_semiring_registered_for_kernels_is_rejected():
    np = pytest.importorskip("numpy")  # noqa: F841 - kernels need numpy
    # An (adversarial) semiring that *claims* a kernel-registered name but
    # carries tuple values: the reduction would compute garbage.
    imposter = Semiring(name="min-plus",
                        add=min, multiply=lambda a, b: a + b,
                        zero=(float("inf"),), one=(0.0,),
                        idempotent_add=True)
    (problem,) = verify_semiring_kernel_compatibility(imposter)
    assert "non-scalar" in problem
    assert "fallback" in problem


# ---------------------------------------------------------------------------
# Shannon-flow proof sequences
# ---------------------------------------------------------------------------

@pytest.fixture
def four_cycle_sequence(s_box):
    flow = find_shannon_flow([varset("XYZ"), varset("YZW")], s_box,
                             variables=varset("XYZW"))
    return construct_proof_sequence(flow.to_integral())


def test_valid_proof_sequence_verifies(four_cycle_sequence):
    assert four_cycle_sequence.steps  # the fixture is non-trivial
    assert verify_proof_sequence(four_cycle_sequence) == []


def test_rejects_sequence_with_missing_sources(four_cycle_sequence):
    starved = ProofSequence(initial_sources=Counter(),
                            targets=four_cycle_sequence.targets,
                            steps=four_cycle_sequence.steps)
    problems = verify_proof_sequence(starved)
    assert problems
    assert any("not applicable" in problem or "multiplicity" in problem
               for problem in problems)


def test_rejects_sequence_with_inflated_targets(four_cycle_sequence):
    greedy = ProofSequence(
        initial_sources=four_cycle_sequence.initial_sources,
        targets=Counter({varset("XYZW"): 99}),
        steps=four_cycle_sequence.steps)
    problems = verify_proof_sequence(greedy)
    assert any("multiplicity" in problem and "99" in problem
               for problem in problems)


def test_rejects_truncated_sequence(four_cycle_sequence):
    truncated = ProofSequence(
        initial_sources=four_cycle_sequence.initial_sources,
        targets=four_cycle_sequence.targets,
        steps=four_cycle_sequence.steps[:-1])
    problems = verify_proof_sequence(truncated)
    # Dropping the last step either starves a later target term or leaves
    # its multiplicity short — both must be reported.
    assert problems
