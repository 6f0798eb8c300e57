"""Tests for the engine service layer: plan cache and prepared queries.

The parity suite is the engine's core guarantee: for every query in the
library, under both storage backends, the freshly planned engine path, the
plan-cache hit path and the uncached per-call path all produce exactly the
brute-force answer — and the engine's metrics account for every execution.
"""

from __future__ import annotations

import threading

import pytest

from repro.algorithms import evaluate_bruteforce
from repro.datagen import hard_four_cycle_instance, random_graph_database
from repro.engine import (
    Engine,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.lp.model import LP_STATS, clear_lp_caches
from repro.optimizer import PlanKind, plan
from repro.query.cq import Atom, ConjunctiveQuery
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
from repro.relational import Relation, WorkCounter
from repro.relational.storage import STORAGE_STATS
from repro.stats import collect_statistics, statistics_for_query
from repro.telemetry import get_tracer


def _renamed_four_cycle() -> ConjunctiveQuery:
    """The paper's 4-cycle with every variable alpha-renamed."""
    return ConjunctiveQuery(
        [Atom("R", ("A", "B")), Atom("S", ("B", "C")),
         Atom("T", ("C", "D")), Atom("U", ("D", "A"))],
        free_variables=("A", "B"), name="Q_renamed")


# ---------------------------------------------------------------------------
# canonicalization and fingerprints
# ---------------------------------------------------------------------------

def test_canonicalize_is_renaming_invariant(four_cycle):
    canonical, renaming = four_cycle.canonicalize()
    renamed_canonical, _ = _renamed_four_cycle().canonicalize()
    assert canonical == renamed_canonical
    assert set(renaming) == set(four_cycle.variables)
    assert sorted(renaming.values()) == sorted(f"v{i}" for i in range(4))


def test_canonicalize_is_atom_order_invariant(four_cycle):
    shuffled = ConjunctiveQuery(tuple(reversed(four_cycle.atoms)),
                                free_variables=four_cycle.free_variables)
    assert shuffled.canonicalize()[0] == four_cycle.canonicalize()[0]


def test_query_fingerprint_separates_structures(four_cycle):
    digest, _ = query_fingerprint(four_cycle)
    renamed_digest, _ = query_fingerprint(_renamed_four_cycle())
    assert digest == renamed_digest
    assert digest != query_fingerprint(four_cycle_full())[0]  # free vars differ
    assert digest != query_fingerprint(triangle_query())[0]


def test_statistics_fingerprint_follows_the_renaming(four_cycle, s_box):
    _, renaming = query_fingerprint(four_cycle)
    renamed_query = _renamed_four_cycle()
    _, renamed_renaming = query_fingerprint(renamed_query)
    renamed_stats = statistics_for_query(renamed_query, 1000)
    assert (statistics_fingerprint(s_box, renaming)
            == statistics_fingerprint(renamed_stats, renamed_renaming))
    bigger = statistics_for_query(renamed_query, 2000)
    assert (statistics_fingerprint(s_box, renaming)
            != statistics_fingerprint(bigger, renamed_renaming))


# ---------------------------------------------------------------------------
# plan cache semantics
# ---------------------------------------------------------------------------

def test_plan_cache_hit_on_repeated_prepare(four_cycle, s_box):
    engine = Engine(hard_four_cycle_instance(20))
    first = engine.prepare(four_cycle, statistics=s_box)
    second = engine.prepare(four_cycle, statistics=s_box)
    assert engine.plan_cache.cache_stats() == {
        "plan_builds": 1, "plan_hits": 1, "plan_evictions": 0, "plan_entries": 1}
    assert first.plan.kind is second.plan.kind is PlanKind.ADAPTIVE_PANDA
    assert first.plan.fingerprint == second.plan.fingerprint
    assert second.plan.estimate is None  # served from the cache
    assert "plan cache" in second.plan.explain()


def test_plan_cache_reuses_across_variable_renamings(s_box):
    database = hard_four_cycle_instance(30)
    engine = Engine(database)
    engine.prepare(four_cycle_projected(), statistics=s_box)
    renamed = _renamed_four_cycle()
    prepared = engine.prepare(renamed,
                              statistics=statistics_for_query(renamed, 1000))
    assert engine.stats.plans_built == 1
    assert engine.stats.plans_reused == 1
    result = prepared.execute()
    assert result.answer.rows == evaluate_bruteforce(renamed, database).rows


def test_plan_cache_lru_eviction():
    queries = [triangle_query(), two_path_projected(),
               path_query(3, free_variables=("X1", "X4"))]
    database = random_graph_database(queries[0], 20, 6, seed=5)
    for query in queries[1:]:
        for relation in random_graph_database(query, 20, 6, seed=5).relations():
            if relation.name not in database:
                database.add(relation)
    engine = Engine(database, plan_cache_size=2)
    for query in queries:
        engine.prepare(query, statistics=statistics_for_query(query, 1000))
    stats = engine.plan_cache.cache_stats()
    assert stats["plan_entries"] == 2
    assert stats["plan_evictions"] == 1
    # The evicted (least recently used) plan is rebuilt on the next request.
    engine.prepare(queries[0], statistics=statistics_for_query(queries[0], 1000))
    assert engine.plan_cache.cache_stats()["plan_builds"] == 4


def test_prepared_query_invalidates_on_database_revision(four_cycle):
    database = hard_four_cycle_instance(20)
    engine = Engine(database)
    prepared = engine.prepare(four_cycle)  # statistics measured on the data
    before = prepared.execute()
    assert before.answer.rows == evaluate_bruteforce(four_cycle, database).rows
    # Replace one relation: revision bumps, measured statistics are stale.
    grown = Relation("R", ("a", "b"),
                     list(database["R"].rows) + [(99, 98), (98, 97)])
    database.add(grown)
    after = prepared.execute()
    assert engine.stats.invalidations >= 1
    assert engine.stats.statistics_measured >= 2
    assert after.answer.rows == evaluate_bruteforce(four_cycle, database).rows


def test_measured_statistics_memoized_until_revision_changes(four_cycle):
    database = hard_four_cycle_instance(20)
    engine = Engine(database)
    first = engine.measured_statistics(four_cycle)
    assert engine.measured_statistics(four_cycle) is first
    assert engine.stats.statistics_measured == 1
    assert engine.stats.statistics_reused == 1
    database.add(database["R"].copy())
    assert engine.measured_statistics(four_cycle) is not first


# ---------------------------------------------------------------------------
# satellite: preparing a query costs it exactly once
# ---------------------------------------------------------------------------

def test_plan_rejects_an_estimate_for_a_different_query(four_cycle, s_box):
    from repro.optimizer import estimate_costs, plan

    triangle = triangle_query()
    foreign = estimate_costs(triangle, statistics_for_query(triangle, 1000))
    # A foreign estimate would execute a foreign decomposition (with
    # validation skipped) and silently return wrong rows — refuse it.
    with pytest.raises(ValueError, match="costed for"):
        plan(four_cycle, s_box, estimate=foreign)


def test_prepare_costs_the_query_exactly_once(four_cycle, monkeypatch):
    import repro.engine.core as engine_core
    import repro.optimizer.planner as planner_module

    calls = []
    real = engine_core.estimate_costs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_core, "estimate_costs", counting)
    monkeypatch.setattr(planner_module, "estimate_costs", counting)
    database = hard_four_cycle_instance(20)
    statistics = collect_statistics(database, four_cycle, include_degrees=False)
    prepared = Engine(database).prepare(four_cycle, statistics=statistics)
    chosen, result = prepared.plan, prepared.execute()
    assert len(calls) == 1
    assert chosen.kind is PlanKind.ADAPTIVE_PANDA
    assert chosen.decompositions  # the runner reuses the estimate's TDs
    assert result.answer.rows == evaluate_bruteforce(four_cycle, database).rows


def test_concurrent_misses_on_one_key_build_the_plan_once(four_cycle, s_box,
                                                          monkeypatch):
    """A thread that misses the plan cache while another thread builds the
    same plan waits for that build and reuses it instead of building twice.

    The first thread is held inside the cost estimate until the second has
    missed the cache, so the two misses always overlap."""
    import repro.engine.core as engine_core
    from repro.engine.plan_cache import PlanCache

    building = threading.Event()
    second_missed = threading.Event()
    real_estimate = engine_core.estimate_costs
    real_get = PlanCache.get

    def held_estimate(*args, **kwargs):
        if threading.current_thread().name == "first":
            building.set()
            second_missed.wait(timeout=60)
        return real_estimate(*args, **kwargs)

    def watched_get(self, key):
        recipe = real_get(self, key)
        if recipe is None and threading.current_thread().name == "second":
            second_missed.set()
        return recipe

    monkeypatch.setattr(engine_core, "estimate_costs", held_estimate)
    monkeypatch.setattr(PlanCache, "get", watched_get)
    engine = Engine(hard_four_cycle_instance(20))
    plans = {}
    traces = {}

    def prepare():
        name = threading.current_thread().name
        with get_tracer().span("test.prepare") as root:
            traces[name] = root.trace_id
            plans[name] = engine.prepare(four_cycle, statistics=s_box).plan

    first = threading.Thread(target=prepare, name="first")
    second = threading.Thread(target=prepare, name="second")
    first.start()
    assert building.wait(timeout=60)
    second.start()
    first.join()
    second.join()
    assert second_missed.is_set()
    assert engine.stats.plans_built == 1
    assert engine.stats.plans_reused == 1
    # Each thread's trace records its wait for the plan lock, and whether
    # it reused the plan built while it waited.
    waits = {name: [span["attrs"]["hit"]
                    for span in get_tracer().export_trace(trace)["spans"]
                    if span["name"] == "engine.plan_wait"]
             for name, trace in traces.items()}
    assert waits == {"first": [False], "second": [True]}
    assert plans["first"].fingerprint == plans["second"].fingerprint


# ---------------------------------------------------------------------------
# parity: library x backends x fresh / cached / uncached
# ---------------------------------------------------------------------------

LIBRARY_CASES = [
    ("triangle", triangle_query(), 40, 9),
    ("four-cycle-projected", four_cycle_projected(), 30, 8),
    ("four-cycle-full", four_cycle_full(), 30, 8),
    ("four-cycle-boolean", four_cycle_boolean(), 30, 8),
    # cycle_query(5)'s adaptive plan unions 3^5 bag selectors — correct but
    # far too slow for CI; the 3-cycle exercises the same factory cheaply.
    ("three-cycle", cycle_query(3), 30, 8),
    ("path-3", path_query(3, free_variables=("X1", "X4")), 40, 10),
    ("two-path-projected", two_path_projected(), 40, 10),
    ("star-3", star_query(3), 40, 8),
    ("clique-4", clique_query(4), 24, 7),
    ("loomis-whitney-3", loomis_whitney_query(3), 24, 6),
    ("bowtie", bowtie_query(free_variables=("X",)), 24, 7),
    # Both atoms read one relation: answers pair tuples of the same table.
    ("self-join", ConjunctiveQuery([Atom("R", ("X", "Y")),
                                    Atom("R", ("Y", "Z"))]), 30, 6),
]


@pytest.mark.parametrize("backend", ["set", "columnar"])
@pytest.mark.parametrize(
    "query,size,domain",
    [case[1:] for case in LIBRARY_CASES],
    ids=[case[0] for case in LIBRARY_CASES])
def test_engine_parity_across_paths(query, size, domain, backend):
    database = random_graph_database(query, size, domain, seed=17,
                                     backend=backend)
    statistics = collect_statistics(database, query, include_degrees=False)
    expected = evaluate_bruteforce(query, database)

    engine = Engine(database)
    fresh = engine.execute(query, statistics=statistics)
    cached = engine.execute(query, statistics=statistics)
    uncached = plan(query, statistics).execute(database)

    for label, result in [("fresh", fresh), ("cached", cached),
                          ("uncached", uncached)]:
        assert result.answer.rows == expected.rows, f"{label} path diverged"
        assert result.answer.columns == fresh.answer.columns

    stats = engine.stats
    assert stats.executions == 2
    assert stats.plans_built == 1
    assert stats.plans_reused == 1
    assert stats.wall_time_seconds > 0


def test_engine_repeated_execute_reuses_plans(four_cycle):
    engine = Engine(hard_four_cycle_instance(20, backend="columnar"))
    clear_lp_caches()
    storage_before = STORAGE_STATS.snapshot()
    lp_before = LP_STATS.snapshot()
    results = [engine.execute(four_cycle) for _ in range(3)]
    assert engine.stats.plans_built == 1
    assert engine.stats.plans_reused == 2
    assert len({frozenset(result.answer.rows) for result in results}) == 1
    # Serving moved the storage and LP layers' own counters.
    storage = STORAGE_STATS.delta(storage_before)
    assert any(event.endswith("_hits") and count > 0
               for event, count in storage.items())
    assert any(event.endswith("_builds") for event in LP_STATS.delta(lp_before))


# ---------------------------------------------------------------------------
# satellite: thread-safe work counters
# ---------------------------------------------------------------------------

def test_work_counter_is_thread_safe_under_contention():
    counter = WorkCounter()
    relation = Relation("R", ("a",), [(i,) for i in range(7)])
    rounds, workers = 400, 8

    def hammer():
        for _ in range(rounds):
            counter.record(relation)
            counter.tally(3, 2)

    threads = [threading.Thread(target=hammer) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.materializations == workers * rounds * 2
    assert counter.intermediate_tuples == workers * rounds * (len(relation) + 3)
    assert counter.max_intermediate == len(relation)


def test_work_counter_merge_is_thread_safe():
    source = WorkCounter(intermediate_tuples=5, max_intermediate=5,
                         materializations=1)
    target = WorkCounter()
    threads = [threading.Thread(target=target.merge, args=(source,))
               for _ in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert target.intermediate_tuples == 80
    assert target.materializations == 16
    assert target.max_intermediate == 5
