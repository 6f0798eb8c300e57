"""The query-engine service layer (plan cache, prepared queries, sharding).

Public surface::

    from repro.engine import Engine

    engine = Engine(database, shards=4)          # owns the database
    prepared = engine.prepare(query)             # costed once, cached by shape
    result = prepared.execute()                  # partition-parallel when sharded
    batch = prepared.execute_many([db1, db2])    # one plan, many databases
    print(engine.stats.describe())               # plans reused, shards, caches

See :mod:`repro.engine.core` for the serving semantics,
:mod:`repro.engine.fingerprint` for the renaming-invariant plan-cache keys,
:mod:`repro.engine.parallel` for the partition-parallel execution model and
:mod:`repro.engine.cluster` for the fault-tolerant coordinator/worker
executor (retries, straggler re-dispatch, respawn, serial degradation).
"""

from repro.engine.cluster import ClusterConfig, ClusterCoordinator, run_shards
from repro.engine.core import Engine, EngineStats, PreparedQuery
from repro.engine.fingerprint import (
    plan_fingerprint,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.engine.parallel import (
    choose_partition_atom,
    merge_shard_results,
    run_partitioned,
    shard_databases,
)
from repro.engine.plan_cache import LruDict, PlanCache, PlanRecipe

__all__ = [
    "Engine",
    "EngineStats",
    "PreparedQuery",
    "ClusterConfig",
    "ClusterCoordinator",
    "run_shards",
    "LruDict",
    "PlanCache",
    "PlanRecipe",
    "query_fingerprint",
    "statistics_fingerprint",
    "plan_fingerprint",
    "choose_partition_atom",
    "shard_databases",
    "run_partitioned",
    "merge_shard_results",
]
