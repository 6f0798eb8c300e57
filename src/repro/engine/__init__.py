"""The query-engine service layer (plan cache, prepared queries).

Public surface::

    from repro.engine import Engine

    engine = Engine(database)                    # owns the database
    prepared = engine.prepare(query)             # costed once, cached by shape
    result = prepared.execute()                  # runs the cached plan
    batch = prepared.execute_many([db1, db2])    # one plan, many databases
    print(engine.stats.describe())               # plans reused, caches

See :mod:`repro.engine.core` for the serving semantics and
:mod:`repro.engine.fingerprint` for the renaming-invariant plan-cache keys.
"""

from repro.engine.core import Engine, EngineStats, PreparedQuery
from repro.engine.fingerprint import (
    plan_fingerprint,
    query_fingerprint,
    statistics_fingerprint,
)
from repro.engine.plan_cache import LruDict, PlanCache, PlanRecipe

__all__ = [
    "Engine",
    "EngineStats",
    "PreparedQuery",
    "LruDict",
    "PlanCache",
    "PlanRecipe",
    "query_fingerprint",
    "statistics_fingerprint",
    "plan_fingerprint",
]
