"""The query-engine service layer (plan cache, prepared queries).

Public surface::

    from repro.engine import Engine

    engine = Engine(database)                    # owns the database
    prepared = engine.prepare(query)             # costed once, cached by shape
    result = prepared.execute()                  # runs the cached plan
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
from repro.engine.plan_cache import PlanCache, PlanRecipe

__all__ = [
    "Engine",
    "EngineStats",
    "PreparedQuery",
    "PlanCache",
    "PlanRecipe",
    "query_fingerprint",
    "statistics_fingerprint",
    "plan_fingerprint",
]
