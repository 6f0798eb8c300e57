"""The in-memory relational engine substrate.

Relations are facades over pluggable storage backends (``"set"`` is the
semantics reference, ``"columnar"`` runs the vectorized kernels); see
:mod:`repro.relational.storage`.
"""

from repro.relational.kernels import (
    KERNEL_STATS,
    kernel_ready,
    kernel_stats,
)
from repro.relational.storage import (
    ANNOTATED_BACKENDS,
    BACKENDS,
    AnnotatedBackend,
    ColumnarAnnotatedBackend,
    ColumnarBackend,
    DictAnnotatedBackend,
    SetBackend,
    StorageBackend,
    get_default_backend,
    resolve_annotated_backend,
)
from repro.relational.relation import Relation
from repro.relational.database import Database, database_from_edges
from repro.relational.operators import WorkCounter, join_all
from repro.relational.semiring import (
    BOOLEAN_SEMIRING,
    BUILTIN_SEMIRINGS,
    COUNTING_SEMIRING,
    MAX_MIN_SEMIRING,
    MAX_TIMES_SEMIRING,
    MIN_PLUS_SEMIRING,
    AnnotatedRelation,
    Semiring,
    top_k_min_plus_semiring,
)

__all__ = [
    "StorageBackend",
    "SetBackend",
    "ColumnarBackend",
    "BACKENDS",
    "AnnotatedBackend",
    "DictAnnotatedBackend",
    "ColumnarAnnotatedBackend",
    "ANNOTATED_BACKENDS",
    "resolve_annotated_backend",
    "get_default_backend",
    "kernel_ready",
    "kernel_stats",
    "KERNEL_STATS",
    "Relation",
    "Database",
    "database_from_edges",
    "WorkCounter",
    "join_all",
    "Semiring",
    "AnnotatedRelation",
    "BOOLEAN_SEMIRING",
    "COUNTING_SEMIRING",
    "MIN_PLUS_SEMIRING",
    "MAX_MIN_SEMIRING",
    "MAX_TIMES_SEMIRING",
    "BUILTIN_SEMIRINGS",
    "top_k_min_plus_semiring",
]
