"""repro: an information-theoretic query optimization and evaluation library.

A faithful, pure-Python reproduction of the PANDA framework described in
"Query Optimization and Evaluation via Information Theory: A Tutorial"
(Abo Khamis, Ngo, Suciu — PODS 2026).  The library covers the full pipeline:

* **statistics** — degree constraints, functional dependencies, ℓp-norm
  constraints (:mod:`repro.stats`);
* **cost estimation** — the AGM and polymatroid output-size bounds for
  conjunctive queries and disjunctive datalog rules (:mod:`repro.bounds`),
  and the width measures built on them: fractional hypertree width,
  submodular width, ω-submodular width (:mod:`repro.widths`);
* **plan search** — Shannon-flow inequalities as exact dual certificates and
  their proof sequences (:mod:`repro.flows`);
* **plan execution** — the PANDA / PANDAExpress executor for disjunctive
  datalog rules and adaptive multi-decomposition plans (:mod:`repro.panda`),
  next to the classical algorithms it subsumes or is compared against:
  Yannakakis, worst-case optimal generic join, static tree-decomposition
  plans, binary join plans, semiring (FAQ) evaluation and FMM-based
  evaluation (:mod:`repro.algorithms`);
* **the optimizer** tying it together (:mod:`repro.optimizer`).

Quickstart::

    from repro import four_cycle_projected, plan
    from repro.paperdata import four_cycle_cardinality_statistics
    from repro.datagen import hard_four_cycle_instance

    query = four_cycle_projected()
    stats = four_cycle_cardinality_statistics(size=10_000)
    chosen = plan(query, stats)          # picks the adaptive PANDA plan
    print(chosen.explain())
    result = chosen.execute(hard_four_cycle_instance(200))
    print(len(result.answer), "answers")

Storage backend selection — relations live on a pluggable storage engine
(:mod:`repro.relational.storage`), and the engine a relation holds is the
only thing that selects its code path.  ``"set"`` (the default) is the
always-recompute semantics reference; ``"columnar"`` runs the vectorized
NumPy kernels over dictionary-encoded columns and memoizes their outputs
across evaluations (the right choice for anything but tiny data)::

    from repro import Database, Relation
    from repro.relational.storage import storage_stats

    edges = Relation("E", ("src", "dst"), [(1, 2), (2, 3)], backend="columnar")
    database = Database([edges], backend="columnar")   # pins every relation
    storage_stats()                    # process-wide build/hit counters
"""

from repro.query import (
    Atom,
    ConjunctiveQuery,
    cycle_query,
    four_cycle_boolean,
    four_cycle_full,
    four_cycle_projected,
    parse_query,
    triangle_query,
)
from repro.relational import (
    ColumnarBackend,
    Database,
    Relation,
    SetBackend,
    StorageBackend,
    get_default_backend,
)
from repro.stats import ConstraintSet, DegreeConstraint, LpNormConstraint, collect_statistics
from repro.bounds import agm_bound, ddr_polymatroid_bound, polymatroid_bound
from repro.widths import (
    fractional_hypertree_width,
    omega_submodular_width_four_cycle,
    submodular_width,
)
from repro.flows import construct_proof_sequence, find_shannon_flow
from repro.panda import evaluate_adaptive, evaluate_ddr
from repro.algorithms import (
    evaluate_bruteforce,
    evaluate_static_plan,
    evaluate_yannakakis,
    generic_join,
)
from repro.optimizer import PlanKind, estimate_costs, plan
from repro.engine import Engine, EngineStats, PreparedQuery

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "parse_query",
    "cycle_query",
    "triangle_query",
    "four_cycle_full",
    "four_cycle_projected",
    "four_cycle_boolean",
    "Relation",
    "Database",
    "StorageBackend",
    "SetBackend",
    "ColumnarBackend",
    "get_default_backend",
    "ConstraintSet",
    "DegreeConstraint",
    "LpNormConstraint",
    "collect_statistics",
    "agm_bound",
    "polymatroid_bound",
    "ddr_polymatroid_bound",
    "fractional_hypertree_width",
    "submodular_width",
    "omega_submodular_width_four_cycle",
    "find_shannon_flow",
    "construct_proof_sequence",
    "evaluate_ddr",
    "evaluate_adaptive",
    "evaluate_bruteforce",
    "evaluate_yannakakis",
    "evaluate_static_plan",
    "generic_join",
    "estimate_costs",
    "plan",
    "PlanKind",
    "Engine",
    "EngineStats",
    "PreparedQuery",
    "__version__",
]
