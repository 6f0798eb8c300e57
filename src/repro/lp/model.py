"""A compile-once / solve-many linear-programming kernel over HiGHS.

Every information-theoretic computation in the library — polymatroid bounds,
fractional hypertree width, submodular width, Shannon-flow duals, fractional
edge covers — is a linear program.  This module gives them a single, named
interface: variables and constraints are referenced by name, and the solution
is returned as a dictionary, which keeps the call sites close to the paper's
notation (variables named ``h{X,Y}``, ``λ_B``, ``w_{Y|X}`` and so on).

:meth:`LinearProgram.compile` lowers the name-keyed rows once per structural
revision (a new variable or constraint invalidates the lowering, a new
objective does not), dropping duplicate rows, to a :class:`LoweredModel`:
the arrays HiGHS takes.  A solve then builds only a cost vector;
``resolve``'s ephemeral extra columns and ``<=`` rows (``max min_B h(B)``'s
``t`` and ``t <= h(B)``) go into copies of the arrays, so a shared region is
never mutated.  Each program memoizes its optima per (objective, extras):
HiGHS is deterministic.

Every solve is one call of :func:`linprog`, which runs a fresh HiGHS from the
bindings scipy ships (``scipy.optimize._highspy._core``).  It hands HiGHS
exactly the model scipy's ``linprog(method="highs")`` would — columns base
then extra; rows base ``<=``, extra ``<=``, then ``=``; CSC; the same
options — so it lands on the same vertex, and it keeps that wrapper's input
and post-solve checks.

Every compile, compiled solve, region build/hit and dropped duplicate row
bumps a process-wide counter in :func:`lp_cache_stats`, which the caches in
:mod:`repro.bounds`, :mod:`repro.entropy` and :mod:`repro.flows` share, next
to the LP work counts ``highs_iterations``, ``exact_solves`` and
``exact_pivots``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Mapping, Sequence

import numpy as np
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsModelStatus,
    HighsOptions,
    HighsStatus,
    MatrixFormat,
    _Highs,
    kHighsInf,
)

from repro.telemetry.metrics import get_registry
from repro.utils.lru import LruDict


class InfeasibleProgramError(RuntimeError):
    """Raised when an LP has no feasible solution."""


class UnboundedProgramError(RuntimeError):
    """Raised when an LP is unbounded in the optimisation direction."""


# ---------------------------------------------------------------------------
# process-wide cache bookkeeping (shared by the LP-adjacent caches)
# ---------------------------------------------------------------------------

#: The LP layer's counters, sampled as ``lp.<key>`` by the metrics registry.
LP_STATS = get_registry().table("lp")
_CACHE_CLEARERS: list[Callable[[], None]] = []


def lp_cache_stats() -> dict[str, int]:
    """Build/hit counters for every LP-layer cache (compiled matrices,
    polymatroid regions, elemental-inequality memo, Shannon-flow certificates,
    edge-cover programs, deduplicated rows), plus the LP work counts:
    ``highs_iterations`` (simplex iterations over every HiGHS solve) and the
    exact simplex's ``exact_solves`` and ``exact_pivots``."""
    return LP_STATS.snapshot()


def register_lp_cache(clear: Callable[[], None]) -> None:
    """Register a cache-clearing callback with :func:`clear_lp_caches`.

    The region/elemental/flow caches live in their own modules; registering
    here lets one call drop every LP-layer cache without import cycles.
    """
    _CACHE_CLEARERS.append(clear)


def clear_lp_caches() -> None:
    """Drop every registered LP-layer cache (compiled programs stay with
    their owning :class:`LinearProgram`; shared caches are emptied)."""
    for clear in _CACHE_CLEARERS:
        clear()


class BoundedCache:
    """A small LRU memo wired into the shared LP cache bookkeeping.

    Lookups and stores count ``{prefix}_hits`` / ``{prefix}_builds`` in
    :func:`lp_cache_stats`, and the cache registers itself with
    :func:`clear_lp_caches`.  The region, elemental-inequality, Shannon-flow
    and edge-cover caches are all instances; the entries live in a locked
    :class:`~repro.utils.lru.LruDict`, because the service plans on several
    worker threads at once.
    """

    def __init__(self, event_prefix: str, capacity: int) -> None:
        self._entries = LruDict(capacity)
        self._prefix = event_prefix
        register_lp_cache(self._entries.clear)

    def lookup(self, key: Hashable) -> Any | None:
        """The memoized value (counting a hit) or ``None``."""
        value = self._entries.get(key)
        if value is not None:
            LP_STATS.add(f"{self._prefix}_hits")
        return value

    def store(self, key: Hashable, value: Any) -> Any:
        """Memoize ``value`` (counting a build), evicting least-recently-used."""
        LP_STATS.add(f"{self._prefix}_builds")
        self._entries.put(key, value)
        return value


# ---------------------------------------------------------------------------
# the HiGHS call
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoweredModel:
    """A constraint system in the arrays HiGHS takes: ``indptr``/``indices``/
    ``data`` are the CSC form of ``[A_ub; A_eq]``, whose first ``num_le`` rows
    are ``<=`` rows bounded by ``(-inf, row_upper)`` and the rest equalities
    with ``row_lower == row_upper``; column bounds use ``±inf`` for none."""

    col_lower: np.ndarray
    col_upper: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    num_le: int

    def with_rows(self, bounds: Sequence[tuple[float | None, float | None]],
                  le_rows: Sequence[tuple[tuple[int, float], ...]], b_ub: Sequence[float],
                  eq_rows: Sequence[tuple[tuple[int, float], ...]] = (),
                  b_eq: Sequence[float] = ()) -> "LoweredModel":
        """A copy with columns of ``bounds`` appended (``None`` is ``∓inf``),
        the ``(column, value)`` rows ``le_rows`` placed after the ``<=`` rows
        and ``eq_rows`` after the equalities: the order in which scipy's
        ``linprog`` stacks base and extra rows."""
        pairs = np.array(bounds, dtype=float).reshape(-1, 2)  # None reads as NaN
        pairs = np.where(np.isnan(pairs), (-kHighsInf, kHighsInf), pairs)
        width = self.col_lower.size + len(pairs)
        added = len(b_ub)
        entries = [(start + row, column, value)
                   for start, block in ((self.num_le, le_rows),
                                        (self.row_upper.size + added, eq_rows))
                   for row, coefficients in enumerate(block)
                   for column, value in coefficients]
        new_rows, new_columns, new_data = np.array(entries, dtype=float).reshape(-1, 3).T
        rows = np.concatenate([self.indices + np.where(self.indices >= self.num_le, added, 0),
                               new_rows]).astype(np.int32)
        columns = np.concatenate([np.repeat(np.arange(self.col_lower.size), np.diff(self.indptr)),
                                  new_columns]).astype(np.int32)
        order = np.lexsort((rows, columns))
        indptr = np.zeros(width + 1, dtype=np.int32)
        np.cumsum(np.bincount(columns, minlength=width), out=indptr[1:])
        b_eq = np.array(b_eq, dtype=float)
        return LoweredModel(
            np.concatenate([self.col_lower, pairs[:, 0]]),
            np.concatenate([self.col_upper, pairs[:, 1]]),
            indptr, rows[order], np.concatenate([self.data, new_data])[order],
            np.concatenate([self.row_lower[:self.num_le], np.full(added, -kHighsInf),
                            self.row_lower[self.num_le:], b_eq]),
            np.concatenate([self.row_upper[:self.num_le], np.array(b_ub, dtype=float),
                            self.row_upper[self.num_le:], b_eq]),
            self.num_le + added)


_EMPTY = LoweredModel(np.zeros(0), np.zeros(0), np.zeros(1, dtype=np.int32),
                      np.zeros(0, dtype=np.int32), np.zeros(0), np.zeros(0), np.zeros(0), 0)

# The options scipy's ``linprog(method="highs")`` sets: presolve on, the dual
# simplex, no debug checks and no output.
_OPTIONS = HighsOptions()
_OPTIONS.presolve, _OPTIONS.simplex_strategy, _OPTIONS.highs_debug_level = "on", 1, 0
_OPTIONS.output_flag = _OPTIONS.log_to_console = False
#: scipy's post-solve feasibility tolerance: sqrt(tol)·10 at its default 1e-9.
_RESULT_TOLERANCE = np.sqrt(1e-9) * 10


def linprog(cost: np.ndarray, model: LoweredModel, name: str) -> tuple[np.ndarray, float]:
    """Minimise ``cost·x`` over ``model``: the solution vector and objective.

    The one function that runs HiGHS.  It keeps the name of scipy's
    ``linprog``, which it replaces, because profilers and the benchmark
    harness time every LP solve by wrapping ``repro.lp.model.linprog``.  Like
    scipy's ``linprog`` it rejects non-finite inputs with :class:`ValueError`,
    solves on a fresh HiGHS instance with the same options, and re-checks the
    optimum against the bounds and rows.
    """
    if not (np.isfinite(cost).all() and np.isfinite(model.data).all()
            and np.isfinite(model.row_upper).all()):
        raise ValueError(f"{name}: objective, coefficients and right-hand "
                         "sides must be finite")
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = model.row_upper.size
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = model.col_lower
    lp.col_upper_ = model.col_upper
    lp.row_lower_ = model.row_lower
    lp.row_upper_ = model.row_upper
    lp.a_matrix_.start_ = model.indptr
    lp.a_matrix_.index_ = model.indices
    lp.a_matrix_.value_ = model.data
    highs = _Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == HighsStatus.kError:
        status = HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        LP_STATS.add("highs_iterations", info.simplex_iteration_count)
    if status in (HighsModelStatus.kInfeasible, HighsModelStatus.kModelError):
        raise InfeasibleProgramError(f"{name}: infeasible")
    if status == HighsModelStatus.kUnbounded:
        raise UnboundedProgramError(f"{name}: unbounded")
    if status != HighsModelStatus.kOptimal:
        raise RuntimeError(f"{name}: solver failed with status "
                           f"{highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    slack = model.row_upper - np.array(solution.row_value)
    tolerance = _RESULT_TOLERANCE  # NaN anywhere fails a comparison below
    if np.isnan(objective) or not ((x >= model.col_lower - tolerance).all()
                                   and (x <= model.col_upper + tolerance).all()
                                   and (slack[:model.num_le] >= -tolerance).all()
                                   and (abs(slack[model.num_le:]) <= tolerance).all()):
        raise RuntimeError(f"{name}: the solver's optimum violates the "
                           f"constraints by more than {tolerance:.2e}")
    return x, objective


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------

@dataclass
class _Constraint:
    name: str
    coefficients: dict[str, float]
    rhs: float
    kind: str  # "le" or "eq"


@dataclass
class LPSolution:
    """The result of solving a :class:`LinearProgram`."""

    objective: float
    values: dict[str, float]
    status: str = "optimal"

    def value(self, name: str, default: float = 0.0) -> float:
        return self.values.get(name, default)

    def nonzero(self, tolerance: float = 1e-9) -> dict[str, float]:
        return {name: value for name, value in self.values.items()
                if abs(value) > tolerance}


@dataclass
class CompiledConstraints:
    """The lowering of a program's constraint system.

    ``model`` holds the HiGHS arrays over the variables in ``index`` order.
    """

    index: dict[str, int]
    model: LoweredModel
    dropped_duplicates: int
    fingerprint: str


def _row(coefficients: Mapping[str, float],
         index: Mapping[str, int]) -> tuple[tuple[int, float], ...]:
    """A row's nonzero ``(column, value)`` pairs, ordered by column."""
    return tuple(sorted((index[name], float(value))
                        for name, value in coefficients.items() if value))


#: Per-program cap on memoized optima (cleared wholesale when exceeded; the
#: width workloads keep a handful of objectives per region).
_SOLUTION_CACHE_CAP = 512


class LinearProgram:
    """A named-variable linear program with a cached lowering.

    Variables default to the bounds ``[0, +inf)``; constraints are ``<=`` or
    ``==`` rows over named variables; the objective may be minimised or
    maximised.  Structure (variables, bounds, constraint rows) is lowered
    once and reused across :meth:`solve`, :meth:`solve_many` and
    :meth:`resolve` calls until the structure changes.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: dict[str, tuple[float | None, float | None]] = {}
        self._order: list[str] = []
        self._constraints: list[_Constraint] = []
        self._constraint_names: set[str] = set()
        self._objective: dict[str, float] = {}
        self._maximize = False
        self._revision = 0
        self._compiled: CompiledConstraints | None = None
        self._compiled_revision = -1
        #: Memoized optima keyed by (objective, sense, extra columns and
        #: rows); invalidated with the lowering.  HiGHS is deterministic, so
        #: identical (structure, objective) re-solves — the repeated-run
        #: serving scenario — can skip the solver outright.
        self._solutions: dict[tuple, LPSolution] = {}

    # -------------------------------------------------------------- building
    def add_variable(self, name: str, lower: float | None = 0.0,
                     upper: float | None = None) -> str:
        """Declare a variable; re-declaring intersects the bound intervals.

        ``None`` means unbounded on that side.  If the intersection of the old
        and new intervals is empty the program is trivially infeasible and
        :class:`InfeasibleProgramError` is raised immediately, rather than
        letting the conflicting declaration be silently ignored.
        """
        if name not in self._variables:
            self._variables[name] = (lower, upper)
            self._order.append(name)
            self._revision += 1
            return name
        old_lower, old_upper = self._variables[name]
        new_lower = old_lower if lower is None else \
            (lower if old_lower is None else max(old_lower, lower))
        new_upper = old_upper if upper is None else \
            (upper if old_upper is None else min(old_upper, upper))
        if new_lower is not None and new_upper is not None and new_lower > new_upper:
            raise InfeasibleProgramError(
                f"{self.name}: re-declaring variable {name!r} with bounds "
                f"[{lower}, {upper}] leaves the empty interval "
                f"[{new_lower}, {new_upper}]")
        if (new_lower, new_upper) != (old_lower, old_upper):
            self._variables[name] = (new_lower, new_upper)
            self._revision += 1
        return name

    def variable_names(self) -> list[str]:
        return list(self._order)

    def variable_bounds(self, name: str) -> tuple[float | None, float | None]:
        return self._variables[name]

    def _require_variables(self, coefficients: Mapping[str, float]) -> None:
        for name in coefficients:
            if name not in self._variables:
                self.add_variable(name)

    def _constraint_name(self, name: str | None) -> str:
        """Validate (or generate) a constraint name; names are unique."""
        resolved = name or f"c{len(self._constraints)}"
        if resolved in self._constraint_names:
            raise ValueError(f"{self.name}: duplicate constraint name {resolved!r}")
        self._constraint_names.add(resolved)
        return resolved

    def add_le(self, coefficients: Mapping[str, float], rhs: float,
               name: str | None = None) -> None:
        """Add ``Σ coeff·x <= rhs``."""
        self._require_variables(coefficients)
        self._constraints.append(_Constraint(
            self._constraint_name(name), dict(coefficients), float(rhs), "le"))
        self._revision += 1

    def add_ge(self, coefficients: Mapping[str, float], rhs: float,
               name: str | None = None) -> None:
        """Add ``Σ coeff·x >= rhs`` (stored as the negated ``<=`` row)."""
        negated = {variable: -value for variable, value in coefficients.items()}
        self._require_variables(negated)
        self._constraints.append(_Constraint(
            self._constraint_name(name), negated, -float(rhs), "le"))
        self._revision += 1

    def add_eq(self, coefficients: Mapping[str, float], rhs: float,
               name: str | None = None) -> None:
        """Add ``Σ coeff·x == rhs``."""
        self._require_variables(coefficients)
        self._constraints.append(_Constraint(
            self._constraint_name(name), dict(coefficients), float(rhs), "eq"))
        self._revision += 1

    def set_objective(self, coefficients: Mapping[str, float],
                      maximize: bool = False) -> None:
        """Set the default objective (does not invalidate the lowering)."""
        self._require_variables(coefficients)
        self._objective = dict(coefficients)
        self._maximize = maximize

    # ------------------------------------------------------------ compilation
    def compile(self) -> CompiledConstraints:
        """Lower the constraint system to the HiGHS arrays, once per revision.

        Identical rows (same kind, same coefficients and — for equalities —
        the same RHS) are emitted once; ``<=`` rows that differ only in the
        RHS keep the tightest bound.  Dropped rows are tallied in the
        ``dedup_dropped_rows`` counter of :func:`lp_cache_stats`.
        """
        if self._compiled is not None and self._compiled_revision == self._revision:
            LP_STATS.add("compile_hits")
            return self._compiled

        index = {name: position for position, name in enumerate(self._order)}
        rows: dict[str, list[tuple[tuple[int, float], ...]]] = {"le": [], "eq": []}
        rhs: dict[str, list[float]] = {"le": [], "eq": []}
        position_of: dict[tuple, int] = {}
        dropped = 0
        for constraint in self._constraints:
            signature = _row(constraint.coefficients, index)
            kind = constraint.kind
            key = (kind, signature) + ((constraint.rhs,) if kind == "eq" else ())
            position = position_of.get(key)
            if position is None:
                position = position_of[key] = len(rhs[kind])
                rows[kind].append(signature)
                rhs[kind].append(constraint.rhs)
            else:
                dropped += 1
                if kind == "le":
                    rhs["le"][position] = min(rhs["le"][position], constraint.rhs)

        bounds = [self._variables[name] for name in self._order]
        digest = hashlib.sha1()
        digest.update(repr(tuple(self._order)).encode())
        digest.update(repr(tuple(bounds)).encode())
        digest.update(repr(list(zip(rows["le"], rhs["le"]))).encode())
        digest.update(repr(list(zip(rows["eq"], rhs["eq"]))).encode())

        compiled = CompiledConstraints(
            index=index,
            model=_EMPTY.with_rows(bounds, rows["le"], rhs["le"], rows["eq"], rhs["eq"]),
            dropped_duplicates=dropped,
            fingerprint=digest.hexdigest(),
        )
        LP_STATS.add("compile_builds")
        LP_STATS.add("dedup_dropped_rows", dropped)
        self._compiled = compiled
        self._compiled_revision = self._revision
        self._solutions.clear()
        return compiled

    def fingerprint(self) -> str:
        """Structural fingerprint of the compiled constraint system."""
        return self.compile().fingerprint

    # --------------------------------------------------------------- solving
    def solve(self) -> LPSolution:
        """Solve the stored objective; raises :class:`InfeasibleProgramError`
        or :class:`UnboundedProgramError` on those solver statuses."""
        return self.resolve()

    def solve_many(self, objectives: Sequence[Mapping[str, float]],
                   maximize: bool = False) -> list[LPSolution]:
        """Solve the program once per objective, compiling the matrices once.

        This is the bulk entry point for the width computations: ``fhtw``
        solves one objective per bag and ``subw`` one per selector against the
        literally identical feasible region.
        """
        self.compile()
        return [self.resolve(objective=objective, maximize=maximize)
                for objective in objectives]

    def resolve(self, objective: Mapping[str, float] | None = None,
                maximize: bool | None = None,
                extra_variables: Mapping[str, tuple[float | None, float | None]] | None = None,
                extra_le: Sequence[tuple[Mapping[str, float], float]] | None = None,
                ) -> LPSolution:
        """Re-solve against the compiled lowering without rebuilding it.

        ``objective``/``maximize`` default to the stored objective;
        ``extra_variables`` and ``extra_le`` append ephemeral columns and
        ``<=`` rows for this solve only — the compiled base region and the
        program itself are left untouched.  A re-solve whose (objective,
        extra columns and rows) were already seen against the current
        compiled structure returns the memoized optimum.
        """
        compiled = self.compile()
        extras = dict(extra_variables or {})
        coefficients = self._objective if objective is None else objective
        sense_max = self._maximize if maximize is None else maximize

        solution_key = (
            tuple(sorted(coefficients.items())), sense_max,
            tuple(extras.items()),
            tuple((tuple(sorted(row.items())), rhs)
                  for row, rhs in (extra_le or ())),
        )
        memoized = self._solutions.get(solution_key)
        if memoized is not None:
            LP_STATS.add("solution_hits")
            return replace(memoized, values=dict(memoized.values))

        order = list(compiled.index) + list(extras)
        if not order:
            return LPSolution(objective=0.0, values={})
        index = dict(compiled.index)
        for offset, name in enumerate(extras):
            if name in index:
                raise ValueError(f"{self.name}: extra variable {name!r} "
                                 "shadows a declared variable")
            index[name] = len(compiled.index) + offset

        if unknown := coefficients.keys() - index.keys():
            raise ValueError(f"{self.name}: objective references unknown "
                             f"variables {sorted(unknown)}")
        cost = np.zeros(len(order))
        cost[[index[name] for name in coefficients]] = list(coefficients.values())
        if sense_max:
            cost = -cost

        model = compiled.model
        if extras or extra_le:
            for row_coefficients, _ in extra_le or ():
                if unknown := row_coefficients.keys() - index.keys():
                    raise ValueError(f"{self.name}: extra row references "
                                     f"unknown variables {sorted(unknown)}")
            model = model.with_rows(list(extras.values()),
                                    [_row(row, index) for row, _ in extra_le or ()],
                                    [float(rhs) for _, rhs in extra_le or ()])

        x, objective_value = linprog(cost, model, self.name)
        solution = LPSolution(
            objective=-float(objective_value) if sense_max else float(objective_value),
            values={name: float(x[index[name]]) for name in order})
        LP_STATS.add("solution_builds")
        if len(self._solutions) >= _SOLUTION_CACHE_CAP:
            self._solutions.clear()
        self._solutions[solution_key] = solution
        return replace(solution, values=dict(solution.values))

    # ------------------------------------------------------------- reporting
    @property
    def num_variables(self) -> int:
        return len(self._order)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    def describe(self) -> str:
        """A short human-readable summary (used by ``explain`` outputs)."""
        sense = "max" if self._maximize else "min"
        summary = (f"{self.name}: {sense} over {self.num_variables} variables, "
                   f"{self.num_constraints} constraints")
        if self._compiled is not None and self._compiled_revision == self._revision \
                and self._compiled.dropped_duplicates:
            summary += f" ({self._compiled.dropped_duplicates} duplicate rows dropped)"
        return summary


def solve_max(objective: Mapping[str, float],
              less_equal: Sequence[tuple[Mapping[str, float], float]],
              name: str = "lp") -> LPSolution:
    """One-shot helper: maximise ``objective`` subject to ``<=`` rows."""
    program = LinearProgram(name)
    for coefficients, rhs in less_equal:
        program.add_le(coefficients, rhs)
    program.set_objective(objective, maximize=True)
    return program.solve()
