"""A compile-once / solve-many linear-programming kernel over scipy's HiGHS.

Every information-theoretic computation in the library — polymatroid bounds,
fractional hypertree width, submodular width, Shannon-flow duals, fractional
edge covers — is a linear program.  This module gives them a single, named
interface: variables and constraints are referenced by name, and the solution
is returned as a dictionary, which keeps the call sites close to the paper's
notation (variables named ``h{X,Y}``, ``λ_B``, ``w_{Y|X}`` and so on).

The solver path is *compiled*: :meth:`LinearProgram.compile` lowers the
name-keyed constraint rows to cached sparse CSR matrices exactly once per
structural revision (adding a variable or a constraint invalidates the cache,
changing the objective does not), dropping duplicate rows along the way, and
stamps the result with a structural fingerprint.  :meth:`LinearProgram.solve`,
:meth:`LinearProgram.solve_many` and :meth:`LinearProgram.resolve` all reuse
the compiled matrices — a program solved against many objectives (one LP per
bag, one per selector, one per re-optimisation) pays the matrix construction
once.  ``resolve`` additionally supports per-solve right-hand-side overrides
and *ephemeral* extra variables/rows, which lets callers such as
``max min_B h(B)`` stack their auxiliary rows on top of a shared compiled
feasible region without mutating it.  On top of the compiled matrices each
program memoizes its optima per (objective, overrides, extra rows): HiGHS is
deterministic, so re-solving an unchanged program against an already-seen
objective — the repeated-run serving scenario the ROADMAP targets — skips
the solver call entirely.

Cache observability mirrors the storage backends' ``cache_stats``: every
compile, compiled-solve, region build/hit and dropped duplicate row bumps a
process-wide counter exposed through :func:`lp_cache_stats` (callers in
:mod:`repro.bounds`, :mod:`repro.entropy` and :mod:`repro.flows` report their
cache events into the same table).  :func:`lp_caching_disabled` restores the
historical rebuild-per-solve behaviour — the baseline that
``benchmarks/bench_lp_substrate.py`` measures against.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


class InfeasibleProgramError(RuntimeError):
    """Raised when an LP has no feasible solution."""


class UnboundedProgramError(RuntimeError):
    """Raised when an LP is unbounded in the optimisation direction."""


# ---------------------------------------------------------------------------
# process-wide cache bookkeeping (shared by the LP-adjacent caches)
# ---------------------------------------------------------------------------

_STATS: dict[str, int] = {}
# The engine's thread pool solves LPs for concurrent queries; the shared
# stats table needs the same read-modify-write guard as every other
# process-wide counter (lint rule REP108).
_STATS_LOCK = threading.Lock()
_CACHING_ENABLED: bool = True
_CACHE_CLEARERS: list[Callable[[], None]] = []


def count_lp_event(event: str, amount: int = 1) -> None:
    """Bump a counter in the shared LP cache-stats table."""
    if amount:
        with _STATS_LOCK:
            _STATS[event] = _STATS.get(event, 0) + amount


def lp_cache_stats() -> dict[str, int]:
    """Build/hit counters for every LP-layer cache (compiled matrices,
    polymatroid regions, elemental-inequality memo, Shannon-flow certificates,
    edge-cover programs, deduplicated rows), plus the exact simplex's
    ``exact_solves`` and ``exact_pivots`` work counts."""
    with _STATS_LOCK:
        return dict(_STATS)


def lp_cache_delta(before: Mapping[str, int]) -> dict[str, int]:
    """The nonzero counter movements since a ``before = lp_cache_stats()``
    snapshot — the per-run reporting used by the PANDA and optimizer traces."""
    return {event: count - before.get(event, 0)
            for event, count in lp_cache_stats().items()
            if count - before.get(event, 0)}


def reset_lp_cache_stats() -> None:
    with _STATS_LOCK:
        _STATS.clear()


def lp_caching_enabled() -> bool:
    """Whether the LP-layer caches are active (see :func:`lp_caching_disabled`)."""
    return _CACHING_ENABLED


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
    :func:`lp_cache_stats`, the cache registers itself with
    :func:`clear_lp_caches`, and both operations are no-ops while
    :func:`lp_caching_disabled` is active.  The region, elemental-inequality,
    Shannon-flow and edge-cover caches are all instances.
    """

    def __init__(self, event_prefix: str, capacity: int) -> None:
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._prefix = event_prefix
        self._capacity = capacity
        register_lp_cache(self._entries.clear)

    def lookup(self, key: Hashable) -> Any | None:
        """The memoized value (counting a hit) or ``None``."""
        if not lp_caching_enabled():
            return None
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
            count_lp_event(f"{self._prefix}_hits")
        return value

    def store(self, key: Hashable, value: Any) -> Any:
        """Memoize ``value`` (counting a build), evicting least-recently-used."""
        if lp_caching_enabled():
            count_lp_event(f"{self._prefix}_builds")
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
        return value


@contextmanager
def lp_caching_disabled() -> Iterator[None]:
    """Context manager restoring the legacy rebuild-per-solve behaviour.

    Inside the context every :meth:`LinearProgram.solve` recompiles its
    matrices from scratch and the shared caches (polymatroid regions,
    elemental inequalities, Shannon-flow certificates, edge covers) are
    bypassed.  The benchmarks use this as the baseline; it is also handy to
    rule the caches out when debugging a numeric discrepancy.
    """
    global _CACHING_ENABLED
    previous = _CACHING_ENABLED
    _CACHING_ENABLED = False
    try:
        yield
    finally:
        _CACHING_ENABLED = previous


# ---------------------------------------------------------------------------
# the program
# ---------------------------------------------------------------------------

@dataclass
class _Constraint:
    name: str
    coefficients: dict[str, float]
    rhs: float
    kind: str  # "le" or "eq"
    #: True when the caller declared the row through ``add_ge``: the stored
    #: row is the negated ``<=`` form, and RHS overrides addressed to this
    #: name arrive in the original ``>=`` orientation.
    negated: bool = False


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
    """The sparse lowering of a program's constraint system.

    ``a_ub``/``a_eq`` are CSR matrices over the program's variable order (or
    ``None`` when there are no rows of that kind); ``row_of_name`` maps every
    constraint name — including names whose rows were deduplicated away — to
    the ``(kind, row index)`` of its surviving representative.
    :meth:`LinearProgram.resolve` uses the per-name bookkeeping
    (``rhs_of_name`` keeps each original constraint's row-space RHS,
    ``negated_names`` the ``add_ge`` orientations, ``members_of_row`` the
    dedup groups) to apply RHS overrides without relaxing a deduplicated
    sibling constraint.
    """

    order: tuple[str, ...]
    index: dict[str, int]
    bounds: list[tuple[float | None, float | None]]
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix | None
    b_eq: np.ndarray
    row_of_name: dict[str, tuple[str, int]]
    rhs_of_name: dict[str, float]
    negated_names: frozenset[str]
    members_of_row: dict[tuple[str, int], tuple[str, ...]]
    dropped_duplicates: int
    fingerprint: str


#: Per-program cap on memoized optima (cleared wholesale when exceeded; the
#: width workloads keep a handful of objectives per region).
_SOLUTION_CACHE_CAP = 512


def _rows_to_csr(rows: Sequence[tuple[tuple[int, float], ...]],
                 columns: int) -> sparse.csr_matrix | None:
    if not rows:
        return None
    data: list[float] = []
    indices: list[int] = []
    indptr: list[int] = [0]
    for row in rows:
        for column, value in row:
            indices.append(column)
            data.append(value)
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), columns))


class LinearProgram:
    """A named-variable linear program with cached sparse compilation.

    Variables default to the bounds ``[0, +inf)``; constraints are ``<=`` or
    ``==`` rows over named variables; the objective may be minimised or
    maximised.  Structure (variables, bounds, constraint rows) is compiled to
    CSR matrices once and reused across :meth:`solve`, :meth:`solve_many` and
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
        #: Memoized optima keyed by (objective, sense, RHS overrides, extra
        #: rows); invalidated with the compiled matrices.  HiGHS is
        #: deterministic, so identical (structure, objective) re-solves — the
        #: repeated-run serving scenario — can skip the solver outright.
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
        """Validate (or generate) a constraint name; names address RHS
        overrides, so reusing one would make overrides ambiguous."""
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
        """Add ``Σ coeff·x >= rhs`` (stored as the negated ``<=`` row).

        RHS overrides through :meth:`resolve` keep the caller's ``>=``
        orientation — the negation is re-applied internally.
        """
        negated = {variable: -value for variable, value in coefficients.items()}
        self._require_variables(negated)
        self._constraints.append(_Constraint(
            self._constraint_name(name), negated, -float(rhs), "le",
            negated=True))
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
        """Set the default objective (does not invalidate compiled matrices)."""
        self._require_variables(coefficients)
        self._objective = dict(coefficients)
        self._maximize = maximize

    # ------------------------------------------------------------ compilation
    def compile(self) -> CompiledConstraints:
        """Lower the constraint system to cached CSR matrices.

        Identical rows (same kind, same coefficients and — for equalities —
        the same RHS) are emitted once; ``<=`` rows that differ only in the
        RHS keep the tightest bound.  Dropped rows are tallied in the
        ``dedup_dropped_rows`` counter of :func:`lp_cache_stats`.
        """
        if (self._compiled is not None and self._compiled_revision == self._revision
                and lp_caching_enabled()):
            count_lp_event("compile_hits")
            return self._compiled

        index = {name: position for position, name in enumerate(self._order)}
        ub_rows: list[tuple[tuple[int, float], ...]] = []
        ub_rhs: list[float] = []
        eq_rows: list[tuple[tuple[int, float], ...]] = []
        eq_rhs: list[float] = []
        ub_by_signature: dict[tuple, int] = {}
        eq_by_signature: dict[tuple, int] = {}
        row_of_name: dict[str, tuple[str, int]] = {}
        rhs_of_name: dict[str, float] = {}
        negated_names: set[str] = set()
        members_of_row: dict[tuple[str, int], list[str]] = {}
        dropped = 0
        for constraint in self._constraints:
            merged: dict[int, float] = {}
            for name, value in constraint.coefficients.items():
                if value:
                    column = index[name]
                    merged[column] = merged.get(column, 0.0) + value
            signature = tuple(sorted(merged.items()))
            if constraint.kind == "le":
                position = ub_by_signature.get(signature)
                if position is None:
                    position = len(ub_rhs)
                    ub_by_signature[signature] = position
                    ub_rows.append(signature)
                    ub_rhs.append(constraint.rhs)
                else:
                    ub_rhs[position] = min(ub_rhs[position], constraint.rhs)
                    dropped += 1
                row_of_name[constraint.name] = ("le", position)
                members_of_row.setdefault(("le", position), []).append(constraint.name)
            else:
                key = (signature, constraint.rhs)
                position = eq_by_signature.get(key)
                if position is None:
                    position = len(eq_rhs)
                    eq_by_signature[key] = position
                    eq_rows.append(signature)
                    eq_rhs.append(constraint.rhs)
                else:
                    dropped += 1
                row_of_name[constraint.name] = ("eq", position)
                members_of_row.setdefault(("eq", position), []).append(constraint.name)
            rhs_of_name[constraint.name] = constraint.rhs
            if constraint.negated:
                negated_names.add(constraint.name)

        digest = hashlib.sha1()
        digest.update(repr(tuple(self._order)).encode())
        digest.update(repr(tuple(self._variables[name] for name in self._order)).encode())
        digest.update(repr(list(zip(ub_rows, ub_rhs))).encode())
        digest.update(repr(list(zip(eq_rows, eq_rhs))).encode())

        compiled = CompiledConstraints(
            order=tuple(self._order),
            index=index,
            bounds=[self._variables[name] for name in self._order],
            a_ub=_rows_to_csr(ub_rows, len(self._order)),
            b_ub=np.array(ub_rhs, dtype=float),
            a_eq=_rows_to_csr(eq_rows, len(self._order)),
            b_eq=np.array(eq_rhs, dtype=float),
            row_of_name=row_of_name,
            rhs_of_name=rhs_of_name,
            negated_names=frozenset(negated_names),
            members_of_row={row: tuple(names)
                            for row, names in members_of_row.items()},
            dropped_duplicates=dropped,
            fingerprint=digest.hexdigest(),
        )
        if lp_caching_enabled():
            count_lp_event("compile_builds")
            count_lp_event("dedup_dropped_rows", dropped)
        self._compiled = compiled
        self._compiled_revision = self._revision
        self._solutions.clear()
        return compiled

    def fingerprint(self) -> str:
        """Structural fingerprint of the compiled constraint system."""
        return self.compile().fingerprint

    # --------------------------------------------------------------- solving
    def solve(self) -> LPSolution:
        """Solve with HiGHS (through the compiled matrices).

        Raises :class:`InfeasibleProgramError` / :class:`UnboundedProgramError`
        on the corresponding solver statuses.
        """
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
                rhs_updates: Mapping[str, float] | None = None,
                extra_variables: Mapping[str, tuple[float | None, float | None]] | None = None,
                extra_le: Sequence[tuple[Mapping[str, float], float]] | None = None,
                ) -> LPSolution:
        """Re-solve against the compiled matrices without rebuilding them.

        ``objective``/``maximize`` default to the stored objective;
        ``rhs_updates`` overrides right-hand sides by constraint name for
        this solve only, in each constraint's original orientation (an
        ``add_ge`` row takes its new ``>=`` bound).  Overrides are
        dedup-aware: a sibling constraint sharing a deduplicated ``<=`` row
        keeps enforcing its own RHS (the tightest effective bound wins), and
        conflicting overrides on a shared equality row raise
        :class:`InfeasibleProgramError`.  ``extra_variables`` and ``extra_le`` append
        ephemeral columns and ``<=`` rows for this solve only — the compiled
        base region and the program itself are left untouched.  A re-solve
        whose (objective, overrides, extra rows) were already seen against
        the current compiled structure returns the memoized optimum.
        """
        compiled = self.compile()
        extras = dict(extra_variables or {})
        coefficients = self._objective if objective is None else objective
        sense_max = self._maximize if maximize is None else maximize

        solution_key = None
        if lp_caching_enabled():
            solution_key = (
                tuple(sorted(coefficients.items())), sense_max,
                tuple(sorted(rhs_updates.items())) if rhs_updates else (),
                tuple(extras.items()),
                tuple((tuple(sorted(row.items())), rhs)
                      for row, rhs in (extra_le or ())),
            )
            memoized = self._solutions.get(solution_key)
            if memoized is not None:
                count_lp_event("solution_hits")
                return LPSolution(objective=memoized.objective,
                                  values=dict(memoized.values),
                                  status=memoized.status)

        order = list(compiled.order) + list(extras)
        if not order:
            return LPSolution(objective=0.0, values={})
        index = dict(compiled.index)
        for offset, name in enumerate(extras):
            if name in index:
                raise ValueError(f"{self.name}: extra variable {name!r} "
                                 "shadows a declared variable")
            index[name] = len(compiled.order) + offset

        cost = np.zeros(len(order))
        for name, value in coefficients.items():
            position = index.get(name)
            if position is None:
                raise ValueError(f"{self.name}: objective references unknown "
                                 f"variable {name!r}")
            cost[position] = value
        if sense_max:
            cost = -cost

        b_ub = compiled.b_ub
        b_eq = compiled.b_eq
        if rhs_updates:
            b_ub = b_ub.copy()
            b_eq = b_eq.copy()
            # Collect row-space overrides per compiled row: an update keeps
            # its constraint's original orientation (add_ge rows arrive as
            # the new >= bound), and a deduplicated sibling that was *not*
            # updated keeps enforcing its own RHS.
            per_row: dict[tuple[str, int], dict[str, float]] = {}
            for name, value in rhs_updates.items():
                located = compiled.row_of_name.get(name)
                if located is None:
                    raise KeyError(f"{self.name}: no constraint named {name!r}")
                row_value = -float(value) if name in compiled.negated_names \
                    else float(value)
                per_row.setdefault(located, {})[name] = row_value
            for (kind, row), overrides in per_row.items():
                members = compiled.members_of_row[(kind, row)]
                effective = [overrides.get(member, compiled.rhs_of_name[member])
                             for member in members]
                if kind == "le":
                    b_ub[row] = min(effective)
                else:
                    if len(set(effective)) > 1:
                        raise InfeasibleProgramError(
                            f"{self.name}: conflicting RHS overrides for the "
                            f"equality row shared by {list(members)}")
                    b_eq[row] = effective[0]

        a_ub = compiled.a_ub
        a_eq = compiled.a_eq
        if extras:
            pad = len(extras)
            if a_ub is not None:
                a_ub = sparse.hstack(
                    [a_ub, sparse.csr_matrix((a_ub.shape[0], pad))], format="csr")
            if a_eq is not None:
                a_eq = sparse.hstack(
                    [a_eq, sparse.csr_matrix((a_eq.shape[0], pad))], format="csr")
        if extra_le:
            extra_rows: list[tuple[tuple[int, float], ...]] = []
            extra_rhs: list[float] = []
            for row_coefficients, rhs in extra_le:
                merged: dict[int, float] = {}
                for name, value in row_coefficients.items():
                    position = index.get(name)
                    if position is None:
                        raise ValueError(f"{self.name}: extra row references "
                                         f"unknown variable {name!r}")
                    if value:
                        merged[position] = merged.get(position, 0.0) + value
                extra_rows.append(tuple(sorted(merged.items())))
                extra_rhs.append(float(rhs))
            appended = _rows_to_csr(extra_rows, len(order))
            a_ub = appended if a_ub is None else \
                sparse.vstack([a_ub, appended], format="csr")
            b_ub = np.concatenate([b_ub, np.array(extra_rhs, dtype=float)])

        bounds = compiled.bounds + [extras[name] for name in extras]
        result = linprog(
            c=cost,
            A_ub=a_ub if a_ub is not None and a_ub.shape[0] else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq is not None and a_eq.shape[0] else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            method="highs",
        )
        if result.status == 2:
            raise InfeasibleProgramError(f"{self.name}: infeasible")
        if result.status == 3:
            raise UnboundedProgramError(f"{self.name}: unbounded")
        if not result.success:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.name}: solver failed with status {result.status}")
        objective_value = float(result.fun)
        if sense_max:
            objective_value = -objective_value
        values = {name: float(result.x[index[name]]) for name in order}
        solution = LPSolution(objective=objective_value, values=values)
        if solution_key is not None:
            count_lp_event("solution_builds")
            if len(self._solutions) >= _SOLUTION_CACHE_CAP:
                self._solutions.clear()
            self._solutions[solution_key] = LPSolution(
                objective=objective_value, values=dict(values))
        return solution

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
