"""Unit tests for the compiled LP front end and the exact rational simplex."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.lp import (
    ExactLPError,
    InfeasibleProgramError,
    LinearProgram,
    UnboundedProgramError,
    lp_cache_stats,
    solve_max,
    solve_min_with_inequalities,
    solve_standard_form,
)


def test_linear_program_maximize():
    program = LinearProgram("toy")
    program.add_le({"x": 1.0, "y": 1.0}, 4.0)
    program.add_le({"x": 1.0}, 3.0)
    program.set_objective({"x": 1.0, "y": 2.0}, maximize=True)
    solution = program.solve()
    assert solution.objective == pytest.approx(8.0)
    assert solution.value("y") == pytest.approx(4.0)
    assert solution.nonzero() == pytest.approx({"y": 4.0})


def test_linear_program_minimize_with_equality():
    program = LinearProgram()
    program.add_eq({"x": 1.0, "y": 1.0}, 2.0)
    program.add_ge({"x": 1.0}, 0.5)
    program.set_objective({"x": 3.0, "y": 1.0}, maximize=False)
    solution = program.solve()
    assert solution.objective == pytest.approx(0.5 * 3 + 1.5)


def test_linear_program_infeasible_and_unbounded():
    infeasible = LinearProgram()
    infeasible.add_le({"x": 1.0}, 1.0)
    infeasible.add_ge({"x": 1.0}, 2.0)
    infeasible.set_objective({"x": 1.0})
    with pytest.raises(InfeasibleProgramError):
        infeasible.solve()

    unbounded = LinearProgram()
    unbounded.add_variable("x", lower=0.0)
    unbounded.set_objective({"x": 1.0}, maximize=True)
    with pytest.raises(UnboundedProgramError):
        unbounded.solve()


def test_empty_program_and_describe():
    program = LinearProgram("empty")
    assert program.solve().objective == 0.0
    program.add_le({"x": 1.0}, 1.0)
    assert "1 constraints" in program.describe()
    assert program.num_variables == 1


def test_solve_max_helper():
    solution = solve_max({"x": 1.0}, [({"x": 2.0}, 3.0)])
    assert solution.objective == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# the compiled substrate
# ---------------------------------------------------------------------------

def test_add_variable_redeclaration_intersects_bounds():
    # Regression: re-declaring a variable used to be silently ignored, so a
    # later, tighter declaration had no effect on the solve.
    program = LinearProgram("bounds")
    program.add_variable("x", lower=0.0, upper=5.0)
    program.add_variable("x", lower=3.0)
    assert program.variable_bounds("x") == (3.0, 5.0)
    program.set_objective({"x": 1.0}, maximize=False)
    assert program.solve().objective == pytest.approx(3.0)

    program.add_variable("x", upper=4.0)
    assert program.variable_bounds("x") == (3.0, 4.0)
    program.set_objective({"x": 1.0}, maximize=True)
    assert program.solve().objective == pytest.approx(4.0)


def test_add_variable_conflicting_bounds_raise():
    program = LinearProgram("conflict")
    program.add_variable("x", lower=0.0, upper=2.0)
    with pytest.raises(InfeasibleProgramError):
        program.add_variable("x", lower=3.0)


def test_add_variable_none_bounds_do_not_tighten():
    program = LinearProgram("none-bounds")
    program.add_variable("t", lower=None)
    program.add_variable("t", lower=None, upper=None)
    assert program.variable_bounds("t") == (None, None)


def test_duplicate_constraint_names_rejected():
    # Names address RHS overrides; reusing one would make them ambiguous.
    program = LinearProgram("names")
    program.add_le({"x": 1.0}, 3.0, name="cap")
    with pytest.raises(ValueError):
        program.add_le({"y": 1.0}, 7.0, name="cap")
    with pytest.raises(ValueError):
        program.add_ge({"y": 1.0}, 1.0, name="cap")
    with pytest.raises(ValueError):
        program.add_eq({"y": 1.0}, 1.0, name="cap")


def test_compile_dedupes_identical_rows():
    program = LinearProgram("dupes")
    program.add_le({"x": 1.0, "y": 1.0}, 4.0)
    program.add_le({"y": 1.0, "x": 1.0}, 4.0)   # identical, different key order
    program.add_le({"x": 1.0, "y": 1.0}, 3.0)   # same row, tighter rhs
    program.add_eq({"x": 1.0}, 1.0)
    program.add_eq({"x": 1.0}, 1.0)             # identical equality
    compiled = program.compile()
    assert compiled.dropped_duplicates == 3
    assert compiled.model.num_le == 1
    assert compiled.model.row_upper[0] == pytest.approx(3.0)  # tightest rhs survives
    assert compiled.model.row_upper.size == 2  # one <= row, one equality
    program.set_objective({"x": 1.0, "y": 1.0}, maximize=True)
    assert program.solve().objective == pytest.approx(3.0)
    assert "duplicate rows dropped" in program.describe()


def test_solve_many_reuses_compiled_matrices():
    program = LinearProgram("many")
    program.add_le({"x": 1.0, "y": 1.0}, 4.0)
    program.add_le({"x": 1.0}, 3.0)
    before = lp_cache_stats()
    solutions = program.solve_many([{"x": 1.0}, {"y": 1.0}, {"x": 1.0, "y": 2.0}],
                                   maximize=True)
    after = lp_cache_stats()
    assert [s.objective for s in solutions] == pytest.approx([3.0, 4.0, 8.0])
    assert after.get("compile_builds", 0) - before.get("compile_builds", 0) == 1
    assert after.get("compile_hits", 0) - before.get("compile_hits", 0) >= 3


def test_repeated_solves_memoize_the_optimum():
    program = LinearProgram("memo")
    program.add_le({"x": 1.0}, 3.0)
    program.set_objective({"x": 1.0}, maximize=True)
    first = program.solve()
    before = lp_cache_stats()
    second = program.solve()
    after = lp_cache_stats()
    assert second.objective == first.objective
    assert after.get("solution_hits", 0) - before.get("solution_hits", 0) == 1
    # memoized results are independent copies
    second.values["x"] = 99.0
    assert program.solve().value("x") == pytest.approx(3.0)
    # structural mutation invalidates the memo
    program.add_le({"x": 1.0}, 2.0)
    assert program.solve().objective == pytest.approx(2.0)


def test_structural_change_invalidates_compiled_matrices():
    program = LinearProgram("invalidate")
    program.add_le({"x": 1.0}, 3.0)
    program.set_objective({"x": 1.0}, maximize=True)
    assert program.solve().objective == pytest.approx(3.0)
    first = program.fingerprint()
    program.add_le({"x": 1.0}, 2.0)
    assert program.solve().objective == pytest.approx(2.0)
    assert program.fingerprint() != first


def test_resolve_extra_rows_and_variables_are_ephemeral():
    program = LinearProgram("extra")
    program.add_variable("x", lower=0.0, upper=4.0)
    program.add_variable("y", lower=0.0, upper=7.0)
    # max t  s.t.  t <= x-ish caps: the max-min gadget used by the DDR bound.
    solution = program.resolve(
        objective={"t": 1.0}, maximize=True,
        extra_variables={"t": (None, None)},
        extra_le=[({"t": 1.0, "x": -1.0}, 0.0), ({"t": 1.0, "y": -1.0}, 0.0)])
    assert solution.objective == pytest.approx(4.0)
    assert solution.value("t") == pytest.approx(4.0)
    # the gadget left the program untouched
    assert program.variable_names() == ["x", "y"]
    program.set_objective({"x": 1.0, "y": 1.0}, maximize=True)
    assert program.solve().objective == pytest.approx(11.0)
    with pytest.raises(ValueError):
        program.resolve(objective={"x": 1.0}, extra_variables={"x": (0.0, 1.0)})


def test_exact_standard_form():
    # min -x - y  s.t.  x + y + s = 2  (i.e. x + y <= 2)
    solution = solve_standard_form([-1, -1, 0], [[1, 1, 1]], [2])
    assert solution.objective == Fraction(-2)


def test_exact_with_inequalities_matches_scipy():
    # max x + 2y  s.t.  x + y <= 4, x <= 3  ==  min -(x + 2y)
    solution = solve_min_with_inequalities([-1, -2], [[1, 1], [1, 0]], [4, 3])
    assert solution.objective == Fraction(-8)
    assert solution.values[1] == Fraction(4)


def test_exact_equality_constraints():
    # min x + y  s.t.  x + 2y = 4, x >= 0, y >= 0
    solution = solve_min_with_inequalities([1, 1], [], [], [[1, 2]], [4])
    assert solution.objective == Fraction(2)
    assert solution.values == [Fraction(0), Fraction(2)]


def test_exact_infeasible_raises():
    with pytest.raises(ExactLPError):
        solve_min_with_inequalities([1], [[1]], [1], [[1]], [5])


def test_exact_unbounded_raises():
    with pytest.raises(ExactLPError):
        solve_standard_form([-1, 0], [[0, 1]], [1])


def test_exact_fractional_solution_is_exact():
    # min x  s.t.  3x = 1  ->  x = 1/3 exactly.
    solution = solve_min_with_inequalities([1], [], [], [[3]], [1])
    assert solution.values[0] == Fraction(1, 3)


def test_exact_terminates_on_beales_cycling_example():
    # Beale's LP cycles under the largest-coefficient rule; Bland's rule must
    # terminate at the unique optimum x4 = x6 = 1 with value -5/4, in the six
    # pivots the rational (Fraction) tableau takes.
    costs = [Fraction(-3, 4), 20, Fraction(-1, 2), 6]
    le_matrix = [[Fraction(1, 4), -8, -1, 9],
                 [Fraction(1, 2), -12, Fraction(-1, 2), 3],
                 [0, 0, 1, 0]]
    before = lp_cache_stats().get("exact_pivots", 0)
    solution = solve_min_with_inequalities(costs, le_matrix, [0, 0, 1])
    assert lp_cache_stats()["exact_pivots"] - before == 6
    assert solution.objective == Fraction(-5, 4)
    assert solution.values == [1, 0, 1, 0]


def test_exact_redundant_equality_keeps_artificial_basic_at_zero():
    # The second row is twice the first: after phase one its artificial stays
    # basic at level 0 (no original column can drive it out), phase two must
    # still reach the optimum, and the whole solve is phase one's one pivot.
    before = lp_cache_stats()
    solution = solve_standard_form([1, 2], [[1, 1], [2, 2]], [2, 4])
    after = lp_cache_stats()
    assert solution.objective == 2
    assert solution.values == [2, 0]
    assert after["exact_solves"] - before.get("exact_solves", 0) == 1
    assert after["exact_pivots"] - before.get("exact_pivots", 0) == 1


_ENTRIES = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _small_standard_form_lp(draw):
    """``min c·x, A x = b, x >= 0`` with int/Fraction entries; ``b`` may be
    negative, and half the programs are made feasible by a drawn point."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    matrix = draw(st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    costs = draw(st.lists(_ENTRIES, min_size=cols, max_size=cols))
    if draw(st.booleans()):
        point = draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
        rhs = [sum((a * x for a, x in zip(row, point)), Fraction(0)) for row in matrix]
    else:
        rhs = draw(st.lists(_ENTRIES, min_size=rows, max_size=rows))
    return costs, matrix, rhs


@settings(max_examples=200, deadline=None)
@given(_small_standard_form_lp())
# The artificial of the redundant row is driven out on a negative entry.
@example(([0, -1], [[-1, -2], [1, 2]], [0, 0]))
def test_exact_simplex_is_exact_and_agrees_with_highs(problem):
    costs, matrix, rhs = problem
    reference = linprog([float(c) for c in costs],
                        A_eq=[[float(a) for a in row] for row in matrix],
                        b_eq=[float(b) for b in rhs], bounds=(0, None), method="highs")
    if reference.status in (2, 3):  # infeasible or unbounded
        with pytest.raises(ExactLPError):
            solve_standard_form(costs, matrix, rhs)
        return
    assert reference.status == 0
    solution = solve_standard_form(costs, matrix, rhs)
    assert all(value >= 0 for value in solution.values)
    for row, b in zip(matrix, rhs):
        assert sum((a * x for a, x in zip(row, solution.values)), Fraction(0)) == b
    assert solution.objective == sum(c * x for c, x in zip(costs, solution.values))
    assert float(solution.objective) == pytest.approx(reference.fun, abs=1e-9)


# ---------------------------------------------------------------------------
# the direct HiGHS call against scipy.optimize.linprog
# ---------------------------------------------------------------------------

_VARIABLES = [f"x{i}" for i in range(6)]
_COEFFICIENT = st.integers(-3, 3)
_BOUND = st.one_of(st.none(), st.integers(-3, 3))
_BOUNDS = st.tuples(_BOUND, _BOUND).map(
    lambda pair: pair if None in pair else tuple(sorted(pair)))


@st.composite
def _small_linear_program(draw):
    """A random program plus one ``resolve`` call's arguments, and the dense
    matrices ``scipy.optimize.linprog`` takes for the same solve.

    Rows are drawn with distinct ``<=``-form coefficients, so compilation
    drops none and the reference matrices list the rows in declaration
    order: base ``<=`` rows (``add_ge`` negated), extra rows, equalities.
    """
    names = _VARIABLES[:draw(st.integers(1, 6))]
    program = LinearProgram("random")
    bounds = []
    for name in names:
        bounds.append(draw(_BOUNDS))
        program.add_variable(name, *bounds[-1])
    le_rows, eq_rows, seen = [], [], set()
    for position in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["le", "ge", "eq"]))
        coefficients = {name: float(draw(_COEFFICIENT)) for name in names}
        rhs = float(draw(st.integers(-4, 4)))
        sign = -1.0 if kind == "ge" else 1.0
        signature = (kind == "eq", tuple(sign * coefficients[name] for name in names))
        if signature in seen:
            continue
        seen.add(signature)
        name = f"r{position}"
        getattr(program, f"add_{kind}")(coefficients, rhs, name=name)
        (eq_rows if kind == "eq" else le_rows).append([name, kind, coefficients, rhs])

    extra_variables, extra_le = {}, []
    if draw(st.booleans()):
        bounds.append(draw(_BOUNDS))
        extra_variables["t"] = bounds[-1]
        for _ in range(draw(st.integers(0, 3))):
            extra_le.append(({name: float(draw(_COEFFICIENT)) for name in names + ["t"]},
                             float(draw(st.integers(-4, 4)))))
    columns = names + list(extra_variables)
    objective = {name: float(draw(_COEFFICIENT)) for name in columns}
    maximize = draw(st.booleans())

    def dense(coefficients, sign=1.0):
        return [sign * coefficients.get(name, 0.0) for name in columns]

    a_ub = [dense(coefficients, -1.0 if kind == "ge" else 1.0)
            for _, kind, coefficients, _ in le_rows]
    b_ub = [-rhs if kind == "ge" else rhs for _, kind, _, rhs in le_rows]
    a_ub += [dense(coefficients) for coefficients, _ in extra_le]
    b_ub += [rhs for _, rhs in extra_le]
    cost = np.array(dense(objective))
    reference = dict(
        c=-cost if maximize else cost,
        A_ub=np.array(a_ub) if a_ub else None, b_ub=b_ub or None,
        A_eq=np.array([dense(row[2]) for row in eq_rows]) if eq_rows else None,
        b_eq=[row[3] for row in eq_rows] or None, bounds=bounds)
    call = dict(objective=objective, maximize=maximize,
                extra_variables=extra_variables, extra_le=extra_le)
    return program, call, columns, reference


@settings(max_examples=300, deadline=None)
@given(_small_linear_program())
def test_direct_highs_call_matches_scipy_linprog(case):
    program, call, columns, reference = case
    expected = linprog(**reference, method="highs")
    error = {0: None, 2: InfeasibleProgramError, 3: UnboundedProgramError}.get(
        expected.status, RuntimeError)
    if error is not None:
        with pytest.raises(RuntimeError) as raised:
            program.resolve(**call)
        assert type(raised.value) is error
        return
    solution = program.resolve(**call)
    assert solution.objective == (-expected.fun if call["maximize"] else expected.fun)
    assert [solution.values[name] for name in columns] == list(expected.x)


def test_direct_highs_call_status_and_input_checks():
    infeasible = LinearProgram("infeasible")
    infeasible.add_variable("x", lower=None)
    infeasible.add_le({"x": 1.0}, 0.0)
    infeasible.add_ge({"x": 1.0}, 1.0)
    with pytest.raises(InfeasibleProgramError):
        infeasible.resolve(objective={"x": 1.0})

    unbounded = LinearProgram("unbounded")
    unbounded.add_variable("x", lower=None)
    unbounded.add_le({"x": 1.0}, 0.0)
    with pytest.raises(UnboundedProgramError):
        unbounded.resolve(objective={"x": 1.0})

    non_finite = LinearProgram("non-finite")
    non_finite.add_le({"x": float("inf")}, 1.0)
    with pytest.raises(ValueError):
        non_finite.resolve(objective={"x": 1.0}, maximize=True)
    nan_rhs = LinearProgram("nan-rhs")
    nan_rhs.add_le({"x": 1.0}, float("nan"))
    with pytest.raises(ValueError):
        nan_rhs.resolve(objective={"x": 1.0})
    bounded = LinearProgram("nan-objective")
    bounded.add_le({"x": 1.0}, 1.0)
    with pytest.raises(ValueError):
        bounded.resolve(objective={"x": float("nan")})
