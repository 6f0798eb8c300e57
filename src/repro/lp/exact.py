"""An exact simplex solver on an integer tableau.

The Shannon-flow certificates of Section 6.2 must be *exact* rational
inequalities before they can be turned into integral proof sequences
(Section 7).  The numeric path solves the dual LP with HiGHS and then
rationalises the answer; this module provides an independent, exact fallback:
a dense two-phase simplex with Bland's rule (which guarantees termination) on
an integer tableau.  Each row is a list of ``int`` numerators over one positive
row denominator, reduced by their gcd after every pivot; ``Fraction`` appears
only in the returned values.  Every decision (Bland's entering column, the
ratio test by cross-multiplication, the basis-index tie-break) is taken on the
same rational values as over ``Fraction``, so the pivots are the same.  It
suits small programs (hundreds of variables): the flow LPs of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from repro.lp.model import LP_STATS


class ExactLPError(RuntimeError):
    """Raised when an exact LP is infeasible or unbounded."""


@dataclass
class ExactSolution:
    """Solution of an exact LP: optimal objective and variable values."""

    objective: Fraction
    values: list[Fraction]


def _integer_row(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their least common denominator."""
    exact = [value if isinstance(value, (int, Fraction)) else Fraction(value)
             for value in values]
    denominator = lcm(*(value.denominator for value in exact))
    return [value.numerator * (denominator // value.denominator) for value in exact], denominator


def _reduced(numerators: list[int], denominator: int) -> tuple[list[int], int]:
    """Divide a row and its positive denominator by their gcd."""
    divisor = gcd(denominator, *numerators)
    if divisor == 1:
        return numerators, denominator
    return [entry // divisor for entry in numerators], denominator // divisor


def _pivot(tableau: list[list[int]], denominators: list[int], basis: list[int],
           row: int, col: int) -> None:
    """Pivot the tableau on (row, col) in place.

    With pivot entry ``p`` (made positive), the pivot row becomes
    ``(row_r, p)`` and every other row with factor ``f`` becomes
    ``row_k·p − f·row_r`` over ``d_k·p``.
    """
    LP_STATS.add("exact_pivots")
    pivot_row = tableau[row]
    if pivot_row[col] < 0:
        pivot_row = [-entry for entry in pivot_row]
    pivot_row, pivot = _reduced(pivot_row, pivot_row[col])
    tableau[row], denominators[row] = pivot_row, pivot
    nonzero = [(j, entry) for j, entry in enumerate(pivot_row) if entry]
    for other, current in enumerate(tableau):
        factor = current[col]
        if other == row or factor == 0:
            continue
        updated = [entry * pivot for entry in current]
        for j, entry in nonzero:
            updated[j] -= factor * entry
        tableau[other], denominators[other] = _reduced(updated, denominators[other] * pivot)
    basis[row] = col


def _run_simplex(tableau: list[list[int]], denominators: list[int], basis: list[int],
                 num_columns: int) -> None:
    """Run the simplex method with Bland's rule until optimality.

    The last row of the tableau is the objective row (to be minimised); the
    last column is the right-hand side.
    """
    objective_row = len(tableau) - 1
    max_iterations = 50_000
    for _ in range(max_iterations):
        entering = None
        for col in range(num_columns):
            # repro-analysis: allow[REP106] -- exact simplex: entries are integer numerators over positive denominators, so the sign test is exact and needs no epsilon
            if tableau[objective_row][col] < 0:
                entering = col
                break
        if entering is None:
            return
        # Ratio test on b/a: the row denominator cancels, and a > 0 for every
        # candidate, so ratios compare exactly by cross-multiplying numerators.
        leaving = None
        best_rhs = best_coefficient = 0
        for row in range(objective_row):
            coefficient = tableau[row][entering]
            if coefficient > 0:
                rhs = tableau[row][-1]
                candidate, incumbent = rhs * best_coefficient, best_rhs * coefficient
                if leaving is None or candidate < incumbent or (
                        candidate == incumbent and basis[row] < basis[leaving]):
                    best_rhs, best_coefficient = rhs, coefficient
                    leaving = row
        if leaving is None:
            raise ExactLPError("linear program is unbounded")
        _pivot(tableau, denominators, basis, leaving, entering)
    raise ExactLPError("simplex did not converge (iteration cap reached)")


def solve_standard_form(costs: Sequence[Fraction | int],
                        matrix: Sequence[Sequence[Fraction | int]],
                        rhs: Sequence[Fraction | int]) -> ExactSolution:
    """Solve ``min c·x  s.t.  A x = b, x >= 0`` exactly.

    Uses the two-phase simplex method: phase one minimises the sum of
    artificial variables to find a basic feasible solution, phase two
    optimises the true objective.
    """
    LP_STATS.add("exact_solves")
    num_rows = len(matrix)
    num_cols = len(costs)
    if any(len(row) != num_cols for row in matrix):
        raise ValueError("matrix rows must match the number of cost coefficients")
    if len(rhs) != num_rows:
        raise ValueError("rhs length must match the number of rows")

    total_cols = num_cols + num_rows  # original + artificial variables
    tableau: list[list[int]] = []
    denominators: list[int] = []
    basis: list[int] = []
    for i in range(num_rows):
        numerators, denominator = _integer_row([*matrix[i], rhs[i]])
        # Normalise to b >= 0 so artificial variables start feasible.
        if numerators[-1] < 0:
            numerators = [-value for value in numerators]
        artificials = [0] * num_rows
        artificials[i] = denominator
        tableau.append(numerators[:-1] + artificials + numerators[-1:])
        denominators.append(denominator)
        basis.append(num_cols + i)

    # Phase one objective: minimise the sum of artificials.  Subtracting each
    # row once (over the lcm of the row denominators) prices them at zero.
    scale = lcm(*denominators)
    phase_one = [0] * (total_cols + 1)
    for numerators, denominator in zip(tableau, denominators):
        factor = scale // denominator
        phase_one = [p - factor * entry for p, entry in zip(phase_one, numerators)]
    for j in range(num_cols, total_cols):
        phase_one[j] += scale
    tableau.append(phase_one)
    denominators.append(scale)
    _run_simplex(tableau, denominators, basis, total_cols)
    if tableau[-1][-1] != 0:
        raise ExactLPError("linear program is infeasible")
    tableau.pop()
    denominators.pop()

    # Drive any artificial variables out of the basis if possible.
    for row_index, basic in enumerate(basis):
        if basic >= num_cols:
            pivot_col = next((col for col in range(num_cols)
                              if tableau[row_index][col] != 0), None)
            if pivot_col is not None:
                _pivot(tableau, denominators, basis, row_index, pivot_col)

    # Phase two: the real objective c − Σ_r c_{basis[r]}·row_r, expressed in
    # terms of the current basis (artificials cost nothing).
    cost_numerators, cost_denominator = _integer_row(costs)
    scale = lcm(*denominators)
    objective = [value * scale for value in cost_numerators] + [0] * (num_rows + 1)
    for numerators, denominator, basic in zip(tableau, denominators, basis):
        if basic < num_cols and cost_numerators[basic]:
            factor = cost_numerators[basic] * (scale // denominator)
            objective = [obj - factor * entry for obj, entry in zip(objective, numerators)]
    objective, objective_denominator = _reduced(objective, cost_denominator * scale)
    tableau.append(objective)
    denominators.append(objective_denominator)
    _run_simplex(tableau, denominators, basis, num_cols)

    values = [Fraction(0)] * num_cols
    for row_index, basic in enumerate(basis):
        if basic < num_cols:
            values[basic] = Fraction(tableau[row_index][-1], denominators[row_index])
    objective_value = sum((Fraction(cost_numerators[j], cost_denominator) * values[j]
                           for j in range(num_cols)), Fraction(0))
    return ExactSolution(objective=objective_value, values=values)


def solve_min_with_inequalities(costs: Sequence[Fraction | int],
                                le_matrix: Sequence[Sequence[Fraction | int]],
                                le_rhs: Sequence[Fraction | int],
                                eq_matrix: Sequence[Sequence[Fraction | int]] = (),
                                eq_rhs: Sequence[Fraction | int] = ()) -> ExactSolution:
    """Solve ``min c·x  s.t.  A_le x <= b_le, A_eq x = b_eq, x >= 0`` exactly.

    Slack variables are appended to turn ``<=`` rows into equalities; the
    reported solution drops them.
    """
    num_original = len(costs)
    num_slacks = len(le_matrix)
    matrix: list[list[Fraction | int]] = []
    for index, row in enumerate(le_matrix):
        slacks = [0] * num_slacks
        slacks[index] = 1
        matrix.append([*row, *slacks])
    matrix.extend([*row, *[0] * num_slacks] for row in eq_matrix)
    rhs = [le_rhs[i] for i in range(num_slacks)] + [eq_rhs[i] for i in range(len(eq_matrix))]
    solution = solve_standard_form([*costs, *[0] * num_slacks], matrix, rhs)
    return ExactSolution(objective=solution.objective,
                         values=solution.values[:num_original])
