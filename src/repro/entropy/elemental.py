"""Elemental Shannon inequalities (the generators of the polymatroid cone).

Every Shannon inequality over ``n`` variables is a non-negative combination of
the *elemental* inequalities:

* monotonicity:    ``h(V) − h(V \\ {i}) >= 0`` for every variable ``i``;
* submodularity:   ``h(S ∪ {i}) + h(S ∪ {j}) − h(S ∪ {i,j}) − h(S) >= 0``
  for every pair ``i != j`` and every ``S ⊆ V \\ {i, j}``.

The bound LPs use them as the constraint rows describing the polymatroid cone
Γ_n, and the Shannon-flow dual LP uses them as the columns of the Farkas
certificate whose identity form drives the proof-sequence construction of
Section 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from repro.lp.model import BoundedCache
from repro.utils.varsets import format_varset, powerset


@dataclass(frozen=True)
class ElementalInequality:
    """One elemental Shannon inequality, stored as ``Σ coeff·h(S) >= 0``.

    ``coefficients`` maps subsets to their coefficient; subsets not present
    have coefficient zero.  The empty set never appears (``h(∅) = 0``).
    """

    kind: str  # "monotonicity" or "submodularity"
    coefficients: tuple[tuple[frozenset[str], int], ...]

    def coefficient_map(self) -> dict[frozenset[str], int]:
        return dict(self.coefficients)

    def evaluate(self, set_function) -> float:
        """The value of the inequality's left-hand side on a set function."""
        return sum(coeff * set_function[subset] for subset, coeff in self.coefficients)

    def __str__(self) -> str:
        parts = []
        for subset, coeff in self.coefficients:
            sign = "+" if coeff > 0 else "-"
            magnitude = abs(coeff)
            prefix = "" if magnitude == 1 else f"{magnitude}·"
            parts.append(f"{sign} {prefix}h{format_varset(subset)}")
        rendered = " ".join(parts).lstrip("+ ").strip()
        return f"{rendered} >= 0  [{self.kind}]"


def monotonicity(larger: Iterable[str], smaller: Iterable[str]) -> ElementalInequality:
    """The (generalised) monotonicity ``h(larger) − h(smaller) >= 0``.

    ``smaller`` must be a subset of ``larger``.  With ``smaller = ∅`` this is
    non-negativity ``h(larger) >= 0``.
    """
    larger_set = frozenset(larger)
    smaller_set = frozenset(smaller)
    if not smaller_set <= larger_set:
        raise ValueError("monotonicity requires smaller ⊆ larger")
    coefficients: list[tuple[frozenset[str], int]] = [(larger_set, 1)]
    if smaller_set:
        coefficients.append((smaller_set, -1))
    return ElementalInequality("monotonicity", tuple(coefficients))


def submodularity(first: Iterable[str], second: Iterable[str],
                  context: Iterable[str] = ()) -> ElementalInequality:
    """``h(context ∪ first) + h(context ∪ second) − h(context ∪ first ∪ second) − h(context) >= 0``.

    With singleton ``first``/``second`` and arbitrary context this is an
    elemental submodularity; the general form is accepted because the Reset
    lemma occasionally manufactures non-elemental instances.
    """
    first_set = frozenset(first)
    second_set = frozenset(second)
    context_set = frozenset(context)
    if (first_set & second_set) or (first_set & context_set) or (second_set & context_set):
        raise ValueError("submodularity arguments must be pairwise disjoint")
    coeffs: dict[frozenset[str], int] = {}

    def bump(subset: frozenset[str], amount: int) -> None:
        if not subset:
            return
        coeffs[subset] = coeffs.get(subset, 0) + amount

    bump(context_set | first_set, 1)
    bump(context_set | second_set, 1)
    bump(context_set | first_set | second_set, -1)
    bump(context_set, -1)
    coefficients = tuple((subset, coeff) for subset, coeff in coeffs.items() if coeff)
    return ElementalInequality("submodularity", coefficients)


def elemental_monotonicities(variables: Iterable[str]) -> Iterator[ElementalInequality]:
    """``h(V) >= h(V \\ {i})`` for every variable ``i``."""
    ground = frozenset(variables)
    for variable in sorted(ground):
        yield monotonicity(ground, ground - {variable})


def elemental_submodularities(variables: Iterable[str]) -> Iterator[ElementalInequality]:
    """All elemental submodularities ``h(Si)+h(Sj) >= h(Sij)+h(S)``."""
    ground = frozenset(variables)
    for first, second in combinations(sorted(ground), 2):
        rest = ground - {first, second}
        for context in powerset(rest):
            yield submodularity({first}, {second}, context)


#: The elemental family is O(n²·2ⁿ) to generate and every polymatroid-bound
#: LP over the same ground set needs the identical list, so generation is
#: memoized per variable set.  :class:`ElementalInequality` is frozen, which
#: makes sharing the instances safe; callers get a fresh list shell.
_ELEMENTAL_CACHE = BoundedCache("elemental", 32)


def elemental_inequalities(variables: Iterable[str]) -> list[ElementalInequality]:
    """The full list of elemental Shannon inequalities over ``variables``.

    Memoized per variable set (observable through the ``elemental_builds`` /
    ``elemental_hits`` counters of :func:`repro.lp.model.lp_cache_stats`).
    """
    ground = frozenset(variables)
    cached = _ELEMENTAL_CACHE.lookup(ground)
    if cached is not None:
        return list(cached)
    result = list(elemental_monotonicities(ground))
    result.extend(elemental_submodularities(ground))
    _ELEMENTAL_CACHE.store(ground, tuple(result))
    return result


def count_elemental_inequalities(n: int) -> int:
    """The number of elemental inequalities over ``n`` variables.

    ``n`` monotonicities plus ``C(n,2) · 2^{n-2}`` submodularities — useful to
    sanity check LP sizes before building them.
    """
    if n == 0:
        return 0
    if n == 1:
        return 1
    return n + (n * (n - 1) // 2) * 2 ** (n - 2)
