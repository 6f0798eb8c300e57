"""Entropy terms and proof steps (Section 7.1, Eq. (64)–(67)).

A *term* is a conditional entropy expression ``h(Y|X)``; it is *unconditional*
when ``X = ∅``.  A *proof step* rewrites one or two terms into one or two new
terms in a way that can never increase the total value under any polymatroid:

* decomposition  ``h(XY) → h(X) + h(Y|X)``      (value preserved),
* composition    ``h(X) + h(Y|X) → h(XY)``      (value preserved),
* monotonicity   ``h(XY) → h(X)``               (value can only drop),
* submodularity  ``h(Y|X) → h(Y|XZ)``           (value can only drop).

Proof sequences (Section 7) are lists of such steps transforming the source
terms of a Shannon-flow inequality into its target terms; PANDA (Section 8)
re-interprets every step as an operation on sub-probability measure tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.utils.varsets import format_varset


@dataclass(frozen=True)
class Term:
    """The conditional entropy term ``h(target | given)``."""

    target: frozenset[str]
    given: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("an entropy term needs a non-empty target set")
        if self.target & self.given:
            raise ValueError("target and given sets of a term must be disjoint")

    @property
    def union(self) -> frozenset[str]:
        return self.target | self.given

    @property
    def is_unconditional(self) -> bool:
        return not self.given

    def coefficients(self) -> dict[frozenset[str], int]:
        """The contribution of the term to an identity: ``+h(XY) − h(X)``."""
        result = {self.union: 1}
        if self.given:
            result[self.given] = result.get(self.given, 0) - 1
        return result

    def evaluate(self, set_function) -> float:
        """``h(target | given)`` on a concrete set function."""
        return set_function[self.union] - set_function[self.given] \
            if self.given else set_function[self.union]

    def __str__(self) -> str:
        if self.is_unconditional:
            return f"h{format_varset(self.target)}"
        return f"h({format_varset(self.target)}|{format_varset(self.given)})"


def unconditional(variables) -> Term:
    """Shorthand for the unconditional term ``h(variables)``."""
    return Term(frozenset(variables))


class ProofStepError(ValueError):
    """Raised when a proof step cannot be applied to the current terms."""


class ProofStep:
    """Base class: every step consumes and produces multisets of terms."""

    def apply(self, terms: Counter) -> None:
        """Apply the step in place to a Counter of terms."""
        for term in self.consumed():
            if terms[term] <= 0:
                raise ProofStepError(
                    f"cannot apply {self}: missing term {term}")
            terms[term] -= 1
            if terms[term] == 0:
                del terms[term]
        for term in self.produced():
            terms[term] += 1

    def describe(self) -> str:
        left = " + ".join(str(term) for term in self.consumed())
        right = " + ".join(str(term) for term in self.produced()) or "0"
        return f"{left} → {right}"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class DecompositionStep(ProofStep):
    """``h(XY) → h(X) + h(Y|X)`` where ``whole = XY`` and ``part = X ⊂ XY``."""

    whole: frozenset[str]
    part: frozenset[str]

    def __post_init__(self) -> None:
        if not self.part < self.whole:
            raise ValueError("the part of a decomposition must be a proper subset")

    def consumed(self) -> list[Term]:
        return [Term(self.whole)]

    def produced(self) -> list[Term]:
        produced = [Term(self.whole - self.part, self.part)]
        if self.part:
            produced.insert(0, Term(self.part))
        return produced


@dataclass(frozen=True)
class CompositionStep(ProofStep):
    """``h(X) + h(Y|X) → h(XY)`` with ``given = X`` and ``target = Y``."""

    given: frozenset[str]
    target: frozenset[str]

    def __post_init__(self) -> None:
        if not self.given:
            raise ValueError("composition needs a non-empty unconditional part")
        if self.given & self.target:
            raise ValueError("composition parts must be disjoint")

    def consumed(self) -> list[Term]:
        return [Term(self.given), Term(self.target, self.given)]

    def produced(self) -> list[Term]:
        return [Term(self.given | self.target)]


@dataclass(frozen=True)
class MonotonicityStep(ProofStep):
    """``h(XY) → h(X)`` with ``whole = XY`` and ``smaller = X ⊆ XY``.

    With ``smaller = ∅`` the term is simply dropped (``h(∅) = 0``).
    """

    whole: frozenset[str]
    smaller: frozenset[str]

    def __post_init__(self) -> None:
        if not self.smaller <= self.whole:
            raise ValueError("monotonicity must shrink the set")
        if self.smaller == self.whole:
            raise ValueError("monotonicity must drop at least one variable")

    def consumed(self) -> list[Term]:
        return [Term(self.whole)]

    def produced(self) -> list[Term]:
        return [Term(self.smaller)] if self.smaller else []


@dataclass(frozen=True)
class SubmodularityStep(ProofStep):
    """``h(Y|X) → h(Y|XZ)`` with ``target = Y``, ``given = X``, ``extra = Z``."""

    target: frozenset[str]
    given: frozenset[str]
    extra: frozenset[str]

    def __post_init__(self) -> None:
        if not self.extra:
            raise ValueError("a submodularity step must add at least one variable")
        if self.extra & (self.target | self.given):
            raise ValueError("the added variables must be new to the term")

    def consumed(self) -> list[Term]:
        return [Term(self.target, self.given)]

    def produced(self) -> list[Term]:
        return [Term(self.target, self.given | self.extra)]


def step_is_value_preserving(step: ProofStep) -> bool:
    """True for decomposition/composition (which keep Σh exactly equal)."""
    return isinstance(step, (DecompositionStep, CompositionStep))
