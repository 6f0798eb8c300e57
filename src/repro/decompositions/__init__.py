"""Tree decompositions and their enumeration (Section 3.4)."""

from repro.decompositions.treedecomp import (
    TreeDecomposition,
    trivial_decomposition,
)
from repro.decompositions.enumerate import (
    TooManyVariablesError,
    decomposition_from_elimination_order,
    enumerate_tree_decompositions,
    nonredundant_decompositions,
)

__all__ = [
    "TreeDecomposition",
    "trivial_decomposition",
    "decomposition_from_elimination_order",
    "enumerate_tree_decompositions",
    "nonredundant_decompositions",
    "TooManyVariablesError",
]
