"""Semirings and annotated relations (Section 9.1 of the paper).

Functional aggregate queries (FAQ) compute a sum-of-products of relation
annotations over a commutative semiring ``(K, ⊕, ⊗)``.  Depending on the
semiring the same syntactic query counts solutions, finds the minimum weight
solution, or reduces back to Boolean CQ evaluation.  The paper distinguishes
*idempotent* semirings (where PANDA's partitioning remains sound) from
non-idempotent ones such as the counting semiring.

Annotated relations are facades over pluggable
:class:`~repro.relational.storage.AnnotatedBackend` engines, mirroring how
plain relations delegate to :class:`~repro.relational.storage.StorageBackend`:
the ``dict`` reference engine recomputes every join index and marginal
group-by on demand, while the ``columnar`` engine runs them as vectorized
kernels and memoizes their outputs (annotated facades are immutable, so
backends are shared freely and memos never go stale), and repeated FAQ runs
over the same database reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro.relational import kernels
from repro.relational.relation import Relation
from repro.relational.storage import AnnotatedBackend, resolve_annotated_backend

K = TypeVar("K")


@dataclass(frozen=True, eq=False)
class Semiring(Generic[K]):
    """A commutative semiring ``(K, ⊕, ⊗, 0, 1)``.

    ``idempotent_add`` records whether ``a ⊕ a == a`` for all ``a``; this is
    the property PANDA's data partitioning needs (Section 9.1).

    Semirings compare (and hash) **by name**: the operator fields are
    lambdas, and two lambdas with identical code never compare equal, so the
    generated dataclass ``__eq__`` would make two structurally identical,
    separately constructed semirings unequal — and reject perfectly legal
    joins.  The name is the semantic identity.
    """

    name: str
    add: Callable[[K, K], K]
    multiply: Callable[[K, K], K]
    zero: K
    one: K
    idempotent_add: bool

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Semiring):
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(("Semiring", self.name))

    def sum(self, values: Iterable[K]) -> K:
        total = self.zero
        for value in values:
            total = self.add(total, value)
        return total

    def product(self, values: Iterable[K]) -> K:
        total = self.one
        for value in values:
            total = self.multiply(total, value)
        return total


BOOLEAN_SEMIRING: Semiring[bool] = Semiring(
    name="boolean",
    add=lambda a, b: a or b,
    multiply=lambda a, b: a and b,
    zero=False,
    one=True,
    idempotent_add=True,
)

COUNTING_SEMIRING: Semiring[int] = Semiring(
    name="counting",
    add=lambda a, b: a + b,
    multiply=lambda a, b: a * b,
    zero=0,
    one=1,
    idempotent_add=False,
)

MIN_PLUS_SEMIRING: Semiring[float] = Semiring(
    name="min-plus",
    add=min,
    multiply=lambda a, b: a + b,
    zero=float("inf"),
    one=0.0,
    idempotent_add=True,
)

MAX_MIN_SEMIRING: Semiring[float] = Semiring(
    name="max-min",
    add=max,
    multiply=min,
    zero=float("-inf"),
    one=float("inf"),
    idempotent_add=True,
)

#: The Viterbi semiring ``([0, 1], max, ×)``: with tuples annotated by
#: probabilities, an FAQ computes the probability of the most likely
#: satisfying assignment (max-product inference).  ``max`` is idempotent, so
#: the adaptive PANDA path stays sound for it.
MAX_TIMES_SEMIRING: Semiring[float] = Semiring(
    name="max-times",
    add=max,
    multiply=lambda a, b: a * b,
    zero=0.0,
    one=1.0,
    idempotent_add=True,
)


def top_k_min_plus_semiring(k: int) -> Semiring[tuple]:
    """The k-best tropical semiring (Mohri): values are sorted tuples of the
    ``k`` smallest path costs.

    ``a ⊕ b`` merges the two cost lists and keeps the ``k`` smallest;
    ``a ⊗ b`` forms all pairwise sums and keeps the ``k`` smallest.  An FAQ
    over this semiring returns, per output tuple, the costs of its ``k``
    cheapest derivations (k-shortest-paths style).  Costs are kept as a
    multiset — two distinct derivations of the same cost both count — so for
    ``k > 1`` addition is **not** idempotent (``a ⊕ a`` duplicates every
    cost) and PANDA's partitioning must refuse it; ``k == 1`` degenerates to
    plain min-plus, which is idempotent.
    """
    if k < 1:
        raise ValueError("the top-k min-plus semiring needs k >= 1")

    def add(a: tuple, b: tuple) -> tuple:
        return tuple(sorted(a + b)[:k])

    def multiply(a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        return tuple(sorted(x + y for x in a for y in b)[:k])

    return Semiring(
        name=f"top{k}-min-plus",
        add=add,
        multiply=multiply,
        zero=(),
        one=(0.0,),
        idempotent_add=(k == 1),
    )


#: All built-in (fixed) semirings, for test sweeps.
BUILTIN_SEMIRINGS: tuple[Semiring, ...] = (
    BOOLEAN_SEMIRING,
    COUNTING_SEMIRING,
    MIN_PLUS_SEMIRING,
    MAX_MIN_SEMIRING,
    MAX_TIMES_SEMIRING,
)


class AnnotatedRelation(Generic[K]):
    """A relation whose tuples carry annotations from a semiring.

    A facade over an :class:`~repro.relational.storage.AnnotatedBackend`
    mapping tuples (over ``columns``) to annotation values; tuples annotated
    with the semiring zero are treated as absent and dropped on construction.

    ``backend`` selects the storage engine: an annotated kind name (``"dict"``
    or ``"columnar"``), a plain kind name (``"set"`` maps to the uncached
    ``dict`` engine), a ready :class:`AnnotatedBackend` instance (trusted to
    hold zero-free annotations), or ``None`` for the engine paired with the
    default plain backend.
    """

    def __init__(self, name: str, columns: Sequence[str],
                 annotations: Mapping[tuple, K] | Iterable[tuple[tuple, K]],
                 semiring: Semiring[K],
                 backend: str | AnnotatedBackend | None = None) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.semiring = semiring
        if isinstance(backend, AnnotatedBackend):
            self._backend = backend
            return
        backend_class = resolve_annotated_backend(backend)
        pairs = annotations.items() if isinstance(annotations, Mapping) \
            else annotations
        zero = semiring.zero
        self._backend = backend_class(
            (tuple(row), value) for row, value in pairs if value != zero)

    @classmethod
    def _from_backend(cls, name: str, columns: Sequence[str],
                      semiring: Semiring[K],
                      backend: AnnotatedBackend) -> "AnnotatedRelation[K]":
        """Internal fast path: wrap a ready backend without zero filtering."""
        return cls(name, columns, {}, semiring, backend=backend)

    @classmethod
    def from_relation(cls, relation: Relation, semiring: Semiring[K],
                      weight: Callable[[dict], K] | None = None,
                      backend: str | None = None) -> "AnnotatedRelation[K]":
        """Annotate every tuple of a plain relation.

        By default each tuple is annotated with the semiring's ``one`` (so the
        Boolean semiring recovers set semantics and the counting semiring
        counts tuples); ``weight`` can compute per-tuple annotations, e.g. edge
        weights for min-plus queries.  The annotated engine defaults to the
        one paired with the relation's own storage backend.
        """
        if backend is None:
            backend = relation.backend_kind
        if weight is None:
            one = semiring.one
            pairs = ((row, one) for row in relation)
        else:
            columns = relation.columns
            pairs = ((row, weight(dict(zip(columns, row)))) for row in relation)
        return cls(relation.name, relation.columns, pairs, semiring,
                   backend=backend)

    # ---------------------------------------------------------------- basics
    @property
    def backend_kind(self) -> str:
        """The annotated storage engine this relation lives on."""
        return self._backend.kind

    def with_backend(self, kind: str) -> "AnnotatedRelation[K]":
        """This annotated relation converted to another storage engine."""
        backend_class = resolve_annotated_backend(kind)
        if backend_class.kind == self._backend.kind:
            return self
        return AnnotatedRelation._from_backend(
            self.name, self.columns, self.semiring,
            backend_class(self._backend.items()))

    def __len__(self) -> int:
        return len(self._backend)

    def items(self) -> Iterator[tuple[tuple, K]]:
        return self._backend.items()

    def annotation(self, row: tuple) -> K:
        value = self._backend.get(tuple(row))
        return self.semiring.zero if value is None else value

    @property
    def column_set(self) -> frozenset[str]:
        return frozenset(self.columns)

    def _positions(self, columns: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.columns.index(c) for c in columns)

    def support(self) -> Relation:
        """The underlying plain relation (tuples with non-zero annotation)."""
        return Relation(self.name, self.columns,
                        (row for row, _ in self._backend.items()))

    def _spawn(self, name: str, columns: Sequence[str],
               pairs: Iterable[tuple[tuple, K]]) -> "AnnotatedRelation[K]":
        """A new facade of the same backend kind; zero annotations are dropped."""
        zero = self.semiring.zero
        return AnnotatedRelation._from_backend(
            name, tuple(columns), self.semiring,
            self._backend.spawn((row, value) for row, value in pairs
                                if value != zero))

    # --------------------------------------------------------------- algebra
    def _check_semiring(self, other: "AnnotatedRelation[K]") -> None:
        if self.semiring != other.semiring:
            raise ValueError(
                f"cannot combine annotated relations over different semirings "
                f"({self.semiring.name!r} vs {other.semiring.name!r})")

    def join(self, other: "AnnotatedRelation[K]",
             name: str | None = None) -> "AnnotatedRelation[K]":
        """Natural join with annotations multiplied (⊗)."""
        return self.join_marginalize(other, drop=(), name=name)

    def join_marginalize(self, other: "AnnotatedRelation[K]",
                         drop: Iterable[str],
                         name: str | None = None) -> "AnnotatedRelation[K]":
        """Natural join ⊗, with the ``drop`` columns ⊕-eliminated on the fly.

        This is the aggregation-pushdown primitive of the FAQ evaluator: the
        full join is never materialised — each matched pair is multiplied and
        immediately ⊕-folded into the output keyed by the surviving columns.
        Off the kernel path, the probe index is built on the smaller side.
        """
        self._check_semiring(other)
        drop = set(drop)
        shared = [c for c in self.columns if c in other.column_set]
        other_extra = [c for c in other.columns if c not in self.column_set]
        joined_columns = self.columns + tuple(other_extra)
        out_columns = tuple(c for c in joined_columns if c not in drop)
        out_name = name or (f"({self.name} ⋈ {other.name})" if not drop else
                            f"Σ({self.name} ⋈ {other.name})")
        self_key = self._positions(shared)
        other_key = other._positions(shared)
        if kernels.kernel_ready(self._backend, other._backend):
            out_source = [("l", self.columns.index(c))
                          if c in self.column_set
                          else ("r", other.columns.index(c))
                          for c in out_columns]
            result = kernels.join_marginalize_dict(
                self._backend, other._backend, self_key, other_key,
                out_source, self.semiring.name)
            if result is not None:
                return self._spawn(out_name, out_columns, result.items())
        semiring = self.semiring
        multiply, add = semiring.multiply, semiring.add
        out_positions = tuple(joined_columns.index(c) for c in out_columns)
        identity = out_positions == tuple(range(len(joined_columns)))
        annotations: dict[tuple, K] = {}
        if len(other) <= len(self):
            index = other._backend.probe_index(other_key)
            extra_idx = other._positions(other_extra)
            for row, value in self._backend.items():
                matches = index.get(tuple(row[i] for i in self_key))
                if not matches:
                    continue
                for other_row, other_value in matches:
                    combined_row = row + tuple(other_row[i] for i in extra_idx)
                    _fold(annotations, combined_row if identity else
                          tuple(combined_row[i] for i in out_positions),
                          multiply(value, other_value), add)
        else:
            index = self._backend.probe_index(self_key)
            other_extra_idx = other._positions(other_extra)
            for other_row, other_value in other._backend.items():
                matches = index.get(tuple(other_row[i] for i in other_key))
                if not matches:
                    continue
                extra = tuple(other_row[i] for i in other_extra_idx)
                for row, value in matches:
                    combined_row = row + extra
                    _fold(annotations, combined_row if identity else
                          tuple(combined_row[i] for i in out_positions),
                          multiply(value, other_value), add)
        return self._spawn(out_name, out_columns, annotations.items())

    def marginalize(self, keep: Sequence[str]) -> "AnnotatedRelation[K]":
        """Eliminate the columns not in ``keep`` by ⊕-aggregating annotations.

        The output columns are exactly ``keep``, in the caller's order (the
        seed silently kept this relation's column order, which made the FAQ
        output schema depend on the elimination order).  Served by the
        backend's memoized marginal group-by (keyed by the semiring name), so
        repeated marginalizations of a cached base factor cost a dictionary
        lookup.
        """
        own = self.column_set
        keep = [c for c in keep if c in own]
        keep_idx = self._positions(keep)
        semiring = self.semiring
        aggregated = self._backend.marginal(keep_idx, semiring.add,
                                            tag=semiring.name)
        # The backend owns the aggregated dict (it may be a shared cache
        # entry); spawn copies it into a fresh backend.
        return self._spawn(f"Σ({self.name})", tuple(keep), aggregated.items())

    def semijoin(self, other: "AnnotatedRelation[K]",
                 name: str | None = None) -> "AnnotatedRelation[K]":
        """``self ⋉ other``: keep rows whose shared columns match ``other``.

        Annotations of ``self`` pass through unchanged — this is junk
        removal, not multiplication.
        """
        self._check_semiring(other)
        shared = [c for c in self.columns if c in other.column_set]
        if not shared:
            if len(other) == 0:
                return self._spawn(name or self.name, self.columns, [])
            return self
        self_key = self._positions(shared)
        if kernels.kernel_ready(self._backend, other._backend):
            kept = kernels.semijoin_keep(self._backend, other._backend,
                                         self_key, other._positions(shared))
            if kept is not None:
                if kept.size == len(self):
                    return self
                rows = self._backend.rows_list()
                values = self._backend.values_list()
                return self._spawn(name or self.name, self.columns,
                                   [(rows[i], values[i])
                                    for i in kept.tolist()])
        other_keys = other._backend.key_set(other._positions(shared))
        pairs = [(row, value) for row, value in self._backend.items()
                 if tuple(row[i] for i in self_key) in other_keys]
        if len(pairs) == len(self):
            return self
        return self._spawn(name or self.name, self.columns, pairs)

    def total(self) -> K:
        """⊕ of every annotation (the value of a Boolean/aggregate query)."""
        return self.semiring.sum(value for _, value in self.items())


def _fold(annotations: dict, key: tuple, value, add) -> None:
    """⊕-accumulate ``value`` into ``annotations[key]``."""
    if key in annotations:
        annotations[key] = add(annotations[key], value)
    else:
        annotations[key] = value
