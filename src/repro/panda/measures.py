"""Sub-probability measure tables (Section 8.1).

PANDA re-interprets every term of a Shannon-flow inequality as a table whose
tuples carry *sub-probability* weights:

* an unconditional term ``h(Y)`` becomes a weighted table over the variables
  ``Y`` whose weights sum to at most 1;
* a conditional term ``h(Y|X)`` becomes, for every value of (the relevant part
  of) ``X``, a weighted table over ``Y`` whose weights sum to at most 1.

Proof steps act on these tables: decomposition splits a joint measure into a
marginal and a conditional, submodularity steps enlarge the nominal
conditioning set without touching the data (the measure simply does not depend
on the extra variables), and composition multiplies a marginal with a
conditional — the only step that creates new tuples, and the place where
PANDAExpress truncates at the ``1/B`` threshold.

Measure tables are facades over the pluggable annotated storage engines
(:mod:`repro.relational.storage`), and every operation has two
implementations:

* **Kernel path.** While :func:`~repro.relational.kernels.kernel_ready`
  holds for a columnar measure, the measure stays encoded for its whole
  life.  An :class:`UnconditionalMeasure` is a
  ``ColumnarAnnotatedBackend.from_encoded`` backend: one code table per
  variable (the guard relations' own tables, shared by reference), ``int64``
  code arrays and ``float64`` weights.  A :class:`ConditionalMeasure` is an
  :class:`~repro.relational.kernels.EncodedConditional`: entries sorted by
  key codes, then by descending weight, with segment offsets.
  Initialisation, marginals, conditionals, truncation, composition and the
  executor's atom filters are NumPy kernels, and Python tuples appear only
  when something reads ``.weights``, ``.groups`` or a head relation's rows.
* **Reference path.** The ``dict`` backend, weights that are not floats and
  kernels that decline (a packed key space past its limit) run the
  tuple-at-a-time algebra below, which the kernel path is tested against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.relational import kernels
from repro.relational.relation import Relation
from repro.relational.storage import (
    AnnotatedBackend,
    ColumnarAnnotatedBackend,
    ColumnarBackend,
    resolve_annotated_backend,
)


def _add(a: float, b: float) -> float:
    return a + b


#: Cache tag for real-valued summation (the ⊕ of the measure tables); see
#: :meth:`AnnotatedBackend.marginal`.
_SUM_TAG = "real-sum"


class UnconditionalMeasure:
    """A weighted table over ``variables``: a sub-probability measure.

    ``backend`` selects the annotated storage engine (``"dict"`` reference or
    kernel-backed ``"columnar"``; plain kinds like ``"set"`` map to their
    annotated pair), a ready backend instance, or ``None`` for the default.
    """

    def __init__(self, variables: tuple[str, ...],
                 weights: Mapping[tuple, float] | Iterable[tuple[tuple, float]],
                 backend: str | AnnotatedBackend | None = None) -> None:
        self.variables = tuple(variables)
        if isinstance(backend, AnnotatedBackend):
            self._backend = backend
        else:
            backend_class = resolve_annotated_backend(backend)
            pairs = weights.items() if isinstance(weights, Mapping) else weights
            self._backend = backend_class(pairs)

    @classmethod
    def _from_encoded(cls, variables: tuple[str, ...],
                      encoded: tuple) -> "UnconditionalMeasure":
        """Wrap a kernel's ``(code tables, code arrays, weights)`` triple."""
        return cls(variables, {},
                   backend=ColumnarAnnotatedBackend.from_encoded(*encoded))

    @classmethod
    def uniform_from_relation(cls, relation: Relation, variables: Iterable[str],
                              denominator: float) -> "UnconditionalMeasure":
        """``p(y) = 1/denominator`` on the projection of ``relation`` onto ``variables``.

        The projection is served by the relation's cached distinct-projection
        backend; the measure lives on the annotated engine paired with the
        relation's own storage kind, and on the kernel path shares the
        projection's code tables.
        """
        columns = sorted(variables)
        projected = relation.project(columns)
        weight = 1.0 / max(denominator, 1.0)
        if kernels.kernel_ready(projected._backend):
            return cls._from_encoded(tuple(columns), kernels.uniform_encoded(
                projected._backend, len(columns), weight))
        return cls(tuple(columns), ((row, weight) for row in projected),
                   backend=relation.backend_kind)

    # ---------------------------------------------------------------- basics
    @property
    def weights(self) -> Mapping[tuple, float]:
        """The weighted tuples.  Treat as read-only (it may alias a cache)."""
        return self._backend.mapping()

    @property
    def backend_kind(self) -> str:
        return self._backend.kind

    def total_mass(self) -> float:
        return sum(self._backend.mapping().values())

    def __len__(self) -> int:
        return len(self._backend)

    def _spawn(self, variables: tuple[str, ...],
               pairs: Iterable[tuple[tuple, float]]) -> "UnconditionalMeasure":
        return UnconditionalMeasure(variables, {},
                                    backend=self._backend.spawn(pairs))

    # --------------------------------------------------------------- algebra
    def truncate(self, threshold: float) -> "UnconditionalMeasure":
        """Keep only tuples whose weight is at least ``threshold``."""
        if kernels.kernel_ready(self._backend):
            encoded = kernels.truncate_encoded(self._backend, len(self.variables),
                                               threshold)
            if encoded is not None:
                return self._from_encoded(self.variables, encoded)
        return self._spawn(self.variables,
                           ((row, weight) for row, weight in self._backend.items()
                            if weight >= threshold))

    def marginal(self, onto: Iterable[str]) -> "UnconditionalMeasure":
        """Sum weights over the variables not in ``onto``.

        The reference path is served by the backend's memoized marginal
        group-by, so e.g. the decomposition step's marginal and the
        conditional's normalising denominators are computed once per
        (columns, backend) pair.
        """
        columns = sorted(set(onto) & set(self.variables))
        indices = tuple(self.variables.index(c) for c in columns)
        if kernels.kernel_ready(self._backend):
            encoded = kernels.marginal_encoded(self._backend, indices, _SUM_TAG)
            if encoded is not None:
                return self._from_encoded(tuple(columns), encoded)
        aggregated = self._backend.marginal(indices, _add, tag=_SUM_TAG)
        return self._spawn(tuple(columns), aggregated.items())

    def conditional_on(self, given: Iterable[str]) -> "ConditionalMeasure":
        """The conditional measure ``p(rest | given)`` derived from this joint measure.

        On the reference path the grouping is served by the backend's
        (possibly cached) probe index on the ``given`` columns and the
        normalising marginal by its memoized group-by.
        """
        given_columns = sorted(set(given) & set(self.variables))
        target_columns = [c for c in self.variables if c not in set(given_columns)]
        given_idx = tuple(self.variables.index(c) for c in given_columns)
        target_idx = tuple(self.variables.index(c) for c in target_columns)
        if kernels.kernel_ready(self._backend):
            encoded = kernels.conditional_encoded(self._backend, given_idx, target_idx)
            if encoded is not None:
                return ConditionalMeasure.from_encoded(
                    tuple(target_columns), tuple(given_columns), encoded)
        denominators = self._backend.marginal(given_idx, _add, tag=_SUM_TAG)
        groups: dict[tuple, list[tuple[tuple, float]]] = {}
        for key, bucket in self._backend.probe_index(given_idx).items():
            denominator = denominators.get(key, 0.0)
            if denominator <= 0:
                continue
            group = [(tuple(row[i] for i in target_idx), weight / denominator)
                     for row, weight in bucket]
            group.sort(key=lambda entry: -entry[1])
            groups[key] = group
        return ConditionalMeasure(tuple(target_columns), tuple(given_columns), groups)

    def semijoin(self, relations: Sequence[Relation]) -> "UnconditionalMeasure":
        """Keep the tuples whose projection onto every relation's columns is
        one of its rows (each relation's columns must be variables here)."""
        backends = [relation._backend for relation in relations]
        if kernels.kernel_ready(self._backend, *backends):
            filters = [(backend, tuple(self.variables.index(c) for c in relation.columns),
                        tuple(range(len(relation.columns))))
                       for relation, backend in zip(relations, backends)]
            encoded = kernels.semijoin_all_encoded(self._backend, len(self.variables),
                                                   filters)
            if encoded is not None:
                return self._from_encoded(self.variables, encoded)
        keys = []
        for relation in relations:
            indices = [self.variables.index(column) for column in relation.columns]
            allowed = {tuple(row) for row in relation.project(relation.columns)}
            keys.append((indices, allowed))
        weights = {}
        for row, weight in self.weights.items():
            if all(tuple(row[i] for i in indices) in allowed for indices, allowed in keys):
                weights[row] = weight
        return UnconditionalMeasure(self.variables, weights,
                                    backend=self.backend_kind)

    def sorted_weights(self) -> list[tuple[tuple, float]]:
        """All tuples by decreasing weight (the submodularity-step view),
        served by the backend's memoized sorted-group index."""
        all_positions = tuple(range(len(self.variables)))
        return self._backend.sorted_groups((), all_positions).get((), [])

    def support_relation(self, name: str) -> Relation:
        """The tuples as a relation; on the kernel path an encoded columnar
        one that shares this measure's code tables."""
        if kernels.kernel_ready(self._backend):
            dicts = [self._backend.dictionary(p) for p in range(len(self.variables))]
            return Relation(name, self.variables, backend=ColumnarBackend.from_encoded(
                [d.table for d in dicts], [d.codes_array() for d in dicts], len(self)))
        return Relation(name, self.variables, self._backend.mapping().keys())

    def as_assignments(self) -> Iterable[tuple[dict, float]]:
        for row, weight in self._backend.items():
            yield dict(zip(self.variables, row)), weight


class ConditionalMeasure:
    """A conditional sub-probability measure ``p(target | key)``.

    ``key_variables`` is the set of variables the measure *actually* depends
    on; submodularity steps may enlarge the nominal conditioning set of the
    term this measure is attached to, but the stored data never changes
    (``p_{Z|XY} := p_{Z|Y}`` in Table 2).

    ``groups`` is the sorted-group structure
    ``key tuple -> [(target tuple, weight), ...]`` by decreasing weight —
    the same shape :meth:`AnnotatedBackend.sorted_groups` serves.  A
    measure built on the kernel path (:meth:`from_encoded`) holds an
    :class:`~repro.relational.kernels.EncodedConditional` instead and
    decodes ``groups`` only when something reads it.
    """

    def __init__(self, target_variables: tuple[str, ...],
                 key_variables: tuple[str, ...],
                 groups: dict[tuple, list[tuple[tuple, float]]] | None) -> None:
        self.target_variables = tuple(target_variables)
        self.key_variables = tuple(key_variables)
        self._groups = groups
        #: The kernel form; ``False`` once the groups failed to encode.
        self._encoded: kernels.EncodedConditional | bool | None = None
        self._size: int | None = None

    @classmethod
    def from_encoded(cls, target_variables: tuple[str, ...],
                     key_variables: tuple[str, ...],
                     encoded: "kernels.EncodedConditional") -> "ConditionalMeasure":
        measure = cls(target_variables, key_variables, None)
        measure._encoded = encoded
        return measure

    @classmethod
    def per_group_uniform(cls, relation: Relation, target: Iterable[str],
                          given: Iterable[str]) -> "ConditionalMeasure":
        """``p(y|x) = 1/deg(Y|X=x)`` on the projection of ``relation``.

        This is the initialisation of a degree-constraint source term: the
        measure is a genuine conditional probability per group and every
        weight is at least ``1/deg(Y|X) >= 1/N_{Y|X}``.

        On the reference path the grouping is the relation's group-by
        structure (:meth:`Relation.grouped_values`).  On the kernel path it is the
        projection's encoded columns grouped by key, memoized on the
        projection's backend.
        """
        target_columns = sorted(target)
        given_columns = sorted(given)
        projected = relation.project(given_columns + target_columns)
        if kernels.kernel_ready(projected._backend):
            width = len(given_columns)
            encoded = kernels.conditional_encoded(
                projected._backend, tuple(range(width)),
                tuple(range(width, width + len(target_columns))))
            if encoded is not None:
                return cls.from_encoded(tuple(target_columns), tuple(given_columns),
                                        encoded)
        raw_groups = projected.grouped_values(target_columns, given_columns)
        groups = {
            key: sorted(((value, 1.0 / len(values)) for value in values),
                        key=lambda entry: -entry[1])
            for key, values in raw_groups.items()
        }
        return cls(tuple(target_columns), tuple(given_columns), groups)

    @classmethod
    def from_unconditional(cls, measure: UnconditionalMeasure) -> "ConditionalMeasure":
        """``h(Y) → h(Y|Z)``: the measure stays the same and simply ignores Z
        (the submodularity step on an unconditional term)."""
        if kernels.kernel_ready(measure._backend):
            encoded = kernels.conditional_encoded(
                measure._backend, (), tuple(range(len(measure.variables))),
                normalise=False)
            if encoded is not None:
                return cls.from_encoded(measure.variables, (), encoded)
        return cls(measure.variables, (), {(): list(measure.sorted_weights())})

    @property
    def groups(self) -> dict[tuple, list[tuple[tuple, float]]]:
        if self._groups is None:
            self._groups = kernels.decode_conditional(self._encoded)
        return self._groups

    def encoded(self) -> "kernels.EncodedConditional | None":
        """The kernel form, encoded from ``groups`` on first use; ``None``
        when the groups cannot be encoded exactly (non-float weights)."""
        if self._encoded is None:
            encoded = kernels.conditional_from_groups(
                self._groups, len(self.key_variables), len(self.target_variables))
            self._encoded = False if encoded is None else encoded
        return self._encoded or None

    def group_for(self, assignment: Mapping[str, object]) -> list[tuple[tuple, float]]:
        key = tuple(assignment[c] for c in self.key_variables)
        return self.groups.get(key, [])

    def max_group_size(self) -> int:
        if self._groups is None:
            offsets = self._encoded.offsets
            return int((offsets[1:] - offsets[:-1]).max(initial=0))
        return max((len(group) for group in self._groups.values()), default=0)

    def __len__(self) -> int:
        if self._size is None:
            self._size = (int(self._encoded.offsets[-1]) if self._groups is None
                          else sum(len(group) for group in self._groups.values()))
        return self._size


def compose(marginal: UnconditionalMeasure, conditional: ConditionalMeasure,
            threshold: float) -> UnconditionalMeasure:
    """``p(x)·p(y|x)``, truncated at ``threshold`` (the composition step).

    The conditional's groups are sorted by decreasing weight, so the inner
    loop stops as soon as the product drops below the threshold — the work is
    proportional to the number of *kept* tuples plus the number of groups
    touched, which is what gives PANDA its runtime guarantee.  The kernel
    path (:func:`~repro.relational.kernels.compose_encoded`) keeps the same
    bound by searching each row's cutoff instead of scanning.  Truncating
    below the (strictly-below-true) ``1/B`` threshold only ever removes junk;
    see the executor module docstring for the soundness argument.

    The conditional must not re-bind a marginal variable: its targets are
    the variables the composition adds.
    """
    missing = set(conditional.key_variables) - set(marginal.variables)
    if missing:
        raise ValueError(
            f"composition requires the marginal to determine the key variables "
            f"{sorted(missing)}")
    shared = set(conditional.target_variables) & set(marginal.variables)
    if shared:
        raise ValueError(
            f"composition requires the conditional's target variables "
            f"{sorted(shared)} to be absent from the marginal")
    out_columns = tuple(sorted(set(marginal.variables) | set(conditional.target_variables)))
    if kernels.kernel_ready(marginal._backend):
        encoded = conditional.encoded()
        if encoded is not None:
            sources = [("m", marginal.variables.index(c)) if c in marginal.variables
                       else ("c", conditional.target_variables.index(c))
                       for c in out_columns]
            key_positions = [marginal.variables.index(c)
                             for c in conditional.key_variables]
            composed = kernels.compose_encoded(marginal._backend, key_positions,
                                               encoded, threshold, sources)
            if composed is not None:
                return UnconditionalMeasure._from_encoded(out_columns, composed)
    weights: dict[tuple, float] = {}
    for row, base_weight in marginal.weights.items():
        if base_weight < threshold:
            continue
        assignment = dict(zip(marginal.variables, row))
        for value, conditional_weight in conditional.group_for(assignment):
            combined = base_weight * conditional_weight
            if combined < threshold:
                break
            extended = dict(assignment)
            extended.update(zip(conditional.target_variables, value))
            weights[tuple(extended[c] for c in out_columns)] = combined
    return UnconditionalMeasure(out_columns, weights,
                                backend=marginal.backend_kind)
