"""Annotated-backend parity and cache behaviour (mirrors test_backend_parity).

The annotated storage engine is only pluggable if it is unobservable through
results: FAQ evaluation and direct annotated-relation algebra must give
identical answers on the ``dict`` reference engine and the kernel-backed
``columnar`` engine, also when the kernels' packing limit is shrunk so that
the columnar engine falls back to the tuple-at-a-time reference.  Its memos
must be observable through the build/hit counters, shared across repeated
evaluations via the database's memoized annotated bindings, and dropped on
mutation.
"""

import pytest

from repro.algorithms import evaluate_faq
from repro.datagen import random_graph_database, weighted_four_cycle_workload
from repro.query import four_cycle_projected, path_query, triangle_query
from repro.relational import (
    ANNOTATED_BACKENDS,
    BUILTIN_SEMIRINGS,
    COUNTING_SEMIRING,
    MIN_PLUS_SEMIRING,
    AnnotatedRelation,
    Relation,
    Semiring,
    kernels,
    resolve_annotated_backend,
)
from repro.relational.storage import (
    STORAGE_STATS,
    AnnotatedBackend,
    StorageBackend,
)

ANNOTATED_KINDS = sorted(ANNOTATED_BACKENDS)
PLAIN_KINDS = ("set", "columnar")
SEEDS = (3, 17, 92)


@pytest.fixture(autouse=True, params=[True, False],
                ids=["kernels-on", "kernels-off"])
def _kernel_modes(request, monkeypatch):
    """Run every annotated parity/cache case on the vectorized-kernel path
    and, with no key space small enough to pack, on the columnar fallback
    path (the dict engine never runs kernels)."""
    if not request.param:
        monkeypatch.setattr(kernels, "_PACK_LIMIT", 0)


def _assert_same_output(outputs):
    reference_kind = PLAIN_KINDS[0]
    reference = outputs[reference_kind]
    for kind, output in outputs.items():
        assert output.columns == reference.columns, (
            f"backend {kind} produced schema {output.columns}")
        assert dict(output.items()) == dict(reference.items()), (
            f"backend {kind} disagrees with {reference_kind}")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("semiring", BUILTIN_SEMIRINGS,
                         ids=[s.name for s in BUILTIN_SEMIRINGS])
@pytest.mark.parametrize("make_query", [triangle_query, four_cycle_projected,
                                        lambda: path_query(3, free_variables=("X1", "X4"))],
                         ids=["triangle", "four-cycle", "path3"])
def test_faq_cross_backend_parity(make_query, semiring, seed):
    query = make_query()
    outputs = {}
    for kind in PLAIN_KINDS:
        database = random_graph_database(query, size=30, domain=8, seed=seed,
                                         backend=kind)
        outputs[kind] = evaluate_faq(query, database, semiring).output
    _assert_same_output(outputs)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_weighted_faq_cross_backend_parity(seed):
    outputs = {}
    for kind in PLAIN_KINDS:
        workload = weighted_four_cycle_workload(24, seed=seed, backend=kind)
        outputs[kind] = evaluate_faq(
            workload.query, workload.database, MIN_PLUS_SEMIRING,
            weight=workload.weight, weight_key=workload.weight_key).output
    _assert_same_output(outputs)


@pytest.mark.parametrize("kind", ANNOTATED_KINDS)
def test_annotated_algebra_on_each_backend(kind):
    r = AnnotatedRelation("R", ("x", "y"), {(1, "a"): 2, (2, "b"): 3},
                          COUNTING_SEMIRING, backend=kind)
    s = AnnotatedRelation("S", ("y", "z"), {("a", 10): 5, ("b", 20): 7},
                          COUNTING_SEMIRING, backend=kind)
    assert r.backend_kind == kind
    joined = r.join(s)
    assert joined.backend_kind == kind
    assert joined.annotation((1, "a", 10)) == 10
    assert joined.annotation((2, "b", 20)) == 21
    marginal = joined.marginalize(["y"])
    assert dict(marginal.items()) == {("a",): 10, ("b",): 21}
    semi = r.semijoin(AnnotatedRelation("F", ("y",), {("a",): 1},
                                        COUNTING_SEMIRING, backend=kind))
    assert dict(semi.items()) == {(1, "a"): 2}
    # Fused join+eliminate matches join-then-marginalize.
    fused = r.join_marginalize(s, drop=("y",))
    staged = r.join(s).marginalize([c for c in r.join(s).columns if c != "y"])
    assert dict(fused.items()) == dict(staged.items())


def test_annotated_with_backend_round_trip():
    r = AnnotatedRelation("R", ("x",), {(1,): 4, (2,): 5}, COUNTING_SEMIRING,
                          backend="dict")
    converted = r.with_backend("columnar")
    assert converted.backend_kind == "columnar"
    assert dict(converted.items()) == dict(r.items())
    assert converted.with_backend("columnar") is converted


def test_plain_kind_maps_to_paired_annotated_engine():
    assert resolve_annotated_backend("set").kind == "dict"
    assert resolve_annotated_backend("columnar").kind == "columnar"
    base = Relation("R", ("x",), [(1,)], backend="columnar")
    annotated = AnnotatedRelation.from_relation(base, COUNTING_SEMIRING)
    assert annotated.backend_kind == "columnar"


def test_columnar_annotated_backend_counters_and_reuse():
    r = AnnotatedRelation("R", ("x", "y"), {(1, 2): 1.0, (1, 3): 2.0, (4, 5): 3.0},
                          MIN_PLUS_SEMIRING, backend="columnar")
    before = STORAGE_STATS.snapshot()
    first = r.marginalize(["x"])
    second = r.marginalize(["x"])
    assert dict(first.items()) == dict(second.items()) == {(1,): 1.0, (4,): 3.0}
    stats = STORAGE_STATS.delta(before)
    assert stats["marginal_builds"] == 1
    assert stats["marginal_hits"] == 1


def test_marginal_cache_is_keyed_by_semiring_tag():
    counting = AnnotatedRelation("R", ("x", "y"), {(1, 2): 2, (1, 3): 3},
                                 COUNTING_SEMIRING, backend="columnar")
    # Re-wrap the same backend under a different semiring: the aggregate must
    # not be served from the counting cache entry.
    reinterpreted = AnnotatedRelation("R", ("x", "y"), dict(counting.items()),
                                      Semiring("max-int", max, lambda a, b: a * b,
                                               0, 1, True),
                                      backend=counting._backend)
    assert dict(counting.marginalize(["x"]).items()) == {(1,): 5}
    assert dict(reinterpreted.marginalize(["x"]).items()) == {(1,): 3}


def test_database_memoizes_annotated_bindings_only_on_caching_engines():
    query = triangle_query()
    columnar = random_graph_database(query, 20, 6, seed=1, backend="columnar")
    atom = query.atoms[0]
    first = columnar.annotated_atom(atom, COUNTING_SEMIRING)
    second = columnar.annotated_atom(atom, COUNTING_SEMIRING)
    assert first is second
    plain = random_graph_database(query, 20, 6, seed=1, backend="set")
    assert plain.annotated_atom(atom, COUNTING_SEMIRING) is not \
        plain.annotated_atom(atom, COUNTING_SEMIRING)
    # Different semirings never share a cache entry.
    assert columnar.annotated_atom(atom, MIN_PLUS_SEMIRING) is not first


def test_annotated_binding_cache_drops_on_mutation():
    query = triangle_query()
    database = random_graph_database(query, 15, 6, seed=2, backend="columnar")
    atom = query.atoms[0]
    before = database.annotated_atom(atom, COUNTING_SEMIRING)
    database[atom.relation].add((99, 98))
    after = database.annotated_atom(atom, COUNTING_SEMIRING)
    assert after is not before
    assert len(after) == len(before) + 1


# Only the kernel path memoizes: the fallback rebuilds its probe indexes.
@pytest.mark.parametrize("_kernel_modes", [True], ids=["kernels-on"],
                         indirect=True)
def test_repeated_faq_runs_reuse_cached_indexes(monkeypatch):
    query = four_cycle_projected()
    database = random_graph_database(query, 40, 10, seed=7, backend="columnar")
    evaluate_faq(query, database, COUNTING_SEMIRING)
    # The base factors: the stored relations and their memoized bindings.
    base = {id(relation._backend) for relation in database.relations()}
    base |= {id(database.annotated_atom(atom, COUNTING_SEMIRING)._backend)
             for atom in query.atoms}
    events = []
    for backend_class in (StorageBackend, AnnotatedBackend):
        def recording(self, event, _count=backend_class._count):
            events.append((id(self), event))
            _count(self, event)
        monkeypatch.setattr(backend_class, "_count", recording)

    runs = []
    for _ in range(3):
        before = STORAGE_STATS.snapshot()
        evaluate_faq(query, database, COUNTING_SEMIRING)
        runs.append(STORAGE_STATS.delta(before))

    rebuilt = sorted(event for owner, event in events
                     if owner in base and event.endswith("_builds"))
    assert rebuilt == [], "warm FAQ evaluations rebuilt base-factor indexes"
    # Intermediate factors are fresh backends every run, so each warm run
    # builds their indexes anew, the same number each time.
    def builds(counts):
        return {e: c for e, c in counts.items() if e.endswith("_builds")}

    assert builds(runs[0]) == builds(runs[1]) == builds(runs[2])
    assert any(owner in base and event.endswith("_hits")
               for owner, event in events)
