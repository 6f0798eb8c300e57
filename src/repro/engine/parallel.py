"""Partition-parallel plan execution: hash-shard one atom, run the plan per shard.

The classical data-partitioning argument (and the reason a single relation
can be scanned by many workers at once): if a relation ``R`` appears in
exactly one atom of ``Q``, then for any partition ``R = R_1 ∪ ... ∪ R_k``
into disjoint shards,

    Q(D) = Q(D[R := R_1]) ∪ ... ∪ Q(D[R := R_k])

because every tuple of the full join uses exactly one tuple of ``R`` — and
projections and Boolean quantification commute with the union.  (A relation
appearing in *several* atoms — a self-join — breaks the identity: an answer
may pair tuples from different shards, so self-joined relations are never
chosen for partitioning.)

The shard assignment uses :func:`~repro.relational.storage.stable_row_hash`,
so it is identical in every worker process, and the per-shard work is tracked
by per-worker :class:`~repro.relational.operators.WorkCounter` objects merged
at join time (the counters are also individually thread-safe, so sharing one
would merely serialize updates, not lose them).

Two executors run the shards.  ``"serial"`` (the default) loops over them
in-process, sharing the parent's relations (copy-on-write facades, so cached
indexes of the *unpartitioned* relations stay warm across shards).
``"cluster"`` ships picklable shard payloads to the forked workers of the
fault-tolerant coordinator in :mod:`repro.engine.cluster` (retries,
straggler re-dispatch, worker respawn, serial degradation), which rebuild
the plan from its structural description.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.plan_verifier import verify_dispatch
from repro.engine.cluster import run_shards
from repro.query.cq import Atom, ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.operators import WorkCounter
from repro.relational.relation import Relation
from repro.telemetry.trace import get_tracer
from repro.utils.cancellation import CancellationToken

EXECUTORS = ("serial", "cluster")


def choose_partition_atom(query: ConjunctiveQuery,
                          database: Database) -> Atom | None:
    """The heaviest atom whose relation is safe to partition.

    Safe means the relation symbol occurs in exactly one atom (see the module
    docstring for why self-joins are excluded); heaviest means the largest
    stored relation, which maximises the work actually spread across workers.
    Returns ``None`` when no atom qualifies — the engine then falls back to
    the serial path.
    """
    candidates = [atom for atom in query.atoms
                  if len(query.atoms_for_relation(atom.relation)) == 1
                  and atom.relation in database]
    if not candidates:
        return None
    return max(candidates, key=lambda atom: len(database[atom.relation]))


def shard_databases(database: Database, atom: Atom, count: int) -> list[Database]:
    """``count`` databases that differ only in the shard of ``atom``'s relation.

    Every other relation is shared by backend (copy-on-write facades), so
    encodings built by one shard's worker serve the others — sharding
    multiplies only the partitioned relation, not the whole database.
    """
    shards = database[atom.relation].hash_shards(count)
    shard_dbs = []
    for shard in shards:
        shard_db = Database(backend=database.backend_kind)
        for name in database.relation_names():
            if name == atom.relation:
                shard_db.add(shard, name=name)
            else:
                shard_db.add(database[name].copy(), name=name)
        shard_dbs.append(shard_db)
    return shard_dbs


def merge_shard_results(query: ConjunctiveQuery, shard_results: Sequence,
                        backend_kind: str | None):
    """Union the shard answers and merge the per-worker counters.

    The shard answers share one deterministic schema (each shard ran the same
    plan), so the union is a plain row-set union — which is exactly the
    serial answer by the partitioning identity.
    """
    from repro.optimizer.planner import ExecutionResult

    columns = shard_results[0].answer.columns
    rows: set[tuple] = set()
    for result in shard_results:
        rows.update(result.answer.rows)
    answer = Relation(query.name, columns, rows, backend=backend_kind)
    counter = WorkCounter()
    tracer = get_tracer()
    for result in shard_results:
        counter.merge(result.counter)
        # Splice span records shipped home by cluster workers back
        # into the coordinator's trace (empty for in-process shards).
        shipped = getattr(result, "spans", None)
        if shipped:
            tracer.adopt(shipped)
    return ExecutionResult(answer=answer, counter=counter,
                           details=[result.details for result in shard_results])


def run_partitioned(plan, database: Database, shards: int,
                    cancellation: CancellationToken | None = None,
                    cluster=None):
    """Execute ``plan`` over ``shards`` hash-partitions of its heaviest atom.

    Returns the merged :class:`~repro.optimizer.planner.ExecutionResult`
    (identical to the serial answer), or ``None`` when the query has no
    partitionable atom, in which case the caller should run serially.

    ``cluster`` is a :class:`~repro.engine.cluster.ClusterCoordinator` to
    dispatch the shards to; ``None`` runs them one after another in this
    process.

    ``cancellation`` optionally threads a cooperative token through every
    shard: in-process shards share the token object directly via per-shard
    :class:`WorkCounter`\\ s, cluster workers rebuild an equivalent token
    from the shipped wall-clock deadline.  The first shard to trip raises
    :class:`~repro.utils.cancellation.QueryCancelledError`.
    """
    if shards < 2:
        raise ValueError("partition-parallel execution needs at least 2 shards")
    atom = choose_partition_atom(plan.query, database)
    if atom is None:
        return None
    # Statically verify the plan once before its first dispatch (memoized on
    # the plan object): shard workers rebuild it from bare bags with
    # ``validate=False`` and would execute a corrupted structure silently.
    verify_dispatch(plan)
    if cancellation is not None:
        cancellation.check()

    shard_dbs = shard_databases(database, atom, shards)
    if cluster is not None:
        shard_results = run_shards(plan, shard_dbs, cluster, cancellation)
    else:
        tracer = get_tracer()
        shard_results = []
        for index, shard_db in enumerate(shard_dbs):
            counter = (WorkCounter(cancellation=cancellation)
                       if cancellation is not None else None)
            with tracer.span("exec.shard", {"shard": index}) as span:
                result = plan.execute(shard_db, counter=counter)
                span.set("rows_out", len(result.answer))
            shard_results.append(result)
    return merge_shard_results(plan.query, shard_results, database.backend_kind)
