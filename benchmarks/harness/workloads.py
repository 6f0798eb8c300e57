"""The four benchmark workloads; run one in this process and print its result.

``run.py`` starts this file in a fresh interpreter per workload, with
``PYTHONPATH`` pointing at the checkout's ``src`` and ``PYTHONHASHSEED``
derived from the benchmark seed, so no process-global cache (LP regions,
kernel memos, tracer buffers) carries over from one workload to the next.

A run has four phases:

1. **set-up**, repeated :data:`SETUP_REPEATS` times from scratch (the median
   is ``setup_s``): data generation, tenant load, engine creation and the
   untimed warm-up operations;
2. **timed phase**: a fixed number of operations (``seconds`` times the
   workload's nominal rate), one closed-loop caller, each operation timed on
   its own; its answers are fingerprinted after the clock stops;
3. **peak memory**, read before anything else allocates;
4. **correctness**: every fingerprint is compared with an ``Engine`` over the
   ``set`` reference backend, on the same generated data.

The last line of standard output is the JSON result document.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlencode

from repro import Database, Engine, Relation
from repro.lp.model import clear_lp_caches
from repro.query.library import (
    bowtie_query,
    clique_query,
    four_cycle_projected,
    loomis_whitney_query,
    path_query,
    star_query,
    triangle_query,
)

from layers import LayerTracer, layer_metrics, merge_tables, uncalled

SETUP_REPEATS = 5
HERE = Path(__file__).resolve().parent
PAGE_SIZE = 64  # the service's default page size


# ---------------------------------------------------------------------------
# data: a snapshot maps relation name -> (columns, rows)
# ---------------------------------------------------------------------------

def random_pairs(rng: random.Random, size: int, domain: int) -> set[tuple]:
    rows: set[tuple] = set()
    while len(rows) < size:
        rows.add((rng.randrange(domain), rng.randrange(domain)))
    return rows


def random_snapshot(rng: random.Random, query, size: int, domain: int) -> dict:
    """One uniform random binary relation per relation symbol of ``query``."""
    return {name: (("a", "b"), random_pairs(rng, size, domain))
            for name in dict.fromkeys(query.relation_names)}


def hard_snapshot(rng: random.Random, size: int) -> dict:
    """The Section-5.1 hard 4-cycle instance ``([N/2] x {h}) u ({h} x [N/2])``
    under a seeded relabelling of its values: every static plan of ``Q_box``
    materialises (N/2)^2 tuples on it, adaptive PANDA O(N^{3/2})."""
    labels = rng.sample(range(1, 8 * size), size // 2 + 1)
    hub, spokes = labels[0], labels[1:]
    rows = {(value, hub) for value in spokes} | {(hub, value) for value in spokes}
    return {name: (("a", "b"), rows) for name in ("R", "S", "T", "U")}


def to_database(snapshot: dict, backend: str) -> Database:
    database = Database(backend=backend)
    for name, (columns, rows) in snapshot.items():
        database.add(Relation(name, columns, rows, backend=backend), name=name)
    return database


def canonical_rows(columns, rows) -> frozenset:
    """Rows re-ordered to sorted column names, so answers compare across
    backends and column orders."""
    order = sorted(range(len(columns)), key=lambda index: columns[index])
    if order == list(range(len(columns))):
        return frozenset(map(tuple, rows))
    return frozenset(tuple(row[index] for index in order) for row in rows)


def fingerprint(relation) -> tuple[int, int]:
    """(row count, order-independent row-set hash) of an answer."""
    return len(relation), hash(canonical_rows(relation.columns, relation.rows))


def reference_answer(query, snapshot: dict):
    """The answer from a fresh engine over the ``set`` reference backend."""
    return Engine(to_database(snapshot, "set")).execute(query).answer


# ---------------------------------------------------------------------------
# in-process engine workloads
# ---------------------------------------------------------------------------

class EngineWorkload:
    """Shapes served by engines in this process.

    ``cold`` rounds drop every LP-layer cache and build a fresh ``Engine`` per
    shape, so each operation plans from scratch; otherwise each shape has one
    warm ``PreparedQuery`` and an operation is pure execution.
    """

    cold = False

    def __init__(self, smoke: bool, trace: bool) -> None:
        self.smoke = smoke

    def shapes(self, rng: random.Random) -> dict:
        """shape name -> (query, snapshot)."""
        raise NotImplementedError

    def generate(self, seed: int) -> dict:
        return self.shapes(random.Random(f"{self.name}/{seed}"))

    def setup(self, seed: int) -> dict:
        # The generated rows are not kept: Python sets held through the timed
        # phase would be traversed by every full garbage collection, which
        # would bill the harness's memory to the program.
        state = {"seed": seed, "queries": {}, "databases": {}, "prepared": {}}
        for shape, (query, snapshot) in self.generate(seed).items():
            database = to_database(snapshot, "columnar")
            state["queries"][shape] = query
            state["databases"][shape] = database
            if not self.cold:
                state["prepared"][shape] = Engine(database).prepare(query)
        for _ in range(self.warmup):
            self.operate(state, 0)
        return state

    def operate(self, state: dict, index: int) -> list:
        if self.cold:
            answers = []
            for shape, query in state["queries"].items():
                clear_lp_caches()
                engine = Engine(state["databases"][shape])
                answers.append((shape, engine.execute(query).answer))
            return answers
        return [(shape, prepared.execute().answer)
                for shape, prepared in state["prepared"].items()]

    def observe(self, answers: list) -> list:
        return [(shape, fingerprint(answer)) for shape, answer in answers]

    def writes_at(self, index: int) -> bool:
        return False

    def begin_timing(self, state: dict) -> None:
        pass

    def finish(self, state: dict) -> dict:
        """Stop serving; the peak RSS of the process that ran the program."""
        return {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    def close(self, state: dict) -> None:
        pass

    def wrong(self, state: dict, observations: list) -> int:
        expected = {shape: fingerprint(reference_answer(query, snapshot))
                    for shape, (query, snapshot) in self.generate(state["seed"]).items()}
        return sum(any(seen != expected[shape] for shape, seen in observed)
                   for observed in observations)


class AdaptiveHard(EngineWorkload):
    """Warm ``Q_box`` on the hard instance: adaptive PANDA execution only."""

    name = "adaptive_hard"
    rate = 5.0
    warmup = 2

    def shapes(self, rng):
        return {"Q_box": (four_cycle_projected(),
                          hard_snapshot(rng, 200 if self.smoke else 2000))}


class JoinLarge(EngineWorkload):
    """Warm triangle (static TD + WCOJ) and P3 (Yannakakis) on data larger
    than the program's caches: kernels, indexes and evaluators, no LP."""

    name = "join_large"
    rate = 5.0
    warmup = 2

    def shapes(self, rng):
        tri, path, domain = (2000, 5000, 1250) if self.smoke else (20000, 50000, 12500)
        return {"Triangle": (triangle_query(),
                             random_snapshot(rng, triangle_query(), tri,
                                             int(tri ** 0.6))),
                "P3": (path_query(3, free_variables=("X1", "X2")),
                       random_snapshot(rng, path_query(3), path, domain))}


class PlanCold(EngineWorkload):
    """Six shapes, each planned from scratch per round on small data: the
    time is statistics, width LPs, tree decompositions, flows, verification."""

    name = "plan_cold"
    rate = 5.0
    warmup = 2
    cold = True

    def shapes(self, rng):
        size, domain = (60, 30) if self.smoke else (200, 100)
        queries = (four_cycle_projected(), star_query(4), bowtie_query(),
                   clique_query(4), loomis_whitney_query(3),
                   path_query(3, free_variables=("X1", "X2")))
        return {query.name: (query, random_snapshot(rng, query, size, domain))
                for query in queries}


# ---------------------------------------------------------------------------
# the HTTP workload
# ---------------------------------------------------------------------------

def http_call(port: int, method: str, path: str, body: bytes | None = None) -> dict:
    """One request on its own connection (the frontend closes each one)."""
    connection = HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    document = json.loads(payload)
    if response.status != 200 or not document.get("ok"):
        raise RuntimeError(f"{method} {path} -> {response.status}: {payload[:300]!r}")
    return document["result"]


class ServeHttpRw:
    """``QueryService`` behind ``HttpFrontend`` in a server process.

    An operation is one session: four ``POST /query`` reads on the current
    tenant, then ``GET /page`` on the largest answer.  Before every
    :data:`WRITE_EVERY`-th session one ``POST /tenants`` loads a fresh tenant
    (cold statistics and plans), which later sessions read.  The shapes share
    no relation names, so one tenant holds all four.
    """

    name = "serve_http_rw"
    rate = 5.0
    warmup = 2
    WRITE_EVERY = 5
    #: Distinct data seeds the writes cycle through; each write still creates
    #: a new tenant, so the server sees cold statistics and plans every time.
    SNAPSHOTS = 3

    def __init__(self, smoke: bool, trace: bool) -> None:
        self.smoke = smoke
        self.trace = trace

    queries = {query.name: query for query in (
        four_cycle_projected(), path_query(3, free_variables=("X1", "X2")),
        bowtie_query(), clique_query(4))}

    def snapshot(self, rng: random.Random) -> dict:
        hard, path, path_domain, dense, bowtie_domain, k4_domain = (
            (100, 800, 200, 300, 40, 25) if self.smoke
            else (800, 8000, 2000, 1500, 150, 100))
        data = hard_snapshot(rng, hard)
        data.update(random_snapshot(rng, path_query(3), path, path_domain))
        data.update(random_snapshot(rng, bowtie_query(), dense, bowtie_domain))
        data.update(random_snapshot(rng, clique_query(4), dense, k4_domain))
        return data

    def generate(self, seed: int) -> list[dict]:
        return [self.snapshot(random.Random(f"{self.name}/{seed}/{k}"))
                for k in range(self.SNAPSHOTS)]

    def setup(self, seed: int) -> dict:
        relations = [json.dumps({name: {"columns": list(columns), "rows": sorted(rows)}
                                 for name, (columns, rows) in snapshot.items()})
                     for snapshot in self.generate(seed)]
        server = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--trace", str(int(self.trace))],
            stdout=subprocess.PIPE, text=True)
        state = {"seed": seed, "relations": relations, "server": server,
                 "tenants": 0, "current": None, "client_seconds": 0.0}
        try:
            line = server.stdout.readline().split()
            if line[:1] != ["PORT"]:
                raise RuntimeError(f"server failed to start: {line}")
            state["port"] = int(line[1])
            self._load(state, 0)
            for _ in range(self.warmup):
                self.operate(state, 0)
        except BaseException:
            self.close(state)
            raise
        return state

    def _call(self, state: dict, method: str, path: str, body: bytes | None = None):
        started = time.perf_counter()
        try:
            return http_call(state["port"], method, path, body)
        finally:
            state["client_seconds"] += time.perf_counter() - started

    def _load(self, state: dict, snapshot: int) -> None:
        state["tenants"] += 1
        tenant = f"t{state['tenants']}"
        body = (f'{{"name": "{tenant}", "backend": "columnar", '
                f'"relations": {state["relations"][snapshot]}}}')
        self._call(state, "POST", "/tenants", body.encode())
        state["current"] = (tenant, snapshot)

    def writes_at(self, index: int) -> bool:
        return index % self.WRITE_EVERY == 0

    def write(self, state: dict, index: int) -> None:
        self._load(state, (index // self.WRITE_EVERY + 1) % self.SNAPSHOTS)

    def operate(self, state: dict, index: int):
        tenant, snapshot = state["current"]
        reads = []
        for shape, query in self.queries.items():
            result = self._call(state, "POST", "/query", json.dumps(
                {"tenant": tenant, "query": str(query)}).encode())
            reads.append((shape, result))
        shape, largest = max(reads, key=lambda read: read[1]["row_count"])
        page = self._call(state, "GET", "/page?" + urlencode(
            {"tenant": tenant, "stream_id": largest["stream_id"],
             "offset": PAGE_SIZE, "page_size": PAGE_SIZE}))
        return snapshot, reads, (shape, largest["row_count"], page)

    def observe(self, outcome) -> tuple:
        snapshot, reads, (shape, total, page) = outcome
        return (snapshot,
                [(name, result["row_count"],
                  canonical_rows(result["columns"], result["page"]["rows"]))
                 for name, result in reads],
                (shape, total, canonical_rows(page["columns"], page["rows"])))

    def begin_timing(self, state: dict) -> None:
        state["client_seconds"] = 0.0
        if self.trace:
            state["server"].send_signal(signal.SIGUSR1)
            if state["server"].stdout.readline().strip() != "RESET":
                raise RuntimeError("server did not reset its layer table")

    def finish(self, state: dict) -> dict:
        server = state["server"]
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=60)
        if server.returncode != 0:
            raise RuntimeError(f"server exited with {server.returncode}")
        result = json.loads(output.strip().splitlines()[-1])
        result["client_seconds"] = state["client_seconds"]
        return result

    def close(self, state: dict) -> None:
        server = state["server"]
        if server.poll() is None:
            server.kill()
        server.wait(timeout=60)
        server.stdout.close()

    def wrong(self, state: dict, observations: list) -> int:
        expected = [{shape: canonical_rows(answer.columns, answer.rows)
                     for shape, answer in ((shape, reference_answer(query, snapshot))
                                           for shape, query in self.queries.items())}
                    for snapshot in self.generate(state["seed"])]
        wrong = 0
        for snapshot, reads, (shape, total, page) in observations:
            rows = expected[snapshot]
            bad = any(count != len(rows[name]) or not first <= rows[name]
                      or len(first) != min(PAGE_SIZE, count)
                      for name, count, first in reads)
            bad |= (total != len(rows[shape]) or not page <= rows[shape]
                    or len(page) != max(0, min(PAGE_SIZE, total - PAGE_SIZE)))
            wrong += bad
        return wrong


WORKLOADS = {workload.name: workload
             for workload in (AdaptiveHard, JoinLarge, PlanCold, ServeHttpRw)}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name](smoke, trace)
    operations = 4 if smoke else max(1, round(seconds * workload.rate))

    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - started)
    gc.collect()

    latencies: list[float] = []
    writes: list[float] = []
    observations: list = []
    failures: list[str] = []
    write_attempts = 0
    try:
        with LayerTracer() if trace else nullcontext() as tracer:
            workload.begin_timing(state)
            for index in range(operations):
                if workload.writes_at(index):
                    write_attempts += 1
                    try:
                        started = time.perf_counter()
                        workload.write(state, index)
                        writes.append(time.perf_counter() - started)
                    except Exception as exc:  # counted in error_rate
                        failures.append(f"write before operation {index}: {exc!r}")
                try:
                    started = time.perf_counter()
                    outcome = workload.operate(state, index)
                    latencies.append(time.perf_counter() - started)
                except Exception as exc:  # counted in error_rate, run continues
                    failures.append(f"operation {index}: {exc!r}")
                    continue
                observations.append(workload.observe(outcome))
            table = tracer.table() if trace else None
        served = workload.finish(state)
    finally:
        workload.close(state)
    wrong = workload.wrong(state, observations)

    attempted = operations + write_attempts
    failed = len(failures) + wrong
    result = {
        "workload": name, "seed": seed, "operations": operations,
        "samples": len(latencies), "attempted": attempted, "failed": failed,
        "failures": failures[:5], "wrong": wrong,
        "end_to_end": {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "latency_p90_ms": (1000 * statistics.quantiles(
                latencies, n=10, method="inclusive")[8], "ms"),
            "throughput_ops": (len(latencies) / sum(latencies), "ops/s"),
            "peak_rss_mb": (served["rss_mb"], "MB"),
        },
        "extra": {"error_rate": (failed / attempted, "ratio")},
    }
    if writes:
        result["extra"]["write_p50_ms"] = (1000 * statistics.median(writes), "ms")
    if trace:
        if served.get("layers"):
            table = merge_tables(table, served["layers"])
        result["per_layer"] = layer_metrics(table, len(latencies),
                                            served.get("client_seconds", 0.0))
        result["per_layer"]["harness.throughput_ops"] = result["end_to_end"]["throughput_ops"]
        result["uncalled"] = uncalled(table, name)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
