"""Smoke tests of the benchmark harness (tiny inputs, a few seconds per workload).

Run from the root of the checkout::

    python -m pytest benchmarks/harness/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("adaptive_hard", "join_large", "plan_cold", "serve_http_rw")
END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "throughput_ops": "ops/s", "peak_rss_mb": "MB", "error_rate": "ratio"}
#: Work counts that must repeat exactly for one seed.
COUNTS = ("lp.solve_calls", "panda.compose_calls", "relational.intermediate_tuples",
          "engine.plan_builds", "engine.plan_hits", "relational.index_builds")


def run_harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "harness" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(output: str) -> tuple[dict, dict]:
    """The ``workload/metric value unit`` lines and the final JSON document."""
    *lines, last = output.strip().splitlines()
    printed = {}
    for line in lines:
        name, value, unit = line.split()
        printed[name.split("/", 1)[1]] = (float(value), unit)
    return printed, json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_prints_every_metric_and_repeats_its_counts(workload):
    runs = [run_harness("--smoke", "--seed", "3", "--workload", workload, "--trace", "1")
            for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
    (printed, document), (_, again) = parse(runs[0].stdout), parse(runs[1].stdout)

    expected = dict(END_TO_END)
    if workload == "serve_http_rw":
        expected["write_p50_ms"] = "ms"
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert printed["error_rate"][0] == 0

    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] and document["failed"] == 0
    assert document["attempted"] >= 1
    for name, metric in document["metrics"].items():
        assert printed[name] == (pytest.approx(metric["value"], rel=1e-5), metric["unit"])
    for name in COUNTS:
        assert document["metrics"][name]["unit"] == "count"
        assert document["metrics"][name] == again["metrics"][name], name


def test_untraced_run_reports_the_end_to_end_metrics():
    run = run_harness("--smoke", "--seed", "4", "--workload", "join_large")
    assert run.returncode == 0, run.stderr
    _, document = parse(run.stdout)
    assert {name: metric["unit"] for name, metric in document["metrics"].items()} == {
        name: unit for name, unit in END_TO_END.items() if name != "error_rate"}
    assert all(metric["value"] > 0 for metric in document["metrics"].values())


def test_fails_without_a_program_to_benchmark(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = run_harness("--smoke", "--seed", "0", "--workload", "plan_cold", cwd=tmp_path)
    assert run.returncode != 0
    assert '"metrics"' not in run.stdout
