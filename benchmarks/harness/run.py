"""Benchmark harness entry point: one workload, or all four, each in a fresh process.

Run from the root of a checkout::

    python3 benchmarks/harness/run.py --seed 0                      # all four
    python3 benchmarks/harness/run.py --seed 0 --workload join_large
    python3 benchmarks/harness/run.py --seed 0 --traced             # + layers

Every workload runs in its own child interpreter (``workloads.py``) with
``PYTHONPATH`` set to the checkout's ``src`` and ``PYTHONHASHSEED`` derived
from ``--seed``; the seed is the only input.  Each metric prints as
``workload/metric value unit``.  With ``--workload`` the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.  The exit code
is non-zero when any answer is wrong, any operation fails, a traced run
finds a wrapper its workload never called, or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("adaptive_hard", "join_large", "plan_cold", "serve_http_rw")
RUN_SECONDS = 20
#: A run must end within this many seconds, set-up included.
DEADLINE_SECONDS = 170


def hash_seed(seed: int) -> str:
    return str(random.Random(f"hash/{seed}").randrange(1, 2 ** 32))


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool, deadline: float | None) -> dict:
    """Run one workload in a fresh interpreter and return its result."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise RuntimeError(f"no program to benchmark under {source}")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(source)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    # A session of its own, so a timeout also stops the HTTP server the
    # workload process may have started.
    with subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            output, _ = child.communicate(
                timeout=None if deadline is None else max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise RuntimeError(f"{workload} did not finish in time") from None
    if child.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def print_metrics(workload: str, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload}/{name} {value:.6g} {unit}")


def check(result: dict) -> list[str]:
    problems = [f"{result['workload']}: {failure}" for failure in result["failures"]]
    if result["wrong"]:
        problems.append(f"{result['workload']}: {result['wrong']} operations "
                        "returned a wrong answer")
    problems += [f"{result['workload']}: traced phase never called {stem}"
                 for stem in result.get("uncalled", ())]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload and end with a JSON result line")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="timed length of a run at the workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and four operations (for the tests)")
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced
    deadline = time.monotonic() + DEADLINE_SECONDS

    problems: list[str] = []
    try:
        if args.workload:
            result = run_child(args.workload, args.seed, args.seconds, traced,
                               args.smoke, deadline)
            problems += check(result)
            print(f"{args.workload}/samples {result['samples']} count")
            print_metrics(args.workload, result["end_to_end"])
            print_metrics(args.workload, result["extra"])
            if traced:
                print_metrics(args.workload, result["per_layer"])
            chosen = result["per_layer"] if traced else result["end_to_end"]
            print(json.dumps({
                "correct": not result["wrong"] and not result.get("uncalled"),
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in chosen.items()}}))
        else:
            deadline = None
            for workload in WORKLOADS:
                result = run_child(workload, args.seed, args.seconds, False,
                                   args.smoke, deadline)
                problems += check(result)
                print(f"{workload}/samples {result['samples']} count")
                print_metrics(workload, result["end_to_end"])
                print_metrics(workload, result["extra"])
                if traced:
                    layered = run_child(workload, args.seed, args.seconds, True,
                                        args.smoke, deadline)
                    problems += check(layered)
                    print_metrics(workload, layered["per_layer"])
                    untraced = result["end_to_end"]["throughput_ops"][0]
                    overhead = untraced / layered["end_to_end"]["throughput_ops"][0]
                    print(f"{workload}/trace_overhead {overhead:.4g} ratio")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
