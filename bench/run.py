"""Benchmark of the bellsphere workbench: one workload per run.

    python3 bench/run.py --workload mc_pairs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run measures set-up time in fresh
interpreters, starts the workload in another fresh interpreter
(``worker.py``), checks everything the program produced against
computations made in ``checks.py``, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are ``setup_s``, ``wall_s`` and ``peak_rss_mb``;
with ``--trace 1`` they are the per-layer metrics of ``tracing.py``.
Files go to ``bench/out/<workload>/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5  # fresh imports per run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-up and checks included

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

_IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bellsphere.cli; "
    "print('ready', flush=True)"
)


class BenchError(Exception):
    pass


def _remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0.0:
        raise BenchError("out of time")
    return left


def import_seconds(started: float) -> float:
    """Seconds from starting a fresh interpreter to ``bellsphere.cli`` imported."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=_remaining(started))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != b"ready":
        raise BenchError(f"importing bellsphere.cli failed: {err.decode(errors='replace')}")
    return elapsed


def run_worker(workload: str, seed: int, seconds: float, trace: int, out_dir: Path, started: float):
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace), str(out_dir)]
    with subprocess.Popen(argv, stdout=sys.stderr) as proc:
        try:
            proc.wait(timeout=_remaining(started))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise BenchError(f"the workload process exited with {proc.returncode}")
    return json.loads((out_dir / "result.json").read_text())


def collect_outputs(ops, result, out_dir: Path) -> dict:
    outputs = result["outputs"]
    for op in ops:
        if op.out is not None:
            outputs[op.name]["text"] = (out_dir / op.out).read_text()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    started = time.perf_counter()
    if not (SRC / "bellsphere" / "__init__.py").is_file():
        print(f"bench: no program to measure under {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        setup = []
        if not args.trace:
            import_seconds(started)  # warm-up: bytecode and file caches
            clock = speed.Clock()
            setup = [clock.rescale(import_seconds(started)) for _ in range(SETUP_SAMPLES)]
        result = run_worker(args.workload, args.seed, args.seconds, args.trace, out_dir, started)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    ops = workloads.plan(args.workload, args.seed)
    outputs = collect_outputs(ops, result, out_dir)
    problems, failed_per_round = checks.CHECKS[args.workload](ops, outputs)
    if not result["consistent"]:
        problems.append("rounds of the same inputs produced different data")
    for problem in problems:
        print(f"bench: wrong output: {problem}", file=sys.stderr)
    rounds = result["rounds"] + (1 if args.trace else 0)
    calls = sum(op.calls for op in ops)

    if args.trace:
        metrics = result["trace_metrics"]
        for name in result["trace_absent"]:
            print(f"bench: absent from the program: {name}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(result["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * calls,
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
