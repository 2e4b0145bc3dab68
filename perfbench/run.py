"""Run one workload of the paper-protocol benchmark.

    python3 perfbench/run.py --workload oodb-L5 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps each layer and prints the per-layer
ledger.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
execs itself again under a fixed ``PYTHONHASHSEED``.  See NOTES.md for
the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Iterations of the calibration loop timed before and after a run.
CALIBRATION_ITERATIONS = 200_000
HASH_SEED = "0"


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: a reading of machine speed."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def git_state() -> dict:
    """Commit and dirty flag of the checkout, when it is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": "unknown", "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    }


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is salted per process, and the salt alone moved
        # oodb-L5 family medians by about 10% between processes; every
        # run therefore measures under one fixed salt.  exec replaces
        # this process, so no child is left to stop.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        args = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, __file__, *args], env)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.protocol import (
        END_TO_END_UNITS,
        GATED_UNITS,
        PER_LAYER_UNITS,
        WORKLOADS,
        run_workload,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **git_state(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": HASH_SEED,
        "calibration_ms_before": calibrate(),
    }
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, workdir, bool(args.trace)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    provenance["calibration_ms_after"] = calibrate()
    provenance["yardstick_ms"] = result.yardstick_ms
    provenance["rounds"] = result.rounds
    print("provenance " + json.dumps(provenance, sort_keys=True))

    print(f"{'end-to-end metric':<32} {'value':>14} {'wall clock':>14}  unit")
    for name, unit in END_TO_END_UNITS.items():
        print(
            f"{name:<32} {result.end_to_end[name]:>14.6g}"
            f" {result.wall[name]:>14.6g}  {unit}"
        )
    if args.trace:
        units, values = PER_LAYER_UNITS, result.per_layer
        print(f"{'per-layer metric':<56} {'value':>14}  unit")
        for name, unit in units.items():
            print(f"{name:<56} {values[name]:>14.6g}  {unit}")
    else:
        units, values = GATED_UNITS, result.end_to_end
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
