"""Self-test of the benchmark at level 3 (156 nodes); about 25 s.

    python3 perfbench/selftest.py

Checks that every workload reports every metric with its unit, that the
traced ledger adds up and holds layer ownership, that a layer with no
calls fails the run, that inputs do not depend on ``PYTHONHASHSEED``,
and that a backend giving wrong answers yields ``failed_frac > 0``.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.backends.registry import create_backend  # noqa: E402

from perfbench.protocol import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    WORKLOADS,
    run_workload,
)

LEVEL = 3
SECONDS = 0.5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


class DropLastChild:
    """A real backend whose ``children_many`` drops each node's last child."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def children_many(self, refs):
        return [kids[:-1] for kids in self._inner.children_many(refs)]


def inputs_in_subprocess(hash_seed: str) -> str:
    code = (
        "import sys; sys.path[:0] = [sys.argv[1] + '/src', sys.argv[1]]\n"
        "from repro.backends.registry import create_backend\n"
        "from repro.core.config import HyperModelConfig\n"
        "from repro.core.generator import DatabaseGenerator\n"
        "from repro.core.operations import CATALOG\n"
        "from perfbench.oracle import draw_inputs\n"
        "db = create_backend('sqlite'); db.open()\n"
        "gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=7)).generate(db)\n"
        "print([draw_inputs(s, gen, db, 7, 2) for s in CATALOG])\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", code, ROOT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def main() -> int:
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for workload in WORKLOADS.values():
            plain = run_workload(workload, 1, SECONDS, workdir, level=LEVEL)
            check(
                set(plain.end_to_end) == set(END_TO_END_UNITS),
                f"{workload.name} end-to-end metrics {sorted(plain.end_to_end)}",
            )
            check(plain.correct, f"{workload.name} gave wrong answers")
            check(plain.end_to_end["failed_frac"] == 0.0, "failed_frac is not 0")
            # The traced run raises if a pass's ledger does not add up or
            # a layer is used where it must not be.
            traced = run_workload(workload, 1, SECONDS, workdir, trace=True, level=LEVEL)
            check(
                set(traced.per_layer) == set(PER_LAYER_UNITS),
                f"{workload.name} per-layer metrics differ from the declared set",
            )
            print(f"selftest: {workload.name} ok")

        sqlite = WORKLOADS["sqlite-L5"]
        missing = dataclasses.replace(
            sqlite, expected_layers=sqlite.expected_layers + ("engine.serializer",)
        )
        try:
            run_workload(missing, 1, SECONDS, workdir, trace=True, level=LEVEL)
        except RuntimeError as exc:
            check("recorded no calls" in str(exc), f"unexpected error {exc}")
        else:
            check(False, "a layer with no calls did not fail the run")
        print("selftest: a layer with no calls fails the run")

        check(
            inputs_in_subprocess("1") == inputs_in_subprocess("2"),
            "inputs depend on PYTHONHASHSEED",
        )
        print("selftest: inputs are independent of PYTHONHASHSEED")

        wrong = run_workload(
            sqlite,
            1,
            SECONDS,
            workdir,
            level=LEVEL,
            make_backend=lambda path, **o: DropLastChild(create_backend("sqlite", path, **o)),
        )
        check(wrong.end_to_end["failed_frac"] > 0, "a wrong backend passed the oracle")
        check(not wrong.correct, "a wrong backend was reported correct")
        print(f"selftest: wrong backend failed_frac {wrong.end_to_end['failed_frac']:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
