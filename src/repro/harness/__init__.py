"""The benchmark harness: the paper's measurement protocol.

* :mod:`repro.harness.timing` — timers (wall clock + simulated network
  clock) and summary statistics;
* :mod:`repro.harness.protocol` — the section 5.3 cold/warm operation
  sequence (open, 50 cold, commit, 50 warm, close) normalized to
  milliseconds per node;
* :mod:`repro.harness.results` — result records with JSON persistence;
* :mod:`repro.harness.report` — paper-style result tables;
* :mod:`repro.harness.runner` — the full grid driver
  (backends x levels x operations);
* :mod:`repro.harness.batchbench` — the closure benchmark (ops 10-12
  per backend, ``repro bench-closure``);
* :mod:`repro.harness.multiuserbench`, :mod:`repro.harness.shardbench`
  and :mod:`repro.harness.replicabench` — the virtual-time grids
  (``repro bench-multiuser``, ``bench-sharded``, ``bench-replica``);
* :mod:`repro.harness.crashtest` — the crash-recovery matrix (kill the
  engine at every mutating I/O operation, reopen, verify atomicity and
  durability), surfaced as the ``repro crashtest`` CLI subcommand;
* :mod:`repro.harness.shardcrash` and :mod:`repro.harness.replicacrash`
  — the two-phase-commit and failover drills (``crashtest --two-phase``
  and ``--failover``);
* :mod:`repro.harness.grid` — what those benches and drills share: the
  structure snapshot, the latency leaf, the timed closure and the
  crash-point loop;
* :mod:`repro.harness.benchdiff` — ``repro bench-diff`` and
  ``write_document``, the one writer of every ``BENCH_*.json``.
"""

from repro.harness.protocol import ColdWarmResult, run_operation_sequence
from repro.harness.results import ResultSet
from repro.harness.runner import BenchmarkRunner, RunnerConfig
from repro.harness.timing import Stats, Timer

__all__ = [
    "ColdWarmResult",
    "run_operation_sequence",
    "ResultSet",
    "BenchmarkRunner",
    "RunnerConfig",
    "Stats",
    "Timer",
]
