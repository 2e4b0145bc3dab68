"""The multi-user grid benchmark behind ``BENCH_multiuser.json``.

The paper's section 7 stops at "we have done some experiments with
multi-user aspects"; this module runs the experiment the authors
sketched, deterministically.  A clients × conflict-rate grid of
optimistic transaction loads runs on the discrete-event scheduler
(:class:`~repro.concurrency.multiuser.MultiUserHarness`): every cell
gets a fresh :class:`~repro.netsim.server.ObjectServer` seeded with
the *same* generated structure and a write-ahead log in group-commit
mode, so the numbers answer three questions at once:

* **saturation** — committed transactions per simulated second rises
  with the client count, then flattens at the server's service rate
  (the closed-queueing-network ceiling ``min(N/(Z+D), 1/D)``);
* **contention** — the optimistic abort rate is exactly zero in the
  ``conflict 0.0`` control column and grows with client count in the
  hot-set columns;
* **durability cost** — a side-by-side WAL comparison at the largest
  client count shows group commit amortizing fsyncs across
  near-simultaneous commits (``fsyncs_per_commit`` drops from 1.0
  toward ``1 / group_commit_size``).

All times are *virtual*: the document is a pure function of the seed
and the grid, byte-identical across machines, which is why CI can diff
it against a committed baseline with ``repro bench-diff`` (cells carry
the same ``p50_ms``/``p90_ms``/``p99_ms`` + ``mode`` shape as the
closure benchmark).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Any, Dict, Optional, Sequence

from repro.core.generator import GeneratedDatabase
from repro.engine.wal import WriteAheadLog
from repro.harness.grid import generate_structure, latency_leaf
from repro.harness.provenance import provenance
from repro.netsim.config import NetworkConfig, SimConfig
from repro.netsim.latency import LatencyModel
from repro.netsim.server import ObjectServer
from repro.obs import FlightRecorder, Instrumentation, LatencyHistogram

#: Default grid: client counts × conflict probabilities.
DEFAULT_CLIENTS = (1, 2, 4, 8)
DEFAULT_CONFLICT_RATES = (0.0, 0.2)


@dataclasses.dataclass
class MultiUserCell:
    """One (clients, conflict-rate) grid cell.

    ``p50_ms``/``p90_ms``/``p99_ms`` summarize per-transaction virtual
    latency (begin to successful commit, retries included) through a
    log-bucketed histogram whose full bucket form rides in
    ``histogram``; ``mode`` is always ``"multiuser"`` so
    ``repro bench-diff`` gates these cells separately from the closure
    benchmark's.
    """

    clients: int
    conflict_rate: float
    transactions: int
    committed: int
    aborted: int
    giveups: int
    retries: int
    abort_rate: float
    throughput_per_s: float
    makespan_s: float
    p50_ms: float = 0.0
    p90_ms: float = 0.0
    p99_ms: float = 0.0
    max_ms: float = 0.0
    histogram: Dict[str, object] = dataclasses.field(default_factory=dict)
    queue_s: float = 0.0
    busy_s: float = 0.0
    server_commits: int = 0
    server_conflicts: int = 0
    wal_syncs: int = 0
    fsyncs_per_commit: float = 0.0
    mode: str = "multiuser"

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _fresh_server(
    records: Dict[int, Dict[str, Any]],
    wal: Optional[WriteAheadLog],
    sim: SimConfig,
    instrumentation: Optional[Instrumentation] = None,
) -> ObjectServer:
    server = ObjectServer(
        latency=LatencyModel(),
        instrumentation=instrumentation,
        wal=wal,
        fsync_seconds=sim.fsync_seconds,
    )
    server.load_records(records)
    return server


def _run_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    wal: Optional[WriteAheadLog],
    clients: int,
    conflict_rate: float,
    transactions_per_client: int,
    reads_per_txn: int,
    hot_set_size: int,
    seed: int,
    sim: SimConfig,
    instrumentation: Optional[Instrumentation] = None,
    recorder: Optional[FlightRecorder] = None,
    sample_cadence_seconds: float = 0.0,
    sample_label: Optional[str] = None,
) -> MultiUserCell:
    from repro.concurrency.multiuser import MultiUserHarness

    server = _fresh_server(records, wal, sim, instrumentation)
    harness = MultiUserHarness(
        server,
        gen,
        users=clients,
        seed=seed,
        network=NetworkConfig(concurrency="optimistic"),
        sim=sim,
        instrumentation=instrumentation,
        recorder=recorder,
        sample_cadence_seconds=sample_cadence_seconds,
        sample_label=sample_label,
    )
    result = harness.run_transactions(
        transactions_per_user=transactions_per_client,
        reads_per_txn=reads_per_txn,
        conflict_rate=conflict_rate,
        hot_set_size=hot_set_size,
    )
    # Fleet distribution by *merging* per-client histograms — the
    # aggregation path a sharded fleet would use.  Bucket addition is
    # exact, so this equals from_samples(pooled) bit for bit (pinned
    # by tests/test_histograms.py) and the baseline-gated cells are
    # unchanged.
    hist = LatencyHistogram()
    for client_latencies in result.per_user_latencies_ms:
        hist.merge(LatencyHistogram.from_samples(client_latencies))
    return MultiUserCell(
        clients=clients,
        conflict_rate=conflict_rate,
        transactions=clients * transactions_per_client,
        committed=result.committed,
        aborted=result.aborted,
        giveups=result.giveups,
        retries=result.retries,
        abort_rate=round(result.abort_rate, 6),
        throughput_per_s=round(result.throughput_per_second, 4),
        makespan_s=round(result.makespan_seconds, 6),
        histogram=hist.to_dict(),
        **latency_leaf(hist),
        queue_s=round(result.queue_seconds, 6),
        busy_s=round(result.busy_seconds, 6),
        server_commits=result.server_commits,
        server_conflicts=result.server_conflicts,
        wal_syncs=result.wal_syncs,
        fsyncs_per_commit=round(result.fsyncs_per_commit, 6),
    )


def run_multiuser_bench(
    clients: Sequence[int] = DEFAULT_CLIENTS,
    conflict_rates: Sequence[float] = DEFAULT_CONFLICT_RATES,
    level: int = 3,
    transactions_per_client: int = 8,
    reads_per_txn: int = 4,
    hot_set_size: int = 8,
    seed: int = 1989,
    group_commit_size: int = 8,
    workdir: Optional[str] = None,
    instrumentation: Optional[Instrumentation] = None,
    timeline: Optional[str] = None,
    timeline_cadence_seconds: float = 0.02,
) -> Dict[str, object]:
    """Run the clients × conflict grid; return the JSON document.

    The structure is generated once (level ``level``, seed ``seed``)
    and replayed into a fresh server per cell, so cells are
    independent and the grid order does not matter.  Every grid cell
    runs with a group-commit WAL; the extra ``wal`` section re-runs
    the largest client count at conflict 0.0 with per-commit fsyncs
    versus group commit, which is the "group commit measurably reduces
    fsyncs per commit" evidence.

    ``timeline`` writes a flight-recorder JSONL to that path: every
    cell is sampled on the virtual clock each
    ``timeline_cadence_seconds``, with the cell's grid coordinates as
    the sample label.  The samples are a pure function of the seed
    (byte-identical across runs) and strictly additive — the returned
    document is unchanged.  When no instrumentation handle was passed,
    a private one is created so the timeline works against an
    otherwise-disabled run.
    """
    clients = sorted(set(int(n) for n in clients))
    if not clients or clients[0] < 1:
        raise ValueError("client counts must be positive")
    conflict_rates = sorted(set(float(r) for r in conflict_rates))
    if not all(0.0 <= rate <= 1.0 for rate in conflict_rates):
        raise ValueError("conflict rates must be within [0, 1]")
    sim = SimConfig(seed=seed)
    recorder = None
    cadence = 0.0
    if timeline is not None:
        if instrumentation is None:
            instrumentation = Instrumentation()
        recorder = FlightRecorder(
            instrumentation, capacity=65536, clock="virtual"
        )
        cadence = timeline_cadence_seconds
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="hypermodel-mp-")
        workdir = own_tmp.name
    try:
        gen, records = generate_structure(level, seed)

        def run_cell(
            wal_name: str, n: int, rate: float, label: str, **wal_options: Any
        ) -> MultiUserCell:
            wal = WriteAheadLog(
                os.path.join(workdir, wal_name),
                sync_on_commit=False,
                **wal_options,
            )
            try:
                return _run_cell(
                    gen,
                    records,
                    wal,
                    n,
                    rate,
                    transactions_per_client,
                    reads_per_txn,
                    hot_set_size,
                    seed,
                    sim,
                    instrumentation,
                    recorder=recorder,
                    sample_cadence_seconds=cadence,
                    sample_label=label,
                )
            finally:
                wal.close()

        group_commit = {
            "group_commit": True,
            "group_commit_size": group_commit_size,
        }
        cells: Dict[str, Dict[str, Dict[str, object]]] = {
            f"clients-{n}": {
                f"conflict-{rate:g}": run_cell(
                    f"mp-{n}-{rate}.wal",
                    n,
                    rate,
                    f"clients-{n}/conflict-{rate:g}",
                    **group_commit,
                ).to_json()
                for rate in conflict_rates
            }
            for n in clients
        }

        # WAL ablation: per-commit fsync vs group commit at the
        # largest client count, conflict 0.0 (clean commit stream).
        top = clients[-1]
        wal_section: Dict[str, object] = {
            "clients": top,
            "conflict_rate": 0.0,
            "group_commit_size": group_commit_size,
        }
        for label, wal_options in (
            ("per_commit", {}),
            ("group_commit", group_commit),
        ):
            cell = run_cell(
                f"mp-wal-{label}.wal", top, 0.0, f"wal/{label}", **wal_options
            )
            wal_section[label] = {
                "fsyncs_per_commit": cell.fsyncs_per_commit,
                "wal_syncs": cell.wal_syncs,
                "server_commits": cell.server_commits,
                "throughput_per_s": cell.throughput_per_s,
                "makespan_s": cell.makespan_s,
            }
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()

    if recorder is not None and timeline is not None:
        recorder.write_jsonl(timeline)

    return {
        "benchmark": "multiuser",
        "level": level,
        "seed": seed,
        "clients": clients,
        "conflict_rates": conflict_rates,
        "transactions_per_client": transactions_per_client,
        "reads_per_txn": reads_per_txn,
        "hot_set_size": hot_set_size,
        "group_commit_size": group_commit_size,
        "provenance": provenance(
            clients=clients,
            conflict_rates=conflict_rates,
            level=level,
            transactions_per_client=transactions_per_client,
            seed=seed,
        ),
        "cells": cells,
        "wal": wal_section,
    }


def format_summary(document: Dict[str, object]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"multi-user optimistic grid — level {document['level']}, "
        f"{document['transactions_per_client']} txns/client, "
        f"seed {document['seed']}",
        f"{'clients':>8}{'conflict':>10}{'committed':>11}{'aborted':>9}"
        f"{'abort%':>8}{'tput/s':>9}{'p50 ms':>9}{'p99 ms':>9}"
        f"{'fsync/c':>9}",
    ]
    cells = document["cells"]
    for client_key in sorted(
        cells, key=lambda k: int(k.split("-", 1)[1])
    ):  # type: ignore[union-attr]
        for rate_key in sorted(
            cells[client_key], key=lambda k: float(k.split("-", 1)[1])
        ):
            cell = cells[client_key][rate_key]
            lines.append(
                f"{cell['clients']:>8}{cell['conflict_rate']:>10.2f}"
                f"{cell['committed']:>11}{cell['aborted']:>9}"
                f"{cell['abort_rate'] * 100:>7.1f}%"
                f"{cell['throughput_per_s']:>9.1f}"
                f"{cell['p50_ms']:>9.2f}{cell['p99_ms']:>9.2f}"
                f"{cell['fsyncs_per_commit']:>9.3f}"
            )
    wal = document.get("wal") or {}
    if wal:
        per = wal.get("per_commit", {})
        grp = wal.get("group_commit", {})
        lines.append(
            f"wal @ {wal['clients']} clients: "
            f"{per.get('fsyncs_per_commit', 0):.3f} fsyncs/commit"
            f" per-commit vs {grp.get('fsyncs_per_commit', 0):.3f}"
            f" grouped (size {wal['group_commit_size']})"
        )
    return "\n".join(lines)
