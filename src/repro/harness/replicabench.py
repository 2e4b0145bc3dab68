"""The replication grid benchmark behind ``BENCH_replica.json``.

Measures the read-scaling claim of the replication layer over a
replica-count × write-rate × staleness-bound grid, in **virtual time**
(the document is a pure function of the grid and the seed, so CI
hard-gates it with ``repro bench-diff`` against
``benchmarks/baseline/BENCH_replica.json``):

* **read throughput and latency** — N reader workstations run cold
  closure push-down reads through their per-client
  :class:`~repro.replication.router.ReplicaRouter`; each replica
  serves its routed reads on its own contended transport lane
  (:func:`repro.netsim.sim.replica_lanes`), so reads stop queueing
  behind each other as replicas are added — the headline scaling
  figure (``scaling`` records the 1→max-replica throughput ratio per
  write-rate/lag combination).
* **write interference** — one writer workstation commits at a fixed
  virtual rate onto the primary lane; each reader also writes once
  mid-run, so under a non-zero apply lag its next reads must fall
  back to the primary until a replica catches up to its session LSN
  (the ``fallbacks`` count in each cell makes the read-your-writes
  tax visible).
* **routing cell** — a single-client comparison arm: the same cold
  closure served by a replica, forced to the primary
  (``ReplicaRouter.force_primary``), and warm from the workstation
  cache, confirming replica-served reads cost exactly what
  primary-served reads cost on an idle system.

Cells carry the same ``p50_ms``/``p90_ms``/``p99_ms`` + ``mode`` leaf
shape the other benchmarks use, under
``cells[replicas<N>-write<W>-lag<L>ms][reads|writes]``.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.core.generator import GeneratedDatabase
from repro.harness.grid import closure_ms, generate_structure, latency_leaf
from repro.harness.provenance import provenance
from repro.netsim.config import ReplicationConfig
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.sim import (
    DiscreteEventScheduler,
    LaneGroup,
    Workstation,
    replica_lanes,
)
from repro.obs import FlightRecorder, Instrumentation
from repro.replication.group import ReplicationGroup

#: Default grid: replica counts × writer rates (writes per virtual
#: second) × apply lags (seconds).
DEFAULT_REPLICAS = (1, 2, 4)
DEFAULT_WRITE_RATES = (0.0, 40.0)
DEFAULT_LAGS = (0.0, 0.02)

#: Workload shape per cell.  Read scaling needs the *station pool* to
#: out-offer a single lane by more than the replica-count spread:
#: closures are drawn from the root's level-1 subtrees (uniform size,
#: so no one giant closure dominates the critical path) and 16 reader
#: stations keep even 4 replica lanes saturated.
_READERS = 16
_WRITER_WRITES = 12
_ROOT_LEVEL = 1
_SERVICE_SECONDS = 0.0002
_THINK_SECONDS = 0.002


def _cell_key(replicas: int, write_rate: float, lag: float) -> str:
    return (
        f"replicas{replicas}-write{int(round(write_rate))}"
        f"-lag{int(round(lag * 1000))}ms"
    )


def _run_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    replicas: int,
    write_rate: float,
    lag: float,
    reads_per_reader: int,
    seed: int,
    recorder: Optional[FlightRecorder] = None,
) -> Dict[str, Any]:
    from repro.backends.clientserver import ClientServerDatabase

    instr = Instrumentation()
    latency = LatencyModel()
    group = ReplicationGroup(
        ReplicationConfig(replicas=replicas, apply_lag_seconds=lag),
        latency=latency,
        instrumentation=instr,
    )
    group.load_records(records)
    lanes = replica_lanes(
        latency,
        replicas,
        service_time_seconds=_SERVICE_SECONDS,
        instrumentation=instr,
        fallback_clock=group.clock,
    )
    transport = LaneGroup(lanes)
    cell_key = _cell_key(replicas, write_rate, lag)
    if recorder is not None:
        recorder.rebind(instr)

    read_samples: List[float] = []
    write_samples: List[float] = []

    def station(index: int, client_id: str, rng: random.Random) -> Workstation:
        client = ClientServerDatabase(
            server=group,
            clock=SimulatedClock(),
            instrumentation=instr,
            client_id=client_id,
        )
        client.open()
        return Workstation(index, client, rng)

    def timed_write(client: Any, rng: random.Random, value: int) -> None:
        uid = gen.random_uid(rng)
        start = client.simulated_clock.now
        client.set_attribute(uid, "ten", value)
        client.commit()
        write_samples.append((client.simulated_clock.now - start) * 1000.0)

    jobs = []
    total_reads = 0
    for index in range(_READERS):
        rng = random.Random(seed * 6151 + index * 97 + replicas)
        reader = station(index, f"w{index:02d}", rng)
        client = reader.client
        tasks = []
        for step in range(reads_per_reader):
            if step == reads_per_reader // 2:
                # One mid-run write per reader: under a non-zero lag
                # the session token now outruns every replica, so the
                # next reads fall back to the primary until a replica
                # applies this commit — read-your-writes, measured.
                tasks.append(
                    functools.partial(timed_write, client, rng, step % 10)
                )

            def read_closure(client=client, rng=rng):
                root = gen.random_uid_at_level(rng, _ROOT_LEVEL)
                read_samples.append(closure_ms(client, root))

            tasks.append(read_closure)
            total_reads += 1
        jobs.append((reader, tasks))

    if write_rate > 0:
        wrng = random.Random(seed * 7583 + replicas * 11)
        writer = station(_READERS, "wr", wrng)
        interval = 1.0 / write_rate

        def paced_write(step: int) -> None:
            # Self-paced: the writer advances its own clock to the
            # next beat, so its commit rate is the grid's write rate
            # regardless of the global think time.
            writer.client.simulated_clock.advance(interval)
            timed_write(writer.client, wrng, step % 10)

        paced = [functools.partial(paced_write, n) for n in range(_WRITER_WRITES)]
        jobs.append((writer, paced))

    before = instr.snapshot()
    scheduler = DiscreteEventScheduler(
        group,
        transport,
        think_time_seconds=_THINK_SECONDS,
        recorder=recorder,
        sample_cadence_seconds=0.05 if recorder is not None else 0.0,
        sample_label=cell_key,
    )
    makespan = scheduler.run(jobs)
    delta = instr.delta_since(before)
    for station, _tasks in jobs:
        station.client.close()

    replica_reads = int(delta.get("backend.replica.reads", 0))
    fallbacks = int(delta.get("backend.replica.fallbacks", 0))
    cell: Dict[str, Any] = {
        "reads": latency_leaf(
            read_samples,
            mode="replica-read",
            samples=len(read_samples),
            throughput_per_s=round(total_reads / makespan, 4)
            if makespan > 0
            else 0.0,
            replica_reads=replica_reads,
            fallbacks=fallbacks,
            makespan_s=round(makespan, 6),
        )
    }
    if write_samples:
        cell["writes"] = latency_leaf(
            write_samples,
            mode="replica-write",
            samples=len(write_samples),
            writes=len(write_samples),
        )
    return cell


def _run_routing_cell(
    gen: GeneratedDatabase,
    records: Dict[int, Dict[str, Any]],
    closures: int,
    seed: int,
) -> Dict[str, Any]:
    """Single-client comparison arm: replica vs primary vs warm."""
    from repro.backends.clientserver import ClientServerDatabase

    instr = Instrumentation()
    group = ReplicationGroup(
        ReplicationConfig(replicas=1), instrumentation=instr
    )
    group.load_records(records)
    client = ClientServerDatabase(server=group, instrumentation=instr)
    client.open()
    rng = random.Random(seed * 9377)
    roots = [gen.random_internal_uid(rng) for _ in range(closures)]

    def timed_closures(force_primary: bool, cold: bool) -> List[float]:
        client.server.force_primary = force_primary
        samples = [closure_ms(client, root, cold) for root in roots]
        client.server.force_primary = False
        return samples

    replica_cold = timed_closures(force_primary=False, cold=True)
    primary_cold = timed_closures(force_primary=True, cold=True)
    warm = timed_closures(force_primary=False, cold=False)
    client.close()
    return {
        key: latency_leaf(samples, mode=mode, samples=len(samples))
        for key, samples, mode in (
            ("replica_cold", replica_cold, "replica-routed"),
            ("primary_cold", primary_cold, "primary-forced"),
            ("warm", warm, "workstation-warm"),
        )
    }


def run_replica_bench(
    replica_counts: Sequence[int] = DEFAULT_REPLICAS,
    write_rates: Sequence[float] = DEFAULT_WRITE_RATES,
    lags: Sequence[float] = DEFAULT_LAGS,
    level: int = 4,
    reads_per_reader: int = 8,
    routing_closures: int = 6,
    seed: int = 1989,
    timeline: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the replica grid; return the JSON document.

    The structure is generated once (level ``level``, seed ``seed``)
    and loaded into a fresh replication group per cell, so cells are
    independent and grid order does not matter.  ``timeline`` writes a
    flight-recorder JSONL (cadence samples of the lane backlogs and
    the ``backend.replica.<i>.applied_lsn``/``lag`` gauges, stamped at
    the virtual clock with the cell key as label).
    """
    replica_counts = sorted(set(int(n) for n in replica_counts))
    if not replica_counts or replica_counts[0] < 1:
        raise ValueError("replica counts must be positive")
    for lag in lags:
        ReplicationConfig(replicas=max(replica_counts), apply_lag_seconds=lag)
    gen, records = generate_structure(level, seed)
    recorder = None
    if timeline is not None:
        recorder = FlightRecorder(None, capacity=65536, clock="virtual")
    cells: Dict[str, Dict[str, Any]] = {}
    for replicas in replica_counts:
        for write_rate in write_rates:
            for lag in lags:
                cells[_cell_key(replicas, write_rate, lag)] = _run_cell(
                    gen,
                    records,
                    replicas,
                    write_rate,
                    lag,
                    reads_per_reader,
                    seed,
                    recorder=recorder,
                )
    cells["routing"] = _run_routing_cell(gen, records, routing_closures, seed)
    if recorder is not None and timeline is not None:
        recorder.write_jsonl(timeline)
    scaling: Dict[str, float] = {}
    low, high = replica_counts[0], replica_counts[-1]
    if high > low:
        for write_rate in write_rates:
            for lag in lags:
                base = cells[_cell_key(low, write_rate, lag)]["reads"]
                top = cells[_cell_key(high, write_rate, lag)]["reads"]
                if base["throughput_per_s"] > 0:
                    scaling[
                        f"write{int(round(write_rate))}"
                        f"-lag{int(round(lag * 1000))}ms"
                    ] = round(
                        top["throughput_per_s"] / base["throughput_per_s"],
                        4,
                    )
    return {
        "benchmark": "replica",
        "level": level,
        "seed": seed,
        "replica_counts": list(replica_counts),
        "write_rates": [float(rate) for rate in write_rates],
        "lags": [float(lag) for lag in lags],
        "readers": _READERS,
        "reads_per_reader": reads_per_reader,
        "scaling": scaling,
        "provenance": provenance(
            replica_counts=list(replica_counts),
            write_rates=[float(rate) for rate in write_rates],
            lags=[float(lag) for lag in lags],
            level=level,
            reads_per_reader=reads_per_reader,
            seed=seed,
        ),
        "cells": cells,
    }


def format_summary(document: Dict[str, Any]) -> str:
    """A small fixed-width table of the document (for the CLI)."""
    lines = [
        f"replica grid — level {document['level']},"
        f" {document['readers']}×{document['reads_per_reader']} closure"
        f" reads per cell, seed {document['seed']}",
        f"{'cell':>26}{'read p50':>10}{'p99':>9}{'tput/s':>9}"
        f"{'fallbacks':>11}",
    ]
    for key in sorted(document["cells"]):
        cell = document["cells"][key]
        if "reads" not in cell:
            continue
        reads = cell["reads"]
        lines.append(
            f"{key:>26}{reads['p50_ms']:>10.3f}{reads['p99_ms']:>9.3f}"
            f"{reads['throughput_per_s']:>9.1f}{reads['fallbacks']:>11}"
        )
    routing = document["cells"].get("routing")
    if routing:
        lines.append(
            "routing (1 client): replica cold"
            f" {routing['replica_cold']['p50_ms']:.3f} ms, primary cold"
            f" {routing['primary_cold']['p50_ms']:.3f} ms, warm"
            f" {routing['warm']['p50_ms']:.3f} ms"
        )
    for combo in sorted(document.get("scaling", {})):
        lines.append(
            f"scaling {document['replica_counts'][0]}→"
            f"{document['replica_counts'][-1]} @ {combo}:"
            f" {document['scaling'][combo]:.2f}x"
        )
    return "\n".join(lines)
