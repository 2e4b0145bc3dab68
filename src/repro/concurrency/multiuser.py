"""Multi-user loads over one shared server (the section 7 experiment).

The paper: "We have done some experiments with multi-user aspects by
starting up two and more HyperModel applications in parallel and
running the operations as for the single user case."  This module
reproduces that setup deterministically on the discrete-event
scheduler of :mod:`repro.netsim.sim`: N client handles — each with its
own :class:`~repro.netsim.cache.WorkstationCache`, virtual clock and
seeded PRNG — share one :class:`~repro.netsim.server.ObjectServer`
whose requests queue FIFO on a contended transport, so service time,
queueing delay and the latency/fault models are all charged on virtual
clocks and every interleaving is a pure function of the seed.

:class:`MultiUserHarness` is the single entry point, with three load
shapes:

* :meth:`MultiUserHarness.run_read_mix` — the paper's single-user
  operation mix on every client; aggregate throughput is server-bound
  (R6's "centralized control degrades performance") while each
  client's warm operations stay local.
* :meth:`MultiUserHarness.run_disjoint_updates` — clients edit
  disjoint text-node sets and commit; every client then verifies it
  observes all published edits (the shareability half of R9).
* :meth:`MultiUserHarness.run_transactions` — the optimistic
  concurrency workload behind ``repro bench-multiuser``: Zipf-skewed
  reads, one text-node write per transaction (hot shared set with
  probability ``conflict_rate``, a private partition otherwise),
  optimistic validation at commit, abort/retry on conflict.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional

from repro.backends.clientserver import ClientServerDatabase
from repro.core.generator import GeneratedDatabase
from repro.core.operations import Operations
from repro.core.text import edit_text_backward, edit_text_forward
from repro.errors import ConflictError
from repro.netsim.config import NetworkConfig, SimConfig
from repro.netsim.latency import SimulatedClock
from repro.netsim.server import ObjectServer
from repro.netsim.sim import (
    ContendedTransport,
    DiscreteEventScheduler,
    Workstation,
    ZipfSampler,
)
from repro.obs import Instrumentation, resolve


@dataclasses.dataclass
class ParallelLoadResult:
    """Outcome of one multi-user read load run."""

    users: int
    operations_per_user: int
    total_operations: int
    server_seconds: float
    per_user_cache_hit_ratio: List[float]

    @property
    def aggregate_ops_per_second(self) -> float:
        """Total operations over the simulated makespan."""
        if self.server_seconds <= 0:
            return float("inf")
        return self.total_operations / self.server_seconds


@dataclasses.dataclass
class UpdateLoadResult:
    """Outcome of the non-conflicting update workload."""

    users: int
    edits_per_user: int
    published: Dict[int, List[int]]
    all_edits_visible_everywhere: bool

    @property
    def total_edits(self) -> int:
        """Edits committed across all users."""
        return sum(len(uids) for uids in self.published.values())


@dataclasses.dataclass
class TransactionLoadResult:
    """Outcome of one optimistic transaction load (one grid cell)."""

    users: int
    transactions_per_user: int
    conflict_rate: float
    #: Transactions that committed (after any number of retries).
    committed: int
    #: Optimistic aborts (each is one failed commit attempt).
    aborted: int
    #: Transactions abandoned after ``max_retries`` aborts.
    giveups: int
    #: Retry attempts issued (aborts that were followed by a retry).
    retries: int
    #: Simulated duration of the whole parallel run.
    makespan_seconds: float
    #: Virtual commit-to-commit latency of every transaction, ms.
    latencies_ms: List[float]
    #: The same latencies split per client (index = station index), so
    #: callers can build per-client histograms and *merge* them into
    #: the fleet-wide distribution instead of pooling raw samples.
    per_user_latencies_ms: List[List[float]]
    #: Server-side commit/conflict counts for this run.
    server_commits: int
    server_conflicts: int
    #: WAL durability points taken during this run (0 without a WAL).
    wal_syncs: int
    #: Aggregate FIFO queueing delay and server busy time, seconds.
    queue_seconds: float
    busy_seconds: float

    @property
    def throughput_per_second(self) -> float:
        """Committed transactions per simulated second."""
        if self.makespan_seconds <= 0:
            return float("inf")
        return self.committed / self.makespan_seconds

    @property
    def abort_rate(self) -> float:
        """Aborted commit attempts over all commit attempts."""
        attempts = self.committed + self.aborted
        return self.aborted / attempts if attempts else 0.0

    @property
    def fsyncs_per_commit(self) -> float:
        """WAL durability points per committed transaction."""
        if self.server_commits <= 0:
            return 0.0
        return self.wal_syncs / self.server_commits


def _operation_mix(
    ops: Operations, gen: GeneratedDatabase, rng: random.Random
) -> List[Callable[[], object]]:
    """The paper's 'single user case' mix: one op per read category."""
    db = ops.db
    level = min(3, gen.config.levels - 1)
    return [
        lambda: ops.name_lookup(gen.random_uid(rng)),
        lambda: ops.group_lookup_1n(db.lookup(gen.random_internal_uid(rng))),
        lambda: ops.ref_lookup_1n(db.lookup(gen.random_non_root_uid(rng))),
        lambda: ops.closure_1n(db.lookup(gen.random_uid_at_level(rng, level))),
        lambda: ops.closure_mnatt(db.lookup(gen.random_uid_at_level(rng, level))),
    ]


class MultiUserHarness:
    """N simulated workstations on one server, scheduled by events.

    Args:
        server: the shared :class:`ObjectServer` (its latency model is
            the wire every workstation sees).
        gen: the generated structure the workload navigates.
        users: workstation count.
        seed: master seed; per-station PRNGs derive as ``seed + index``.
        network: per-client settings (cache size, retries, push-down,
            concurrency mode); defaults to ``NetworkConfig()``.
        sim: scheduler settings (think time, service time, virtual
            fsync cost, Zipf skew); defaults to ``SimConfig(seed=seed)``.
        instrumentation: counter/span/histogram sink shared by the
            stations and the transport (``backend.mp.*``).
        recorder: optional
            :class:`~repro.obs.timeseries.FlightRecorder`; when set
            (with a positive ``sample_cadence_seconds``) the scheduler
            samples it on the virtual clock, so every load shape can
            emit a deterministic timeline.
        sample_cadence_seconds: virtual seconds between flight-recorder
            samples (0 disables sampling).
        sample_label: label stamped on each sample (benchmarks set this
            per grid cell; mutable between runs).
    """

    def __init__(
        self,
        server: ObjectServer,
        gen: GeneratedDatabase,
        users: int = 2,
        seed: int = 1989,
        network: Optional[NetworkConfig] = None,
        sim: Optional[SimConfig] = None,
        instrumentation: Optional[Instrumentation] = None,
        recorder=None,
        sample_cadence_seconds: float = 0.0,
        sample_label: Optional[str] = None,
    ) -> None:
        if users < 1:
            raise ValueError("need at least one user")
        self.server = server
        self.gen = gen
        self.users = users
        self.seed = seed
        self.network = network or NetworkConfig()
        self.sim = sim or SimConfig(seed=seed)
        self.instrumentation = resolve(instrumentation)
        self.recorder = recorder
        self.sample_cadence_seconds = sample_cadence_seconds
        self.sample_label = sample_label

    # -- plumbing --------------------------------------------------------

    def _stations(self, network: NetworkConfig) -> List[Workstation]:
        stations = []
        for index in range(self.users):
            client = ClientServerDatabase(
                network=network,
                server=self.server,
                instrumentation=self.instrumentation,
                clock=SimulatedClock(),
                client_id=f"w{index:02d}",
            )
            client.open()
            stations.append(
                Workstation(index, client, random.Random(self.seed + index))
            )
        return stations

    def _transport(self) -> ContendedTransport:
        return ContendedTransport(
            self.server.latency,
            self.sim.service_time_seconds,
            instrumentation=self.instrumentation,
            fallback_clock=self.server.clock,
        )

    def _scheduler(self, transport: ContendedTransport) -> DiscreteEventScheduler:
        return DiscreteEventScheduler(
            self.server,
            transport,
            self.sim.think_time_seconds,
            recorder=self.recorder,
            sample_cadence_seconds=self.sample_cadence_seconds,
            sample_label=self.sample_label,
        )

    def _teardown(self, stations: List[Workstation]) -> None:
        for station in stations:
            station.client.close()
            # The client is gone for good (unlike the cold/warm
            # close/reopen cycle) — its cache gauges must not linger
            # in the registry reading a dead cache.
            station.client.cache.unregister_gauges()
            self.server.unsubscribe(station.client.cache)

    # -- load shapes -----------------------------------------------------

    def run_read_mix(
        self, operations_per_user: int = 50
    ) -> ParallelLoadResult:
        """The paper's read mix on every workstation, event-scheduled."""
        stations = self._stations(self.network)
        jobs = []
        for station in stations:
            ops = Operations(station.client, self.gen.config)
            mix = _operation_mix(ops, self.gen, station.rng)
            jobs.append(
                (
                    station,
                    [mix[i % len(mix)] for i in range(operations_per_user)],
                )
            )
        scheduler = self._scheduler(self._transport())
        makespan = scheduler.run(jobs)
        hit_ratios = [s.client.cache.stats.hit_ratio for s in stations]
        self._teardown(stations)
        return ParallelLoadResult(
            users=self.users,
            operations_per_user=operations_per_user,
            total_operations=self.users * operations_per_user,
            server_seconds=makespan,
            per_user_cache_hit_ratio=hit_ratios,
        )

    def run_disjoint_updates(
        self, edits_per_user: int = 3
    ) -> UpdateLoadResult:
        """Disjoint text edits, then cross-visibility verification."""
        rng = random.Random(self.seed)
        needed = self.users * edits_per_user
        if needed > len(self.gen.text_uids):
            raise ValueError("structure has too few text nodes for this load")
        chosen = rng.sample(self.gen.text_uids, needed)
        assignments = {
            user: chosen[user * edits_per_user : (user + 1) * edits_per_user]
            for user in range(self.users)
        }

        stations = self._stations(self.network)
        jobs = []
        for station in stations:
            client = station.client

            def _edit(client, uid):
                def task():
                    ref = client.lookup(uid)
                    client.set_text(
                        ref, edit_text_forward(client.get_text(ref))
                    )

                return task

            tasks = [
                _edit(client, uid) for uid in assignments[station.index]
            ]
            tasks.append(client.commit)
            jobs.append((station, tasks))
        scheduler = self._scheduler(self._transport())
        scheduler.run(jobs)

        # Cross-visibility: fresh caches, then verify every edit.
        all_visible = True
        for station in stations:
            client = station.client
            client.cache.clear()
            for uids in assignments.values():
                for uid in uids:
                    text = client.get_text(client.lookup(uid))
                    if "version-2" not in text:
                        all_visible = False
        self._teardown(stations)
        return UpdateLoadResult(
            users=self.users,
            edits_per_user=edits_per_user,
            published=assignments,
            all_edits_visible_everywhere=all_visible,
        )

    def run_transactions(
        self,
        transactions_per_user: int = 16,
        reads_per_txn: int = 4,
        conflict_rate: float = 0.0,
        hot_set_size: int = 8,
        max_retries: int = 8,
    ) -> TransactionLoadResult:
        """The optimistic transaction workload (one benchmark cell).

        Each transaction reads ``reads_per_txn`` Zipf-skewed records
        from the structure's *internal* nodes, then edits one text
        node: with probability ``conflict_rate`` a member of the
        shared hot set (``hot_set_size`` text nodes everyone fights
        over), otherwise a node from the client's private partition.
        The commit ships write set + read versions in one validated
        request; a conflict aborts the transaction, which retries from
        the top after ``sim.retry_backoff_seconds`` — up to
        ``max_retries`` times before giving up.

        At ``conflict_rate = 0`` the read pools and write partitions
        are disjoint across clients by construction, so the abort rate
        is exactly zero — the benchmark's control cell.
        """
        if not 0.0 <= conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be within [0, 1]")
        network = (
            self.network
            if self.network.concurrency == "optimistic"
            else self.network.replace(concurrency="optimistic")
        )
        text_set = set(self.gen.text_uids)
        read_pool = [
            uid
            for uid in range(self.gen.min_uid, self.gen.max_uid + 1)
            if uid not in text_set
        ]
        hot = list(self.gen.text_uids[:hot_set_size])
        rest = list(self.gen.text_uids[hot_set_size:])
        if len(rest) < self.users:
            raise ValueError(
                "structure has too few text nodes for per-client"
                f" private partitions ({len(rest)} spare, {self.users}"
                " users); generate a deeper structure"
            )
        private = [rest[i :: self.users] for i in range(self.users)]
        zipf = ZipfSampler(len(read_pool), self.sim.zipf_theta)

        stations = self._stations(network)
        instr = self.instrumentation
        tallies = {"committed": 0, "aborted": 0, "giveups": 0, "retries": 0}
        latencies: List[float] = []
        per_user: List[List[float]] = [[] for _ in range(self.users)]
        # Settable OCC gauges: transactions currently between first
        # read and final outcome, and cumulative optimistic aborts.
        # Updated at state transitions (not sampled), so the flight
        # recorder sees the value as of each virtual sample instant.
        occ = {"inflight": 0}
        instr.set_gauge("backend.occ.inflight", 0.0)
        instr.set_gauge("backend.occ.aborted", 0.0)

        def _transaction(station: Workstation) -> Callable[[], object]:
            """One transaction as a two-event state machine.

            The read phase (reads + buffered write) and the commit are
            *separate* scheduler events, so other stations' commits
            interleave between a read and the validation that checks
            it — the window in which optimistic conflicts arise.
            """
            client = station.client
            rng = station.rng
            mine = private[station.index]
            state = {"start": None, "attempts": 0}

            def _finish() -> None:
                latency = (station.clock.now - state["start"]) * 1000.0
                latencies.append(latency)
                per_user[station.index].append(latency)
                occ["inflight"] -= 1
                instr.set_gauge(
                    "backend.occ.inflight", float(occ["inflight"])
                )

            def read_phase() -> Callable[[], object]:
                if state["start"] is None:
                    state["start"] = station.clock.now
                    occ["inflight"] += 1
                    instr.set_gauge(
                        "backend.occ.inflight", float(occ["inflight"])
                    )
                for _ in range(reads_per_txn):
                    uid = read_pool[zipf.sample(rng)]
                    client.get_attribute(uid, "hundred")
                if hot and rng.random() < conflict_rate:
                    target = hot[rng.randrange(len(hot))]
                else:
                    target = mine[rng.randrange(len(mine))]
                text = client.get_text(target)
                client.set_text(
                    target,
                    edit_text_forward(text)
                    if "version1" in text
                    else edit_text_backward(text),
                )
                return commit_phase

            def commit_phase() -> Optional[Callable[[], object]]:
                try:
                    client.commit()
                except ConflictError:
                    # commit() already dropped the write buffer and
                    # invalidated the stale cached copies.
                    tallies["aborted"] += 1
                    instr.count("backend.mp.txn.aborted")
                    instr.set_gauge(
                        "backend.occ.aborted", float(tallies["aborted"])
                    )
                    state["attempts"] += 1
                    if state["attempts"] > max_retries:
                        tallies["giveups"] += 1
                        instr.count("backend.mp.txn.giveups")
                        _finish()
                        return None
                    tallies["retries"] += 1
                    instr.count("backend.mp.txn.retries")
                    if self.sim.retry_backoff_seconds:
                        station.clock.advance(
                            self.sim.retry_backoff_seconds
                        )
                    return read_phase
                tallies["committed"] += 1
                instr.count("backend.mp.txn.committed")
                _finish()
                return None

            return read_phase

        jobs = [
            (
                station,
                [_transaction(station) for _ in range(transactions_per_user)],
            )
            for station in stations
        ]
        commits_before = self.server.stats.commits
        conflicts_before = self.server.stats.commit_conflicts
        syncs_before = self.server.wal.syncs if self.server.wal else 0
        transport = self._transport()
        scheduler = self._scheduler(transport)
        makespan = scheduler.run(jobs)
        self._teardown(stations)
        return TransactionLoadResult(
            users=self.users,
            transactions_per_user=transactions_per_user,
            conflict_rate=conflict_rate,
            committed=tallies["committed"],
            aborted=tallies["aborted"],
            giveups=tallies["giveups"],
            retries=tallies["retries"],
            makespan_seconds=makespan,
            latencies_ms=latencies,
            per_user_latencies_ms=per_user,
            server_commits=self.server.stats.commits - commits_before,
            server_conflicts=(
                self.server.stats.commit_conflicts - conflicts_before
            ),
            wal_syncs=(
                (self.server.wal.syncs if self.server.wal else 0)
                - syncs_before
            ),
            queue_seconds=transport.queue_seconds,
            busy_seconds=transport.busy_seconds,
        )
