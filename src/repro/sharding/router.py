"""The shard router: client-side fan-out over N object servers.

:class:`ShardRouter` implements the
:class:`~repro.netsim.server.ServerVerbs` surface of a single
:class:`~repro.netsim.server.ObjectServer`, so
:class:`~repro.backends.clientserver.ClientServerDatabase` plugs it in
as its ``server`` unchanged — every workstation-cache, retry and
trace-propagation behaviour carries over.  Behind the surface:

* **Point reads** (``fetch``, ``exists``, ``store``) route to the one
  shard the :class:`~repro.sharding.placement.Placement` policy names;
  ``fetch_many`` partitions its batch into one sub-batch per owning
  shard (one round trip each).
* **Closure push-down** (``traverse``, ``readahead``) scatter-gathers:
  each round sends every shard *one* multi-seed ``traverse_shard``
  call for the frontier uids it owns; shards walk their local records
  and hand back **border OIDs** — cross-shard edge targets with their
  remaining depth budget — which the router groups by placement into
  the next round.  Total RPC count is O(shards × depth-crossing
  rounds), never O(nodes), pinned by a regression test.
* **Commits**: a transaction whose write/read/list sets touch one
  shard commits with that shard's ordinary one-round-trip
  ``commit_batch``.  A multi-shard transaction runs **two-phase
  commit** with the router as coordinator: phase one sends each
  participant its slice via ``prepare_batch`` (validated, WAL-logged
  with a PREPARE record, pinned); a unanimous yes is force-logged to
  the coordinator's *decision log*, then phase two delivers
  ``commit_prepared`` to every participant.  Any validation conflict
  or exhausted prepare aborts every participant (presumed abort — the
  abort decision needs no forced log write).

Recovery contract (presumed abort): a participant that crashes after
PREPARE re-parks the transaction in doubt on
:meth:`~repro.netsim.server.ObjectServer.recover_from_wal`;
:meth:`ShardRouter.resolve_in_doubt` then consults the decision log —
a logged COMMIT means deliver ``commit_prepared``, anything else
(including a coordinator that crashed before logging) means
``abort_prepared``.  Either way every shard lands on the same side.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.wal import WriteAheadLog
from repro.errors import (
    InvalidOperationError,
    NetworkError,
    NodeNotFoundError,
    RpcExhaustedError,
    StorageError,
)
from repro.netsim.config import ShardConfig
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.server import ObjectServer, RouterBase, fan_out_transport
from repro.obs import Instrumentation, TraceContext, resolve
from repro.sharding.placement import Placement, _digest, make_placement

#: Safety cap on decision-delivery attempts after a *logged* commit.
#: The decision is durable, so giving up must not look like a retryable
#: network fault (the client would restart the transaction); past this
#: cap the router raises ``StorageError`` and ``resolve_in_doubt``
#: finishes the delivery.
_DECISION_ATTEMPTS = 64


def _budget(value: Optional[int]) -> float:
    return float("inf") if value is None else float(value)


class ShardRouter(RouterBase):
    """Coordinator + scatter-gather fan-out over N shard servers.

    Args:
        config: shard count and placement policy.
        clock: shared virtual clock (one client's timeline); every
            shard server built here charges it.
        latency: wire model for built servers.
        instrumentation: counter/span sink shared with the client.
        fault_model: seeded fault injection shared by built servers
            (one model, consulted in request order, keeps the fault
            sequence deterministic across the fan-out).
        wals: optional per-shard write-ahead logs for built servers.
        decision_log: the coordinator's durable decision record — a
            plain :class:`~repro.engine.wal.WriteAheadLog`; a commit
            decision is ``log_commit(txid, [])``, absence means abort.
            Without one, 2PC still runs but a coordinator crash loses
            undecided transactions to presumed abort (which is the
            correct default).
        servers: pre-built shard servers (crash harnesses build their
            own with per-shard fault/VFS wiring); overrides the
            construction knobs above.
        placement: pre-built placement policy (defaults to
            ``make_placement(config)``).
        rpc_retries / rpc_backoff_seconds: the router's *internal*
            retry budget for 2PC phase RPCs (prepare must either
            finish or abort cleanly before the error surfaces, so the
            client's own retry wrapper cannot manage these).
    """

    def __init__(
        self,
        config: ShardConfig,
        *,
        clock: Optional[SimulatedClock] = None,
        latency: Optional[LatencyModel] = None,
        instrumentation: Optional[Instrumentation] = None,
        fault_model: Optional[FaultModel] = None,
        wals: Optional[Sequence[Optional[WriteAheadLog]]] = None,
        decision_log: Optional[WriteAheadLog] = None,
        servers: Optional[Sequence[ObjectServer]] = None,
        placement: Optional[Placement] = None,
        fsync_seconds: float = 0.0,
        rpc_retries: int = 4,
        rpc_backoff_seconds: float = 0.002,
    ) -> None:
        super().__init__()
        self.config = config
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        self.placement = placement or make_placement(config)
        self.decision_log = decision_log
        self.rpc_retries = rpc_retries
        self.rpc_backoff_seconds = rpc_backoff_seconds
        if servers is not None:
            self.shards: List[ObjectServer] = list(servers)
            self.clock = clock or self.shards[0].clock
        else:
            self.clock = clock or SimulatedClock()
            self.shards = [
                ObjectServer(
                    self.clock,
                    latency,
                    instrumentation=self.instrumentation,
                    fault_model=fault_model,
                    wal=None if wals is None else wals[index],
                    fsync_seconds=fsync_seconds,
                    shard_id=index,
                )
                for index in range(config.shards)
            ]
        if len(self.shards) != config.shards:
            raise InvalidOperationError(
                f"config names {config.shards} shards but"
                f" {len(self.shards)} servers were supplied"
            )
        if self.placement.shards != config.shards:
            raise InvalidOperationError(
                f"placement spans {self.placement.shards} shards but"
                f" the deployment has {config.shards}"
            )
        #: Global transaction ids the coordinator hands out; restored
        #: past any txid the decision log has *mentioned* (commit or
        #: abort) so a restarted coordinator never reuses one a
        #: participant may have memoized as decided.
        self._txid = 0
        if decision_log is not None:
            for record in decision_log.read_all():
                self._txid = max(self._txid, record.txid)
        # Per-shard in-doubt gauge: how many transactions each shard
        # holds prepared-but-undecided right now.  Evaluated only at
        # flight-recorder sample time (in_doubt() allocates a list).
        for index, shard in enumerate(self.shards):
            self._instr.gauge(
                f"backend.2pc.shard{index}.in_doubt",
                lambda s=shard: float(len(s.in_doubt())),
            )

    def trace_lane_metadata(self) -> Dict[str, Dict[str, object]]:
        """Per-shard-lane metadata for the Chrome trace export.

        Keys are the ``shard<n>`` lane tags the servers stamp on their
        spans; the exporter merges the values into each matching
        lane's thread metadata so a trace records which placement
        policy produced the fan-out it shows.
        """
        return {
            f"shard{index}": {
                "placement": self.config.placement,
                "shards": self.config.shards,
            }
            for index in range(len(self.shards))
        }

    def _repoint_trace(
        self, phase_span, ctx: Optional[TraceContext]
    ) -> None:
        """Make a 2PC/scatter phase span the remote parent of its fan-out.

        Shard calls issued while the repointed context is pending
        record their server spans with ``remote_parent`` = the phase
        span, so the exported trace draws flow arrows from *the phase*
        (prepare, deliver, scatter round) into each shard lane instead
        of from the enclosing client RPC span.  Callers restore
        ``self._pending_trace = ctx`` when the phase ends.
        """
        if self._instr.enabled:
            self._pending_trace = TraceContext(
                self._instr.trace_id,
                phase_span.sequence,
                client_id=ctx.client_id if ctx is not None else None,
            )

    # ------------------------------------------------------------------
    # Server surface: plumbing
    # ------------------------------------------------------------------

    def _servers(self) -> List[ObjectServer]:
        return self.shards

    def subscribe(self, cache) -> None:
        """Register a cache for invalidations from **every** shard.

        This is what keeps coherence correct under sharding: a record
        admitted into a workstation cache via a traverse served by
        shard B must still be invalidated when a commit lands on its
        owning shard A — so every cache subscribes everywhere.
        """
        for shard in self.shards:
            shard.subscribe(cache)

    def unsubscribe(self, cache) -> None:
        for shard in self.shards:
            shard.unsubscribe(cache)

    def use_transport(self, transport):
        """Swap charge transports on every shard at once.

        Accepts one transport (shared FIFO — the whole deployment
        behind one NIC) or a per-shard sequence (independent lanes,
        see :func:`repro.netsim.sim.shard_lanes`).
        """
        return fan_out_transport(self.shards, transport)

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The coordinator's decision log (the router's durable state)."""
        return self.decision_log

    def _shard_of(self, uid: int) -> ObjectServer:
        return self.shards[self.placement.shard_of(uid)]

    def _list_shard(self, name: str) -> int:
        """Named lists hash to a home shard by name (uids have owners,
        list names need one too)."""
        return _digest(f"list:{name}") % len(self.shards)

    def _call_with_retry(self, shard_index: int, verb: str, *args, **kwargs):
        """Bounded internal retry for 2PC phase RPCs.

        The client's retry wrapper cannot manage these: a fault in the
        middle of a prepare fan-out must resolve to a clean abort (or
        a delivered decision) *inside* the coordinator, not to a blind
        re-run of the whole multi-shard verb under a fresh txid.
        """
        attempt = 0
        while True:
            try:
                return self._call(
                    self.shards[shard_index], verb, *args, **kwargs
                )
            except NetworkError as fault:
                if attempt >= self.rpc_retries:
                    raise RpcExhaustedError(
                        f"shard {shard_index} {verb} still failing"
                        f" after {attempt} retries: {fault}"
                    ) from fault
                backoff = self.rpc_backoff_seconds * (2 ** attempt)
                if backoff:
                    self.clock.advance(backoff)
                    self._instr.count(
                        "backend.rpc.backoff_ms", backoff * 1000.0
                    )
                attempt += 1
                self._instr.count("backend.rpc.retries")

    # ------------------------------------------------------------------
    # Point reads and writes
    # ------------------------------------------------------------------

    def fetch(self, uid: int) -> Dict[str, Any]:
        return self._call(self._shard_of(uid), "fetch", uid)

    def fetch_many(self, uids: List[int]) -> Dict[int, Dict[str, Any]]:
        """One sub-batch round trip per owning shard, merged in the
        caller's (deduplicated) uid order."""
        unique: List[int] = []
        seen = set()
        for uid in uids:
            if uid not in seen:
                seen.add(uid)
                unique.append(uid)
        merged: Dict[int, Dict[str, Any]] = {}
        for shard_index, group in self.placement.partition(unique).items():
            merged.update(
                self._call(self.shards[shard_index], "fetch_many", group)
            )
        return {uid: merged[uid] for uid in unique}

    def exists(self, uid: int) -> bool:
        return self._call(self._shard_of(uid), "exists", uid)

    def store(self, uid: int, record: Dict[str, Any], from_cache=None) -> None:
        return self._call(
            self._shard_of(uid),
            "store",
            uid,
            record,
            from_cache=from_cache,
        )

    # ------------------------------------------------------------------
    # Scatter-gather closure push-down
    # ------------------------------------------------------------------

    def _scatter(
        self,
        seeds: List[Tuple[int, Optional[int]]],
        dispatch,
        limit: Optional[int],
    ) -> Dict[int, Any]:
        """Run rounds of per-shard multi-seed walks until no borders.

        ``dispatch(shard_index, shard_seeds, remaining_limit)`` issues
        one shard call and returns ``(records, borders)``.  The router
        keeps the best depth budget each uid has been walked with and
        re-dispatches a border only when it is new or its budget
        improved (re-expansion along a longer-budget path — M-N graphs
        can need it; pure trees never do).
        """
        out: Dict[int, Any] = {}
        walked: Dict[int, float] = {}
        frontier = list(seeds)
        rounds = 0
        calls = 0
        ctx = self._pending_trace
        client = ctx.client_id if ctx is not None else None
        while frontier and (limit is None or len(out) < limit):
            rounds += 1
            groups: Dict[int, List[Tuple[int, Optional[int]]]] = {}
            for uid, depth in frontier:
                shard_index = self.placement.shard_of(uid)
                groups.setdefault(shard_index, []).append((uid, depth))
            next_frontier: Dict[int, float] = {}
            with self._instr.span(
                "rpc.scatter.round", client=client
            ) as round_span:
                self._repoint_trace(round_span, ctx)
                try:
                    for shard_index in sorted(groups):
                        remaining = (
                            None if limit is None else limit - len(out)
                        )
                        if remaining is not None and remaining <= 0:
                            break
                        records, borders = dispatch(
                            shard_index, groups[shard_index], remaining
                        )
                        calls += 1
                        for uid, record in records.items():
                            if uid not in out:
                                out[uid] = record
                        for uid, depth in borders:
                            value = _budget(depth)
                            if value > next_frontier.get(
                                uid, float("-inf")
                            ):
                                next_frontier[uid] = value
                finally:
                    self._pending_trace = ctx
            for uid, depth in frontier:
                value = _budget(depth)
                if value > walked.get(uid, float("-inf")):
                    walked[uid] = value
            frontier = [
                (uid, None if value == float("inf") else int(value))
                for uid, value in next_frontier.items()
                if value > walked.get(uid, float("-inf"))
            ]
        self._instr.count("backend.rpc.scatter.rounds", rounds)
        self._instr.count("backend.rpc.scatter.calls", calls)
        return out

    def traverse(
        self,
        root: int,
        relation: str,
        depth: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Scatter-gather closure BFS with border-OID hand-off.

        Same contract as the single server's ``traverse`` (records in
        discovery order, unknown root raises
        :class:`~repro.errors.NodeNotFoundError` after the charged
        first round, ``limit`` caps the reply) — but executed as one
        ``traverse_shard`` call per shard per depth-crossing round.
        """

        def dispatch(shard_index, shard_seeds, remaining):
            return self._call(
                self.shards[shard_index],
                "traverse_shard",
                shard_seeds,
                relation,
                limit=remaining,
            )

        out = self._scatter([(root, depth)], dispatch, limit)
        if root not in out:
            raise NodeNotFoundError(root)
        return out

    def readahead(
        self, uids: List[int], depth: int = 1, limit: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Scattered structural readahead (speculative: unknown seeds
        simply produce nothing, exactly like the single server)."""
        if depth < 0:
            raise InvalidOperationError(
                f"readahead depth cannot be negative, got {depth}"
            )

        def dispatch(shard_index, shard_seeds, remaining):
            return self._call(
                self.shards[shard_index],
                "readahead_shard",
                shard_seeds,
                limit=remaining,
            )

        return self._scatter(
            [(uid, depth) for uid in uids], dispatch, limit
        )

    # ------------------------------------------------------------------
    # Two-phase commit (coordinator side)
    # ------------------------------------------------------------------

    def commit_batch(
        self,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> Dict[int, int]:
        """Commit a transaction across its owning shards.

        Single-participant transactions take the shard's ordinary
        one-round-trip ``commit_batch`` — sharding must not tax the
        common case.  Multi-participant transactions run 2PC; see the
        module docstring for the protocol and its failure rules.

        Raises:
            CommitConflictError: some participant's validation failed
                (every prepared participant was aborted first).
        """
        lists = lists or {}
        write_groups = self.placement.partition(writes)
        read_groups = self.placement.partition(reads)
        list_groups: Dict[int, Dict[str, List[int]]] = {}
        for name, uids in lists.items():
            list_groups.setdefault(self._list_shard(name), {})[name] = uids
        participants = sorted(
            set(write_groups) | set(read_groups) | set(list_groups)
        )
        slices = {
            index: (
                {uid: writes[uid] for uid in write_groups.get(index, ())},
                {uid: reads[uid] for uid in read_groups.get(index, ())},
                list_groups.get(index, {}),
            )
            for index in participants
        }
        if not participants:
            return {}
        if len(participants) == 1:
            index = participants[0]
            shard_writes, shard_reads, shard_lists = slices[index]
            return self._call(
                self.shards[index],
                "commit_batch",
                shard_writes,
                shard_reads,
                shard_lists,
                from_cache=from_cache,
            )
        self._txid += 1
        txid = self._txid
        self._instr.count("backend.2pc.transactions")
        ctx = self._pending_trace
        client = ctx.client_id if ctx is not None else None
        prepared: List[int] = []
        with self._instr.span("2pc.commit", client=client):
            try:
                with self._instr.span(
                    "2pc.prepare", client=client
                ) as phase:
                    self._repoint_trace(phase, ctx)
                    try:
                        for index in participants:
                            shard_writes, shard_reads, shard_lists = (
                                slices[index]
                            )
                            self._call_with_retry(
                                index,
                                "prepare_batch",
                                txid,
                                shard_writes,
                                shard_reads,
                                shard_lists,
                                from_cache=from_cache,
                            )
                            prepared.append(index)
                    finally:
                        self._pending_trace = ctx
            except Exception:
                # Any no vote (conflict) or exhausted prepare aborts the
                # whole transaction: presumed abort — the decision needs
                # no *forced* log write, but an unforced ABORT note
                # keeps the txid watermark across a coordinator restart
                # (participants memoize decided txids and reject their
                # reuse).
                self._instr.count("backend.2pc.aborts")
                if self.decision_log is not None:
                    self.decision_log.log_decision(txid, committed=False)
                with self._instr.span(
                    "2pc.abort", client=client
                ) as phase:
                    self._repoint_trace(phase, ctx)
                    try:
                        self._abort_participants(txid, prepared)
                    finally:
                        self._pending_trace = ctx
                raise
            # Unanimous yes: the decision becomes durable *before* any
            # participant applies — this write is the commit point.
            with self._instr.span("2pc.decision", client=client):
                if self.decision_log is not None:
                    self.decision_log.log_commit(txid, [])
            self._instr.count("backend.2pc.commits")
            applied: Dict[int, int] = {}
            with self._instr.span(
                "2pc.deliver", client=client
            ) as phase:
                self._repoint_trace(phase, ctx)
                try:
                    for index in prepared:
                        applied.update(
                            self._deliver_commit(index, txid)
                        )
                finally:
                    self._pending_trace = ctx
        return applied

    def _abort_participants(
        self, txid: int, participants: Iterable[int]
    ) -> None:
        for index in participants:
            try:
                self._call_with_retry(index, "abort_prepared", txid)
            except NetworkError:
                # The participant will re-park the txn as in doubt on
                # recovery and presumed abort resolves it the same way.
                self._instr.count("backend.2pc.abort_undelivered")

    def _deliver_commit(self, shard_index: int, txid: int) -> Dict[int, int]:
        """Deliver a *logged* commit decision; must not look retryable.

        Past the attempt cap the router gives up with ``StorageError``
        (not a ``NetworkError`` — the transaction IS committed, the
        client must not re-run it) and ``resolve_in_doubt`` completes
        the delivery from the decision log later.
        """
        attempt = 0
        while True:
            try:
                return self._call(
                    self.shards[shard_index], "commit_prepared", txid
                )
            except NetworkError as fault:
                attempt += 1
                if attempt >= _DECISION_ATTEMPTS:
                    self._instr.count("backend.2pc.commit_undelivered")
                    raise StorageError(
                        f"txn {txid} is committed but shard {shard_index}"
                        f" never acknowledged the decision: {fault}"
                    ) from fault
                backoff = self.rpc_backoff_seconds * min(attempt, 8)
                if backoff:
                    self.clock.advance(backoff)
                self._instr.count("backend.rpc.retries")

    def resolve_in_doubt(self) -> Dict[int, str]:
        """Drive every shard's in-doubt transactions to a decision.

        Consults the decision log: txids with a logged COMMIT get
        ``commit_prepared``, all others get ``abort_prepared``
        (presumed abort covers a coordinator that crashed before — or
        while — logging).  Idempotent; call after recovering shards
        with ``recover_from_wal``.

        Returns ``{txid: "committed" | "aborted"}``.
        """
        committed = set()
        if self.decision_log is not None:
            for txid, _ops in self.decision_log.recover_operations():
                committed.add(txid)
                self._txid = max(self._txid, txid)
        outcomes: Dict[int, str] = {}
        with self._instr.span("2pc.resolve") as phase:
            self._repoint_trace(phase, None)
            try:
                for index, shard in enumerate(self.shards):
                    for txid in shard.in_doubt():
                        # The txid is proven used — never hand it out
                        # again.
                        self._txid = max(self._txid, txid)
                        if txid in committed:
                            self._deliver_commit(index, txid)
                            outcomes[txid] = "committed"
                        else:
                            self._call_with_retry(
                                index, "abort_prepared", txid
                            )
                            outcomes[txid] = "aborted"
                            if self.decision_log is not None:
                                self.decision_log.log_decision(
                                    txid, committed=False
                                )
            finally:
                self._pending_trace = None
        if outcomes:
            self._instr.count("backend.2pc.resolved", len(outcomes))
        return outcomes

    # ------------------------------------------------------------------
    # Server-evaluated queries (scatter + merge)
    # ------------------------------------------------------------------

    def range_query(self, attribute: str, low: int, high: int) -> List[int]:
        result: List[int] = []
        for shard in self.shards:
            result.extend(
                self._call(shard, "range_query", attribute, low, high)
            )
        return result

    def scan_structure(self, structure_id: int) -> List[int]:
        result: List[int] = []
        for shard in self.shards:
            result.extend(self._call(shard, "scan_structure", structure_id))
        return sorted(result)

    # ------------------------------------------------------------------
    # Named lists
    # ------------------------------------------------------------------

    def store_list(self, name: str, uids: List[int]) -> None:
        home = self.shards[self._list_shard(name)]
        return self._call(home, "store_list", name, uids)

    def load_list(self, name: str) -> List[int]:
        home = self.shards[self._list_shard(name)]
        return self._call(home, "load_list", name)

    # ------------------------------------------------------------------
    # Administration (uncharged, like the single server's)
    # ------------------------------------------------------------------

    def count(self, structure_id: int) -> int:
        return sum(shard.count(structure_id) for shard in self.shards)

    def export_records(self) -> Dict[int, Dict[str, Any]]:
        merged: Dict[int, Dict[str, Any]] = {}
        for shard in self.shards:
            merged.update(shard.export_records())
        return merged

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        """Partition a snapshot by placement and load every shard."""
        groups = self.placement.partition(records)
        for index, shard in enumerate(self.shards):
            shard.load_records(
                {uid: records[uid] for uid in groups.get(index, ())}
            )

    def __contains__(self, uid: int) -> bool:
        return uid in self._shard_of(uid)
