"""The server side of the simulated workstation/server architecture.

:class:`ObjectServer` stores node records (plain dictionaries) and
answers the request types the client/server backend needs: object
fetch/store, key-existence probes, index range queries, structure scans
and named-list storage.  Every request charges the shared
:class:`~repro.netsim.latency.SimulatedClock` according to the
:class:`~repro.netsim.latency.LatencyModel` — a fixed round trip plus
payload-proportional transfer, with payload sizes measured by actually
serializing the records.

The server object *survives* the client database's close/open cycle,
exactly like the server machine in the paper's architecture: closing
the workstation application empties the workstation cache but not the
server, which is what makes the next run cold.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.engine import serializer
from repro.engine.wal import PUT, WriteAheadLog, put_record
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel, SimulatedClock
from repro.netsim.sim import DirectTransport
from repro.obs import Instrumentation, TraceContext, resolve
from repro.errors import (
    CommitConflictError,
    InvalidOperationError,
    NodeNotFoundError,
)

#: Approximate bytes of a uid in a response payload.
_UID_BYTES = 8
#: Approximate bytes of a request/reply envelope beyond the round trip.
_PROBE_BYTES = 16


def _ref_targets(record: Dict[str, Any]) -> List[int]:
    return [dst for dst, _f, _t in record["refTo"]]


def _structural(record: Dict[str, Any]) -> List[int]:
    """Readahead adjacency: children, then parts."""
    return record["children"] + record["parts"]


#: Relations the push-down verbs understand, each with its adjacency.
_NEIGHBORS = {
    "children": lambda record: record["children"],
    "parts": lambda record: record["parts"],
    "refTo": _ref_targets,
}


def _neighbors(relation: str):
    """The adjacency function of one push-down relation."""
    try:
        return _NEIGHBORS[relation]
    except KeyError:
        raise InvalidOperationError(
            f"traverse does not understand relation {relation!r}"
        ) from None


def _check_depth(depth: Optional[int]) -> None:
    if depth is not None and depth < 0:
        raise InvalidOperationError(
            f"readahead depth cannot be negative, got {depth}"
        )


def stale_reads(reads, version_of):
    """First-committer-wins validation kernel (deferred import).

    Shared with the engine-level optimistic coordinator; imported
    lazily because ``repro.concurrency`` transitively imports the
    client/server backend, which imports this module.
    """
    from repro.concurrency.optimistic import stale_reads as _kernel

    return _kernel(reads, version_of)


@dataclasses.dataclass
class ServerStats:
    """Request counters, by request type."""

    fetches: int = 0
    batch_fetches: int = 0
    batched_objects: int = 0
    traversals: int = 0
    readaheads: int = 0
    pushdown_objects: int = 0
    stores: int = 0
    probes: int = 0
    queries: int = 0
    scans: int = 0
    commits: int = 0
    commit_conflicts: int = 0
    prepares: int = 0
    decisions: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)


class ServerVerbs(Protocol):
    """The request surface a workstation talks to.

    :class:`~repro.backends.clientserver.ClientServerDatabase` and the
    benchmark harnesses call exactly these members, and
    :class:`ObjectServer`, :class:`~repro.sharding.router.ShardRouter`
    and :class:`~repro.replication.router.ReplicaRouter` each implement
    all of them with these signatures (pinned by a conformance test).
    Declaration only: nothing inherits from it.
    """

    clock: SimulatedClock
    stats: ServerStats
    wal: Optional[WriteAheadLog]

    # Request envelope, coherence and the charge seam.
    def accept_trace_context(self, context: Optional[TraceContext]) -> None: ...
    def take_reply_versions(self) -> Dict[int, int]: ...
    def subscribe(self, cache) -> None: ...
    def unsubscribe(self, cache) -> None: ...
    def use_transport(self, transport): ...

    # Record reads and closure push-down.
    def fetch(self, uid: int) -> Dict[str, Any]: ...
    def fetch_many(self, uids: List[int]) -> Dict[int, Dict[str, Any]]: ...
    def traverse(
        self,
        root: int,
        relation: str,
        depth: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[int, Dict[str, Any]]: ...
    def readahead(
        self, uids: List[int], depth: int = 1, limit: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]: ...

    # Writes.
    def store(self, uid: int, record: Dict[str, Any], from_cache=None) -> None: ...
    def commit_batch(
        self,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> Dict[int, int]: ...

    # Probes, server-evaluated queries and named lists.
    def exists(self, uid: int) -> bool: ...
    def range_query(self, attribute: str, low: int, high: int) -> List[int]: ...
    def scan_structure(self, structure_id: int) -> List[int]: ...
    def store_list(self, name: str, uids: List[int]) -> None: ...
    def load_list(self, name: str) -> List[int]: ...

    # Administration (uncharged).
    def count(self, structure_id: int) -> int: ...
    def export_records(self) -> Dict[int, Dict[str, Any]]: ...
    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None: ...
    def __contains__(self, uid: int) -> bool: ...


@contextlib.contextmanager
def fan_out_transport(servers: List["ObjectServer"], transport):
    """Swap charge transports on several servers at once.

    Accepts one transport (the whole deployment behind one NIC), a
    sequence with one lane per server, or a bundle exposing such a
    sequence as ``.lanes`` (:class:`~repro.netsim.sim.LaneGroup`).
    """
    lanes = getattr(transport, "lanes", None)
    if lanes is None:
        if isinstance(transport, (list, tuple)):
            lanes = list(transport)
        else:
            lanes = [transport] * len(servers)
    if len(lanes) != len(servers):
        raise InvalidOperationError(
            f"{len(lanes)} transports for {len(servers)} servers"
        )
    with contextlib.ExitStack() as stack:
        for server, lane in zip(servers, lanes):
            stack.enter_context(server.use_transport(lane))
        yield lanes


class RouterBase:
    """Plumbing shared by the routers that front several servers.

    A router verb may issue several server requests; each carries the
    caller's trace context, and the version stamps of every reply are
    gathered for the caller to take.  Subclasses list their servers in
    :meth:`_servers` (whose counters :attr:`stats` sums) and issue each
    request through :meth:`_call`.
    """

    def __init__(self) -> None:
        self._pending_trace: Optional[TraceContext] = None
        self._reply_versions: Dict[int, int] = {}

    def _servers(self) -> Iterable["ObjectServer"]:
        raise NotImplementedError

    @property
    def stats(self) -> ServerStats:
        """Request counters summed over every server (read-only)."""
        total = ServerStats()
        names = [field.name for field in dataclasses.fields(total)]
        for server in self._servers():
            for name in names:
                value = getattr(total, name) + getattr(server.stats, name)
                setattr(total, name, value)
        return total

    def accept_trace_context(self, context: Optional[TraceContext]) -> None:
        """Stash the caller's trace context for this verb's requests."""
        self._pending_trace = context

    def take_reply_versions(self) -> Dict[int, int]:
        """Consume the version stamps gathered across this verb's replies.

        Stamps never collide: each uid has one owning shard, and a
        replica's stamps are its primary's commit txids.
        """
        versions = self._reply_versions
        self._reply_versions = {}
        return versions

    def _call(self, server: "ObjectServer", verb: str, *args, **kwargs):
        """One server request carrying the verb's trace context."""
        server.accept_trace_context(self._pending_trace)
        result = getattr(server, verb)(*args, **kwargs)
        self._reply_versions.update(server.take_reply_versions())
        return result


class ObjectServer:
    """A remote node store charging simulated network time.

    ``fault_model`` (see :mod:`repro.netsim.faults`) injects seeded
    drop/timeout faults at the channel: a faulted request raises
    :class:`~repro.errors.RpcDroppedError` or
    :class:`~repro.errors.RpcTimeoutError` *after* charging the clock
    for the wasted wire time, and the request never touches server
    state.  The client retries with bounded backoff.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        latency: Optional[LatencyModel] = None,
        instrumentation: Optional[Instrumentation] = None,
        fault_model: Optional[FaultModel] = None,
        wal: Optional[WriteAheadLog] = None,
        fsync_seconds: float = 0.0,
        shard_id: Optional[int] = None,
        lane_tag: Optional[str] = None,
    ) -> None:
        self.clock = clock or SimulatedClock()
        self.latency = latency or LatencyModel()
        self.stats = ServerStats()
        #: Position of this server in a sharded deployment, or ``None``
        #: for the classic single-server stack.  A set shard id adds
        #: ``backend.shard.<n>.rpc.*`` counters and folds a
        #: ``shard<n>`` tag into the trace lane; the ``None`` path is
        #: byte-identical to the pre-sharding server.
        self.shard_id = shard_id
        #: Free-form trace lane tag (``"replica0"``, ``"primary"`` …)
        #: for servers that are neither shards nor the classic single
        #: server; ``shard_id`` wins when both are set.  ``None`` keeps
        #: the pre-replication spans byte-identical.
        self.lane_tag = lane_tag
        self.fault_model = fault_model
        self.instrumentation = resolve(instrumentation)
        self._instr = self.instrumentation
        #: Optional durable commit log; ``commit_batch`` appends each
        #: transaction's PUT records and charges ``fsync_seconds`` of
        #: extra service time on the commits that take a real
        #: durability point (group commit defers most of them).
        self.wal = wal
        self.fsync_seconds = fsync_seconds
        #: The charge seam: every request's time lands here.  The
        #: default reproduces the single-client model exactly; the
        #: discrete-event scheduler swaps in a contended transport
        #: (see :mod:`repro.netsim.sim`) for multi-client runs.
        self.transport = DirectTransport(self.clock, self.latency)
        self._records: Dict[int, Dict[str, Any]] = {}
        self._lists: Dict[str, List[int]] = {}
        #: Version per uid, bumped on every store/commit; the optimistic
        #: commit protocol validates read sets against it.
        self._versions: Dict[int, int] = {}
        self._commit_seq = 0
        #: Versions of the records the *last* record-carrying reply
        #: shipped — an in-process side channel standing in for the
        #: version stamps a real wire format would embed per record
        #: (kept out of the payload so reply sizes are unchanged).
        self.last_reply_versions: Dict[int, int] = {}
        self._subscribers: List[object] = []
        #: Trace context of the in-flight request (the RPC envelope).
        self._pending_trace: Optional[TraceContext] = None
        #: Two-phase-commit participant state: write sets parked by
        #: ``prepare_batch`` awaiting the coordinator's decision,
        #: keyed by global txid.
        self._prepared: Dict[int, Dict[str, Any]] = {}
        #: Pins held by prepared transactions: uid → owning txid.  A
        #: pinned uid blocks conflicting commits/prepares until the
        #: owner is decided (prepared state must stay validatable).
        self._pins: Dict[int, int] = {}
        #: The subset of pinned uids the owning txn will *write*.
        self._pin_writes: set = set()
        #: Decision memo so a retried ``commit_prepared`` /
        #: ``abort_prepared`` is idempotent: txid → applied versions
        #: (commit) or ``None`` (abort).
        self._decided: Dict[int, Optional[Dict[int, int]]] = {}

    @contextlib.contextmanager
    def use_transport(self, transport):
        """Temporarily swap the charge transport (the scheduler's seam)."""
        previous = self.transport
        self.transport = transport
        try:
            yield transport
        finally:
            self.transport = previous

    # ------------------------------------------------------------------
    # Trace propagation (the request envelope)
    # ------------------------------------------------------------------

    def accept_trace_context(self, context: Optional[TraceContext]) -> None:
        """Attach the caller's trace context to the *next* request.

        The client's RPC wrapper calls this just before each attempt —
        it models the trace headers a real RPC envelope carries.  The
        context is consumed (and cleared) by the request it precedes;
        requests arriving without one record plain server spans.
        """
        self._pending_trace = context

    @contextlib.contextmanager
    def _serve(self, request: str):
        """Record one server-side request span with its remote parent.

        The span covers fault injection too, so a dropped or timed-out
        attempt still appears as server-side work linked to the client
        attempt that caused it (that is how retries become visible in
        the exported trace).
        """
        context = self._pending_trace
        self._pending_trace = None
        client = None if context is None else context.client_id
        if self.shard_id is not None or self.lane_tag is not None:
            # Tagged lane: scatter-gather (or replica) fan-out shows up
            # as one trace lane per (client, server) pair in Perfetto.
            tag = (
                f"shard{self.shard_id}"
                if self.shard_id is not None
                else self.lane_tag
            )
            client = tag if client is None else f"{client}·{tag}"
        with self._instr.span(
            "server." + request,
            remote_parent=None if context is None else context.span_id,
            remote_trace=None if context is None else context.trace_id,
            client=client,
        ):
            # Version stamps never survive into the next request: each
            # reply's stamps belong to exactly one caller.
            self.last_reply_versions = {}
            self._maybe_fault(request)
            yield

    # ------------------------------------------------------------------
    # Cache-coherence subscriptions (R6 coordination)
    # ------------------------------------------------------------------

    def subscribe(self, cache) -> None:
        """Register a workstation cache for invalidation callbacks.

        When any client stores a record, every *other* subscribed cache
        drops its copy — the minimal coherence protocol that lets a
        second user see a first user's published update without
        restarting (R6's "coordination and collaboration between
        users").  Invalidation messages ride on the store's round trip
        (no extra clock charge; real systems piggyback them too).
        """
        if cache not in self._subscribers:
            self._subscribers.append(cache)

    def unsubscribe(self, cache) -> None:
        """Remove a cache from the invalidation list."""
        if cache in self._subscribers:
            self._subscribers.remove(cache)

    def _invalidate_subscribers(self, uid: int, except_cache=None) -> None:
        for cache in self._subscribers:
            if cache is not except_cache:
                cache.invalidate(uid)

    # ------------------------------------------------------------------
    # Cost accounting
    #
    # Every request charges exactly one round trip plus its payload.
    # Reply payloads follow **one documented model** shared by every
    # record-carrying verb (``fetch``, ``fetch_many``, ``traverse``,
    # ``readahead`` and their shard-local forms):
    #
    #     payload = envelope (_PROBE_BYTES) + Σ record_size(record)
    #
    # so a batch reply and a push-down reply carrying the *same* record
    # set charge the *same* simulated time (pinned by a regression test
    # in ``tests/test_pushdown.py``).  Reference-only replies (queries,
    # scans, lists, border hand-offs) charge ``_UID_BYTES`` per uid
    # instead.  Payload sizes land in
    # the ``backend.rpc.payload_bytes`` histogram (bytes, not ms) so
    # the wire-size distribution is inspectable next to the latency
    # distributions.
    # ------------------------------------------------------------------

    def _charge(
        self,
        payload_bytes: int,
        verb: Optional[str] = None,
        extra_service_seconds: float = 0.0,
    ) -> None:
        cost = self.transport.charge_request(
            payload_bytes, extra_service_seconds=extra_service_seconds
        )
        self._instr.count("backend.rpc.round_trips")
        self._instr.count("netsim.latency.injected_ms", cost * 1000.0)
        self._instr.observe("backend.rpc.payload_bytes", float(payload_bytes))
        if verb is not None:
            self._instr.observe(
                f"backend.rpc.payload_bytes.{verb}", float(payload_bytes)
            )
        if self.shard_id is not None:
            prefix = f"backend.shard.{self.shard_id}.rpc"
            self._instr.count(f"{prefix}.round_trips")
            self._instr.count(f"{prefix}.payload_bytes", float(payload_bytes))
            if verb is not None:
                self._instr.count(f"{prefix}.{verb}")

    def _reply_payload(self, records) -> int:
        """Wire size of one record-carrying reply: envelope + records."""
        return _PROBE_BYTES + sum(self.record_size(r) for r in records)

    def _reply(
        self, verb: str, uids: List[int], extra_bytes: int = 0
    ) -> Dict[int, Dict[str, Any]]:
        """Ship the records of ``uids`` as one charged, stamped reply.

        The tail every multi-record verb shares: isolated copies in
        ``uids`` order, the payload (plus ``extra_bytes`` of hand-off
        references) on the byte counters and the clock, and the version
        stamps of what was shipped.
        """
        records = self._records
        payload = (
            self._reply_payload(records[uid] for uid in uids) + extra_bytes
        )
        out = {uid: self._isolate(records[uid]) for uid in uids}
        self.stats.bytes_sent += payload
        self._instr.count("backend.rpc.bytes_sent", payload)
        self._instr.count("backend.rpc.batched_objects", len(uids))
        self._charge(payload, verb)
        self._stamp_reply_versions(uids)
        return out

    def _stamp_reply_versions(self, uids) -> None:
        """Record the versions the reply's records were shipped at."""
        self.last_reply_versions = {
            uid: self._versions.get(uid, 0) for uid in uids
        }

    def take_reply_versions(self) -> Dict[int, int]:
        """Consume the version stamps of the last record-carrying reply.

        The optimistic client calls this after each successful RPC to
        learn which version of each record it now holds; consuming
        clears the channel so stale stamps never leak into the next
        request's bookkeeping.
        """
        versions = self.last_reply_versions
        self.last_reply_versions = {}
        return versions

    def _maybe_fault(self, request: str) -> None:
        """Consult the fault model before serving a request.

        A *drop* costs one wasted round trip (the request travelled and
        died); a *timeout* costs the model's full timeout window.  The
        fault is raised before any server state changes, so a retried
        ``store`` is idempotent from the server's point of view.
        """
        if self.fault_model is None:
            return
        kind = self.fault_model.next_fault()
        if kind is None:
            return
        self._instr.count("backend.rpc.faults")
        self._instr.count(f"backend.rpc.faults.{kind}")
        if kind == "timeout":
            wasted = self.fault_model.timeout_seconds
        else:
            wasted = self.latency.request_cost(0)
        self.transport.charge_wasted(wasted)
        self._instr.count("netsim.latency.injected_ms", wasted * 1000.0)
        self.fault_model.raise_fault(kind, request)

    @staticmethod
    def record_size(record: Dict[str, Any]) -> int:
        """Wire size of a record (its serialized length)."""
        return len(serializer.encode(record))

    @staticmethod
    def _isolate(record: Dict[str, Any]) -> Dict[str, Any]:
        """Copy a record so client and server never share nested lists."""
        return {
            key: [
                list(item) if isinstance(item, list) else item
                for item in value
            ]
            if isinstance(value, list)
            else value
            for key, value in record.items()
        }

    # ------------------------------------------------------------------
    # Object requests
    # ------------------------------------------------------------------

    def fetch(self, uid: int) -> Dict[str, Any]:
        """Fetch one record; charged round trip + record transfer.

        Raises:
            NodeNotFoundError: for an unknown uid (still charged a
                round trip — the request happened).
        """
        with self._serve("fetch"):
            self.stats.fetches += 1
            record = self._records.get(uid)
            if record is None:
                self._charge(_PROBE_BYTES, "fetch")
                raise NodeNotFoundError(uid)
            payload = self._reply_payload([record])
            self.stats.bytes_sent += payload
            self._instr.count("backend.rpc.bytes_sent", payload)
            self._charge(payload, "fetch")
            self._stamp_reply_versions((uid,))
            return self._isolate(record)

    def fetch_many(self, uids: List[int]) -> Dict[int, Dict[str, Any]]:
        """Fetch a batch of records in **one** round trip.

        This is the batch RPC verb the frontier traversals ride on: the
        fixed round-trip cost is paid once, the transfer cost stays
        proportional to the payload (the summed record sizes), so a
        closure frontier of N nodes costs ``round_trip + N·transfer``
        instead of ``N·(round_trip + transfer)``.

        Duplicates in ``uids`` are served once.  Raises
        :class:`NodeNotFoundError` for the first unknown uid (the whole
        request is still charged one round trip — it happened), matching
        the per-item :meth:`fetch` error contract.
        """
        with self._serve("fetch_many"):
            self.stats.batch_fetches += 1
            unique: List[int] = []
            seen = set()
            for uid in uids:
                if uid not in seen:
                    seen.add(uid)
                    unique.append(uid)
            missing = next(
                (uid for uid in unique if uid not in self._records), None
            )
            if missing is not None:
                self._charge(_PROBE_BYTES, "fetch_many")
                raise NodeNotFoundError(missing)
            self.stats.batched_objects += len(unique)
            return self._reply("fetch_many", unique)

    # ------------------------------------------------------------------
    # Closure push-down (query shipping instead of data shipping)
    # ------------------------------------------------------------------

    def traverse(
        self,
        root: int,
        relation: str,
        depth: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[int, Dict[str, Any]]:
        """Run a closure BFS **at the server**; one size-charged reply.

        This is the query-shipping verb: instead of the client walking
        the structure level by level (one ``fetch_many`` round trip per
        level), the whole traversal executes server-side and every
        *distinct* visited record comes back in a single reply.  A
        closure then costs ``round_trip + Σ transfer`` — the same
        payload a frontier BFS ships in total, minus all but one of its
        fixed round trips (and their envelopes).

        Args:
            root: start node; raises :class:`NodeNotFoundError` if
                unknown (the request is still charged — it happened).
            relation: ``"children"``, ``"parts"`` or ``"refTo"``.
            depth: maximum BFS depth (``None`` = unbounded; the
                attributed-association closures pass their run-time
                depth, 25 by default).
            limit: stop collecting after this many nodes — the client
                passes its workstation-cache capacity so a reply never
                ships records the cache could not hold; the BFS prefix
                it does ship is still coherent (early levels complete),
                and the client's frontier BFS fetches the remainder.

        Returns:
            ``{uid: record}`` in BFS visit order (insertion order of
            the dict).  Dangling edge targets (uids the server does not
            hold) are skipped silently and not charged — the
            client-side replay resolves them through its own read path.
        """
        with self._serve("traverse"):
            self.stats.traversals += 1
            neighbors = _neighbors(relation)
            if root not in self._records:
                self._charge(_PROBE_BYTES, "traverse")
                raise NodeNotFoundError(root)
            order, _dangling = self._scatter_bfs(
                [(root, depth)], neighbors, limit
            )
            self.stats.pushdown_objects += len(order)
            return self._reply("traverse", order)

    def readahead(
        self, uids: List[int], depth: int = 1, limit: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]:
        """Speculative structural readahead around a set of seed uids.

        Expands each seed's structural neighbourhood — children *and*
        parts, breadth-first to ``depth`` levels — and returns every
        distinct record found (at most ``limit``, seeds first) in one
        size-charged reply.  The verb is **speculative by contract**:
        unknown seeds and dangling edges are skipped silently (an empty
        reply is a valid answer), so the client can ask optimistically
        on a cold first touch without a second error round trip.
        Raising is the caller's business if a seed it *required* is
        absent from the reply.
        """
        with self._serve("readahead"):
            self.stats.readaheads += 1
            _check_depth(depth)
            order, _dangling = self._scatter_bfs(
                [(uid, depth) for uid in uids], _structural, limit
            )
            self.stats.pushdown_objects += len(order)
            return self._reply("readahead", order)

    def store(
        self, uid: int, record: Dict[str, Any], from_cache=None
    ) -> None:
        """Upload one record (insert or replace); charged for upload.

        ``from_cache`` identifies the uploading client's cache so it is
        excluded from the coherence invalidation broadcast.
        """
        with self._serve("store"):
            self.stats.stores += 1
            size = self.record_size(record)
            self.stats.bytes_received += size
            self._instr.count("backend.rpc.bytes_received", size)
            self._charge(size)
            self._commit_seq += 1
            self._records[uid] = self._isolate(record)
            self._versions[uid] = self._commit_seq
            self._invalidate_subscribers(uid, except_cache=from_cache)

    def commit_batch(
        self,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> Dict[int, int]:
        """Optimistically validate and apply one transaction atomically.

        The optimistic client ships its whole write set plus the
        versions of every record it read this transaction in **one**
        request (charged for the uploaded records plus a uid+version
        pair per read).  Validation is first-committer-wins: if any
        read version no longer matches the server's current version —
        another client committed that record meanwhile — nothing is
        applied and :class:`~repro.errors.CommitConflictError` reports
        the stale uids so the client can invalidate and retry.

        A valid transaction is applied atomically under one new commit
        sequence number: all writes land, versions bump, the optional
        WAL logs the write set (charging ``fsync_seconds`` of extra
        service only when the log takes a real durability point —
        group commit defers most of them), and every *other*
        subscribed cache is invalidated for each written uid.

        Returns ``{uid: new version}`` for the write set.
        """
        with self._serve("commit"):
            lists = lists or {}
            upload = (
                _PROBE_BYTES
                + sum(self.record_size(r) for r in writes.values())
                + (_UID_BYTES + _UID_BYTES) * len(reads)
                + sum(
                    _UID_BYTES * len(uids) for uids in lists.values()
                )
            )
            self.stats.bytes_received += upload
            self._instr.count("backend.rpc.bytes_received", upload)
            conflicts = stale_reads(
                reads, lambda uid: self._versions.get(uid, 0)
            )
            conflicts += self._pin_conflicts(writes, reads, txid=None)
            if conflicts:
                self.stats.commit_conflicts += 1
                self._instr.count("backend.mp.commit.conflicts")
                self._charge(upload, "commit")
                raise CommitConflictError(sorted(set(conflicts)))
            synced = False
            if self.wal is not None and writes:
                txid = self._commit_seq + 1
                synced = self.wal.log_commit(
                    txid,
                    [
                        put_record(txid, uid, {"record": record})
                        for uid, record in sorted(writes.items())
                    ],
                )
            self._commit_seq += 1
            applied: Dict[int, int] = {}
            for uid, record in writes.items():
                self._records[uid] = self._isolate(record)
                self._versions[uid] = self._commit_seq
                applied[uid] = self._commit_seq
            for name, uids in lists.items():
                self._lists[name] = list(uids)
            self.stats.commits += 1
            self._instr.count("backend.mp.commits")
            self._charge(
                upload,
                "commit",
                extra_service_seconds=self.fsync_seconds if synced else 0.0,
            )
            for uid in writes:
                self._invalidate_subscribers(uid, except_cache=from_cache)
            return applied

    # ------------------------------------------------------------------
    # Sharded scatter-gather (border-OID hand-off)
    # ------------------------------------------------------------------

    def _scatter_bfs(self, seeds, neighbors, limit):
        """Multi-seed budgeted BFS over the records this shard holds.

        ``seeds`` is ``[(uid, budget)]`` where ``budget`` is how many
        levels the walk may still descend *from that node* (``None`` =
        unbounded).  Edges to uids this shard does not hold become
        **border** entries ``(uid, budget - 1)`` instead of visits —
        the router re-dispatches them to their owning shards.  A uid
        reachable along several paths keeps the largest remaining
        budget and is re-expanded when a later path improves it, so
        the union of all shard-local walks equals the single-server
        BFS closure.  On an unsharded server every border is a dangling
        edge.  At most ``limit`` uids are visited, seeds first.

        Returns ``(visited uids, [(border uid, remaining budget)])``,
        both in discovery order.
        """
        inf = float("inf")
        order: List[int] = []
        best: Dict[int, float] = {}
        borders: Dict[int, float] = {}
        frontier: List[Tuple[int, float]] = []
        full = False
        for uid, budget in seeds:
            b = inf if budget is None else float(budget)
            if uid not in self._records:
                continue
            if uid in best:
                if b > best[uid]:
                    best[uid] = b
                    if b > 0:
                        frontier.append((uid, b))
                continue
            if limit is not None and len(order) >= limit:
                full = True
                break
            best[uid] = b
            order.append(uid)
            if b > 0:
                frontier.append((uid, b))
        while frontier and not full:
            next_frontier: List[Tuple[int, float]] = []
            for uid, b in frontier:
                nb = b - 1
                for adj in neighbors(self._records[uid]):
                    if adj in self._records:
                        if adj not in best:
                            if limit is not None and len(order) >= limit:
                                full = True
                                break
                            best[adj] = nb
                            order.append(adj)
                            if nb > 0:
                                next_frontier.append((adj, nb))
                        elif nb > best[adj]:
                            best[adj] = nb
                            if nb > 0:
                                next_frontier.append((adj, nb))
                    else:
                        prev = borders.get(adj)
                        if prev is None or nb > prev:
                            borders[adj] = nb
                if full:
                    break
            frontier = next_frontier
        border_list = [
            (uid, None if b == inf else int(b))
            for uid, b in borders.items()
        ]
        return order, border_list

    def traverse_shard(
        self,
        seeds: List[Tuple[int, Optional[int]]],
        relation: str,
        limit: Optional[int] = None,
    ):
        """One shard-local round of a scatter-gather closure BFS.

        The router seeds each round with the border uids the previous
        round surfaced (grouped by placement), so a whole cross-shard
        closure costs one ``traverse_shard`` call per shard per
        *depth-crossing round* — O(shards × crossings), never
        O(nodes).  Unknown seeds are skipped silently (the speculative
        contract of :meth:`readahead`): a seed uid owned by this shard
        per the placement map but absent from its records is simply a
        dangling edge.  The reply charges the visited records **plus
        one uid per border** — the hand-off references are real
        payload.

        Returns ``({uid: record}, [(border uid, remaining budget)])``,
        both in discovery order.
        """
        with self._serve("traverse_shard"):
            self.stats.traversals += 1
            neighbors = _neighbors(relation)
            order, borders = self._scatter_bfs(seeds, neighbors, limit)
            self.stats.pushdown_objects += len(order)
            reply = self._reply(
                "traverse_shard", order, _UID_BYTES * len(borders)
            )
            return reply, borders

    def readahead_shard(
        self,
        seeds: List[Tuple[int, Optional[int]]],
        limit: Optional[int] = None,
    ):
        """Shard-local structural readahead with border hand-off.

        The sharded counterpart of :meth:`readahead`: expands each
        seed's children+parts neighbourhood to its per-seed depth
        budget over the records this shard holds, and reports
        cross-shard edges as borders for the router to re-dispatch.
        Speculative by contract — unknown seeds are skipped silently.
        """
        with self._serve("readahead_shard"):
            self.stats.readaheads += 1
            for _uid, budget in seeds:
                _check_depth(budget)
            order, borders = self._scatter_bfs(seeds, _structural, limit)
            self.stats.pushdown_objects += len(order)
            reply = self._reply(
                "readahead_shard", order, _UID_BYTES * len(borders)
            )
            return reply, borders

    # ------------------------------------------------------------------
    # Two-phase commit (participant side; the ShardRouter coordinates)
    # ------------------------------------------------------------------

    def _pin_conflicts(
        self,
        writes: Dict[int, Any],
        reads: Dict[int, int],
        txid: Optional[int],
    ) -> List[int]:
        """Uids this request may not touch while a peer is in doubt.

        A write collides with *any* pin (the pinned value must stay
        exactly as validated until its owner is decided); a read
        validation collides only with a *write* pin (its version
        changes if the owner commits, and which way is unknowable
        until the decision).  ``txid`` exempts a transaction's own
        pins so a retried prepare stays idempotent.
        """
        blocked = [
            uid
            for uid in writes
            if uid in self._pins and self._pins[uid] != txid
        ]
        blocked += [
            uid
            for uid in reads
            if uid in self._pin_writes and self._pins[uid] != txid
        ]
        return blocked

    def prepare_batch(
        self,
        txid: int,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> bool:
        """Phase one: validate and park this shard's transaction slice.

        Validation is exactly ``commit_batch``'s first-committer-wins
        check (stale read versions raise
        :class:`~repro.errors.CommitConflictError`), plus pin checks
        against other in-doubt transactions.  A valid slice is logged
        to the WAL as BEGIN + PUTs + PREPARE (force-synced — the
        prepare promise must survive a crash), parked in memory, and
        its read∪write set pinned until the coordinator's decision
        arrives.  Nothing is applied and no cache is invalidated yet.
        """
        with self._serve("prepare"):
            lists = lists or {}
            upload = (
                _PROBE_BYTES
                + _UID_BYTES  # the global txid rides in the envelope
                + sum(self.record_size(r) for r in writes.values())
                + (_UID_BYTES + _UID_BYTES) * len(reads)
                + sum(_UID_BYTES * len(uids) for uids in lists.values())
            )
            self.stats.bytes_received += upload
            self._instr.count("backend.rpc.bytes_received", upload)
            if txid in self._decided:
                self._charge(upload, "prepare")
                raise InvalidOperationError(
                    f"transaction {txid} was already decided"
                )
            if txid in self._prepared:
                # Retried prepare (the first reply was lost): the slice
                # is already parked and pinned — just re-acknowledge.
                self._charge(upload, "prepare")
                return True
            conflicts = stale_reads(
                reads, lambda uid: self._versions.get(uid, 0)
            )
            conflicts += self._pin_conflicts(writes, reads, txid)
            if conflicts:
                self.stats.commit_conflicts += 1
                self._instr.count("backend.mp.commit.conflicts")
                self._charge(upload, "prepare")
                raise CommitConflictError(sorted(set(conflicts)))
            synced = False
            if self.wal is not None:
                synced = self.wal.log_prepare(
                    txid,
                    [
                        put_record(txid, uid, {"record": record})
                        for uid, record in sorted(writes.items())
                    ],
                )
            self._prepared[txid] = {
                "writes": {
                    uid: self._isolate(record)
                    for uid, record in writes.items()
                },
                "lists": {
                    name: list(uids) for name, uids in lists.items()
                },
                "from_cache": from_cache,
            }
            for uid in writes:
                self._pins[uid] = txid
                self._pin_writes.add(uid)
            for uid in reads:
                self._pins.setdefault(uid, txid)
            self.stats.prepares += 1
            self._instr.count("backend.mp.prepares")
            self._charge(
                upload,
                "prepare",
                extra_service_seconds=self.fsync_seconds if synced else 0.0,
            )
            return True

    def commit_prepared(self, txid: int) -> Dict[int, int]:
        """Phase two, commit: apply a parked slice atomically.

        Idempotent — a retried decision (the first ack was lost)
        replays the memoized result without re-applying.  The decision
        is force-logged to the WAL before the writes land, then the
        slice applies under one new commit sequence number and every
        other subscribed cache is invalidated per written uid, exactly
        like ``commit_batch``'s apply half.
        """
        with self._serve("decide"):
            upload = _PROBE_BYTES + _UID_BYTES
            self.stats.bytes_received += upload
            self._instr.count("backend.rpc.bytes_received", upload)
            if txid in self._decided:
                self._charge(upload, "decide")
                memo = self._decided[txid]
                if memo is None:
                    raise InvalidOperationError(
                        f"transaction {txid} was already aborted"
                    )
                return dict(memo)
            entry = self._prepared.pop(txid, None)
            if entry is None:
                self._charge(upload, "decide")
                raise InvalidOperationError(
                    f"transaction {txid} is not prepared on this shard"
                )
            synced = False
            if self.wal is not None:
                synced = self.wal.log_decision(txid, committed=True)
            self._commit_seq += 1
            applied: Dict[int, int] = {}
            for uid, record in entry["writes"].items():
                self._records[uid] = record
                self._versions[uid] = self._commit_seq
                applied[uid] = self._commit_seq
            for name, uids in entry["lists"].items():
                self._lists[name] = list(uids)
            self._release_pins(txid)
            self._decided[txid] = dict(applied)
            self.stats.commits += 1
            self.stats.decisions += 1
            self._instr.count("backend.mp.commits")
            self._charge(
                upload,
                "decide",
                extra_service_seconds=self.fsync_seconds if synced else 0.0,
            )
            for uid in entry["writes"]:
                self._invalidate_subscribers(
                    uid, except_cache=entry["from_cache"]
                )
            return applied

    def abort_prepared(self, txid: int) -> None:
        """Phase two, abort: discard a parked slice (presumed abort).

        Idempotent and tolerant of transactions that never prepared
        here — the coordinator aborts every would-be participant when
        any one of them votes no, including shards whose prepare never
        arrived.  The ABORT decision is logged without forcing (losing
        it is harmless: recovery presumes abort).
        """
        with self._serve("decide"):
            upload = _PROBE_BYTES + _UID_BYTES
            self.stats.bytes_received += upload
            self._instr.count("backend.rpc.bytes_received", upload)
            if txid in self._decided:
                self._charge(upload, "decide")
                return
            entry = self._prepared.pop(txid, None)
            if self.wal is not None and entry is not None:
                self.wal.log_decision(txid, committed=False)
            self._release_pins(txid)
            self._decided[txid] = None
            self.stats.decisions += 1
            self._instr.count("backend.mp.2pc.aborts")
            self._charge(upload, "decide")

    def _release_pins(self, txid: int) -> None:
        for uid in [
            uid for uid, owner in self._pins.items() if owner == txid
        ]:
            del self._pins[uid]
            self._pin_writes.discard(uid)

    def in_doubt(self) -> List[int]:
        """Txids prepared but undecided (uncharged admin call)."""
        return sorted(self._prepared)

    def recover_from_wal(
        self, base_records: Optional[Dict[int, Dict[str, Any]]] = None
    ) -> List[int]:
        """Rebuild server state after a simulated crash (uncharged).

        Loads the pre-crash snapshot (what the benchmark preloaded),
        replays every *committed* transaction from the WAL in commit
        order, and re-parks transactions whose log ends at PREPARE as
        in-doubt — pins held, writes unapplied — for the coordinator's
        :meth:`~repro.sharding.router.ShardRouter.resolve_in_doubt`
        to decide.  Absent a commit decision, they stay parked and
        recovery presumes abort.

        Returns the re-parked in-doubt txids in prepare order.
        """
        if self.wal is None:
            raise InvalidOperationError(
                "recover_from_wal requires a write-ahead log"
            )
        self.load_records(base_records or {})
        committed, parked = self.wal.recover()
        for _txid, operations in committed:
            self._commit_seq += 1
            for op in operations:
                if op.kind == PUT and op.state is not None:
                    self._records[op.oid] = self._isolate(
                        op.state["record"]
                    )
                    self._versions[op.oid] = self._commit_seq
        recovered: List[int] = []
        for txid, operations in parked:
            writes = {
                op.oid: self._isolate(op.state["record"])
                for op in operations
                if op.kind == PUT and op.state is not None
            }
            self._prepared[txid] = {
                "writes": writes,
                "lists": {},
                "from_cache": None,
            }
            for uid in writes:
                self._pins[uid] = txid
                self._pin_writes.add(uid)
            recovered.append(txid)
        if recovered:
            self._instr.count("netsim.recovery.in_doubt", len(recovered))
        return recovered

    def apply_wal_operations(self, operations: List[Any]) -> None:
        """Apply one shipped transaction's records (uncharged admin).

        The replication layer tails the primary's WAL and replays each
        committed transaction's PUT records here.  Versions mirror the
        *origin* txid — not this server's own commit sequence — so an
        optimistic read set built from replica replies validates at the
        primary exactly as if the records had been fetched there: a
        record the replica holds stale carries its stale version and
        conflicts honestly.  The local commit sequence is pulled up to
        the applied txid so post-promotion commits keep ascending.
        """
        for op in operations:
            if op.kind == PUT and op.state is not None:
                self._records[op.oid] = self._isolate(op.state["record"])
                self._versions[op.oid] = op.txid
                if op.txid > self._commit_seq:
                    self._commit_seq = op.txid
                self._invalidate_subscribers(op.oid)

    def exists(self, uid: int) -> bool:
        """Key-existence probe (the server-side name-lookup index hit)."""
        with self._serve("exists"):
            self.stats.probes += 1
            self._charge(_PROBE_BYTES)
            return uid in self._records

    # ------------------------------------------------------------------
    # Server-evaluated queries
    # ------------------------------------------------------------------

    def range_query(self, attribute: str, low: int, high: int) -> List[int]:
        """Uids whose ``attribute`` lies in [low, high] (server-side).

        Charged one round trip plus uid-list transfer: the query runs
        at the server, only references come back — the design point
        R7 makes about letting the database do work remotely.
        """
        with self._serve("range_query"):
            self.stats.queries += 1
            result = [
                uid
                for uid, record in self._records.items()
                if low <= record[attribute] <= high
            ]
            size = _PROBE_BYTES + _UID_BYTES * len(result)
            self.stats.bytes_sent += size
            self._instr.count("backend.rpc.bytes_sent", size)
            self._charge(size)
            return result

    def scan_structure(self, structure_id: int) -> List[int]:
        """All uids of one structure, in uid order (server-side scan)."""
        with self._serve("scan_structure"):
            self.stats.scans += 1
            result = sorted(
                uid
                for uid, record in self._records.items()
                if record["struct"] == structure_id
            )
            size = _PROBE_BYTES + _UID_BYTES * len(result)
            self.stats.bytes_sent += size
            self._instr.count("backend.rpc.bytes_sent", size)
            self._charge(size)
            return result

    # ------------------------------------------------------------------
    # Named lists
    # ------------------------------------------------------------------

    def store_list(self, name: str, uids: List[int]) -> None:
        """Persist a named node list server-side."""
        with self._serve("store_list"):
            self.stats.stores += 1
            self._charge(_PROBE_BYTES + _UID_BYTES * len(uids))
            self._lists[name] = list(uids)

    def load_list(self, name: str) -> List[int]:
        """Load a named node list.

        Raises:
            NodeNotFoundError: for an unknown list name.
        """
        with self._serve("load_list"):
            self.stats.fetches += 1
            uids = self._lists.get(name)
            if uids is None:
                self._charge(_PROBE_BYTES)
                raise NodeNotFoundError(name)
            self._charge(_PROBE_BYTES + _UID_BYTES * len(uids))
            return list(uids)

    # ------------------------------------------------------------------
    # Introspection (not charged: administrative)
    # ------------------------------------------------------------------

    def count(self, structure_id: int) -> int:
        """Number of records in one structure (uncharged admin call)."""
        return sum(
            1 for r in self._records.values() if r["struct"] == structure_id
        )

    def export_records(self) -> Dict[int, Dict[str, Any]]:
        """A deep-enough copy of every record (uncharged admin call).

        The multi-user benchmark generates the structure once and
        preloads a fresh server per grid cell from this snapshot.
        """
        return {
            uid: self._isolate(record)
            for uid, record in self._records.items()
        }

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        """Replace server state from a snapshot (uncharged admin call).

        Versions reset to zero and the commit sequence restarts, so
        every preloaded cell of a benchmark grid starts from the same
        deterministic state.
        """
        self._records = {
            uid: self._isolate(record) for uid, record in records.items()
        }
        self._lists = {}
        self._versions = {}
        self._commit_seq = 0
        self.last_reply_versions = {}
        self._prepared = {}
        self._pins = {}
        self._pin_writes = set()
        self._decided = {}

    def __contains__(self, uid: int) -> bool:
        return uid in self._records
