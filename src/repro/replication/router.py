"""The replica router: one client's read-scaled view of the group.

:class:`ReplicaRouter` implements the
:class:`~repro.netsim.server.ServerVerbs` surface of a single
:class:`~repro.netsim.server.ObjectServer`, so
:class:`~repro.backends.clientserver.ClientServerDatabase` plugs it in
as its ``server`` unchanged.  Behind the surface:

* **Reads** (``fetch``, ``fetch_many``, ``traverse``, ``readahead`` —
  the whole push-down surface) route to a replica picked by the
  configured policy, but only among replicas whose applied LSN has
  reached this client's **session LSN token** — the LSN of its last
  acknowledged write.  If no replica qualifies (fresh write, lagging
  replicas) the read falls back to the primary, so read-your-writes
  holds unconditionally while everything else enjoys bounded-staleness
  reads off the primary's lane.
* **Writes and everything non-read** (``store``, ``commit_batch``,
  probes, queries, named lists, admin) go to the primary;
  a successful write advances the session token to the LSN the commit
  shipped at.
* **Policies** — ``round_robin`` rotates the eligible set per client;
  ``least_queue`` picks the eligible replica whose transport lane has
  the smallest backlog (``server_free_at - virtual_now`` on the
  contended lanes the ``backend.mp.*`` gauges watch), degrading to
  round-robin when lanes expose no queue (the single-client
  ``DirectTransport``).

The router is **per client**: the session token and the round-robin
cursor are client state.  All routers share one
:class:`~repro.replication.group.ReplicationGroup`; a group
``generation`` bump (bulk load, failover promotion) invalidates every
outstanding session token on its next read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.wal import WriteAheadLog
from repro.errors import ConfigurationError
from repro.netsim.config import REPLICA_POLICIES
from repro.netsim.server import ObjectServer, RouterBase
from repro.obs import Instrumentation, resolve
from repro.replication.group import ReplicationGroup


class ReplicaRouter(RouterBase):
    """Session-consistent read routing over a shared replication group.

    Args:
        group: the shared primary + replicas deployment.
        policy: ``"round_robin"`` or ``"least_queue"``.
        instrumentation: counter/span sink (defaults to the group's).
    """

    def __init__(
        self,
        group: ReplicationGroup,
        *,
        policy: str = "round_robin",
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        if policy not in REPLICA_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {REPLICA_POLICIES}, got {policy!r}"
            )
        super().__init__()
        self.group = group
        self.policy = policy
        self.instrumentation = (
            resolve(instrumentation)
            if instrumentation is not None
            else group.instrumentation
        )
        self._instr = self.instrumentation
        #: LSN of this client's last acknowledged write; reads only
        #: route to replicas that have applied at least this much.
        self.session_lsn = 0
        #: Ablation switch: route every read to the primary as if no
        #: replica were ever eligible (the benchmark's primary-served
        #: comparison arm; never set in production paths).
        self.force_primary = False
        self._generation = group.generation
        self._rr = 0

    # ------------------------------------------------------------------
    # Server surface: plumbing
    # ------------------------------------------------------------------

    def _servers(self) -> List[ObjectServer]:
        return [self.group.primary] + self.group.replicas

    @property
    def clock(self):
        return self.group.clock

    @property
    def latency(self):
        return self.group.latency

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        return self.group.wal

    def trace_lane_metadata(self) -> Dict[str, Dict[str, object]]:
        """Per-lane metadata for the Chrome trace export (the servers
        stamp ``primary``/``replica<i>`` tags on their spans)."""
        meta: Dict[str, Dict[str, object]] = {
            "primary": {
                "role": "primary",
                "replicas": self.group.config.replicas,
                "policy": self.policy,
            }
        }
        for index in range(self.group.config.replicas):
            meta[f"replica{index}"] = {
                "role": "replica",
                "replicas": self.group.config.replicas,
                "policy": self.policy,
            }
        return meta

    def subscribe(self, cache) -> None:
        self.group.subscribe(cache)

    def unsubscribe(self, cache) -> None:
        self.group.unsubscribe(cache)

    def use_transport(self, transport):
        return self.group.use_transport(transport)

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------

    def _check_generation(self) -> None:
        if self._generation != self.group.generation:
            # Bulk load or failover: the old token speaks a dead
            # epoch's LSNs; reset rather than compare across epochs.
            self._generation = self.group.generation
            self.session_lsn = 0
            self._rr = 0

    @staticmethod
    def _backlog(server: ObjectServer) -> float:
        transport = server.transport
        free_at = getattr(transport, "server_free_at", None)
        now = getattr(transport, "virtual_now", None)
        if free_at is None or now is None:
            return 0.0
        return max(0.0, free_at - now)

    def _read_server(self) -> ObjectServer:
        """Pick the server for one read: an eligible replica, or the
        primary when none is fresh enough for the session token."""
        self._check_generation()
        if self.force_primary:
            self.group.catch_up()
            self._instr.count("backend.replica.forced_primary")
            return self.group.primary
        states = self.group.eligible_replicas(self.session_lsn)
        if not states:
            self._instr.count("backend.replica.fallbacks")
            return self.group.primary
        if self.policy == "least_queue":
            backlogs = [self._backlog(state.server) for state in states]
            if max(backlogs) > min(backlogs):
                choice = min(
                    zip(backlogs, range(len(states))),
                    key=lambda pair: pair,
                )[1]
                state = states[choice]
            else:
                state = states[self._rr % len(states)]
                self._rr += 1
        else:
            state = states[self._rr % len(states)]
            self._rr += 1
        self._instr.count("backend.replica.reads")
        self._instr.count(f"backend.replica.{state.index}.reads")
        return state.server

    def fetch(self, uid: int) -> Dict[str, Any]:
        return self._call(self._read_server(), "fetch", uid)

    def fetch_many(self, uids: List[int]) -> Dict[int, Dict[str, Any]]:
        return self._call(self._read_server(), "fetch_many", uids)

    def traverse(
        self,
        root: int,
        relation: str,
        depth: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> Dict[int, Dict[str, Any]]:
        return self._call(
            self._read_server(),
            "traverse",
            root,
            relation,
            depth=depth,
            limit=limit,
        )

    def readahead(
        self, uids: List[int], depth: int = 1, limit: Optional[int] = None
    ) -> Dict[int, Dict[str, Any]]:
        return self._call(
            self._read_server(), "readahead", uids, depth=depth, limit=limit
        )

    # ------------------------------------------------------------------
    # Writes (primary only; acks advance the session token)
    # ------------------------------------------------------------------

    def _note_write(self) -> None:
        # The primary's on_commit hook already polled the shipper, so
        # primary_lsn is exactly the LSN this write committed at.
        self.session_lsn = self.group.shipper.primary_lsn

    def store(self, uid: int, record: Dict[str, Any], from_cache=None) -> None:
        self._check_generation()
        result = self._call(
            self.group.primary, "store", uid, record, from_cache=from_cache
        )
        self._note_write()
        return result

    def commit_batch(
        self,
        writes: Dict[int, Dict[str, Any]],
        reads: Dict[int, int],
        lists: Optional[Dict[str, List[int]]] = None,
        from_cache=None,
    ) -> Dict[int, int]:
        self._check_generation()
        applied = self._call(
            self.group.primary,
            "commit_batch",
            writes,
            reads,
            lists,
            from_cache=from_cache,
        )
        if writes:
            self._note_write()
        return applied

    # ------------------------------------------------------------------
    # Primary passthrough (probes, queries, lists, admin)
    # ------------------------------------------------------------------

    def exists(self, uid: int) -> bool:
        return self._call(self.group.primary, "exists", uid)

    def range_query(self, attribute: str, low: int, high: int) -> List[int]:
        return self._call(
            self.group.primary, "range_query", attribute, low, high
        )

    def scan_structure(self, structure_id: int) -> List[int]:
        return self._call(self.group.primary, "scan_structure", structure_id)

    def store_list(self, name: str, uids: List[int]) -> None:
        return self._call(self.group.primary, "store_list", name, uids)

    def load_list(self, name: str) -> List[int]:
        return self._call(self.group.primary, "load_list", name)

    def count(self, structure_id: int) -> int:
        return self.group.count(structure_id)

    def export_records(self) -> Dict[int, Dict[str, Any]]:
        return self.group.export_records()

    def load_records(self, records: Dict[int, Dict[str, Any]]) -> None:
        self.group.load_records(records)
        self._check_generation()

    def __contains__(self, uid: int) -> bool:
        return uid in self.group
