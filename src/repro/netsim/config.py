"""Typed configuration for the simulated network and the event scheduler.

Two frozen dataclasses:

* :class:`NetworkConfig` — everything that shapes **one client's**
  view of the wire: the latency/fault models, the workstation cache
  size, the retry policy, push-down/readahead, and the concurrency
  mode (plain last-writer-wins stores vs optimistic validation at
  commit).
* :class:`SimConfig` — everything that shapes a **multi-client
  simulation**: the seed, think time, server service time, the virtual
  fsync cost charged at WAL durability points, the Zipf skew of the
  access pattern, and the retry pause after an optimistic abort.

Both are immutable (safe to share as registry ``default_options``) and
validate in ``__post_init__``, raising
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import ConfigurationError
from repro.netsim.faults import FaultModel
from repro.netsim.latency import LatencyModel

#: Concurrency modes a client understands.
CONCURRENCY_MODES = ("none", "optimistic")

#: OID→shard placement policies the sharding layer understands.
PLACEMENT_POLICIES = ("hash", "affine")

#: Read-routing policies the replication layer understands.
REPLICA_POLICIES = ("round_robin", "least_queue")


@dataclasses.dataclass(frozen=True)
class ReplicationConfig:
    """How reads scale out across WAL-shipping replica servers.

    Writes always go to the primary; the read verb surface
    (``fetch``/``fetch_many``/``traverse``/``readahead``) is routed to
    replicas by a :class:`~repro.replication.router.ReplicaRouter`.
    Read-your-writes is enforced per workstation with session LSN
    tokens: a read is only routed to a replica whose applied LSN has
    reached the client's last-commit LSN, else it falls back to the
    primary (see ``docs/replication.md``).

    Attributes:
        replicas: number of replica servers behind the primary (>= 1).
        policy: ``"round_robin"`` — rotate eligible replicas per client
            — or ``"least_queue"`` — pick the eligible replica whose
            transport lane has the smallest backlog (the
            ``backend.mp.*`` busy timeline).
        apply_lag_seconds: virtual delay between a commit being shipped
            and a replica applying it — the deterministic staleness
            bound (0 = replicas are always fresh).
    """

    replicas: int = 2
    policy: str = "round_robin"
    apply_lag_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.policy not in REPLICA_POLICIES:
            raise ConfigurationError(
                f"policy must be one of {REPLICA_POLICIES},"
                f" got {self.policy!r}"
            )
        if self.apply_lag_seconds < 0:
            raise ConfigurationError(
                "apply_lag_seconds cannot be negative,"
                f" got {self.apply_lag_seconds}"
            )

    def replace(self, **changes) -> "ReplicationConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class ShardConfig:
    """How the object store is partitioned across shard servers.

    ``shards=1`` (the default) means *no* sharding at all: the client
    talks to a single :class:`~repro.netsim.server.ObjectServer`
    through exactly the code path it always used, bit-identical to the
    unsharded backend.  With ``shards > 1`` the client routes every
    request through a :class:`~repro.sharding.router.ShardRouter`.

    Attributes:
        shards: number of shard servers (>= 1).
        placement: ``"hash"`` — consistent hashing over OIDs (uniform,
            structure-blind) — or ``"affine"`` — subtree-affine
            placement that co-locates whole 1-N closure subtrees on
            one shard (clustering as a placement policy, the paper's
            own axis; see :mod:`repro.sharding.placement`).
        virtual_nodes: ring points per shard for the ``hash`` policy
            (more points = smoother balance, slower ring build).
        fanout: tree fan-out assumed by the ``affine`` policy (the
            HyperModel generator's 5).
        first_uid: uniqueId of the structure's root for the ``affine``
            policy (the generator's ``first_uid``).
        affinity_level: tree level whose subtrees the ``affine``
            policy keeps together — level 1 (default) spreads the
            root's ``fanout`` child subtrees round-robin over shards.
    """

    shards: int = 1
    placement: str = "hash"
    virtual_nodes: int = 64
    fanout: int = 5
    first_uid: int = 1
    affinity_level: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"placement must be one of {PLACEMENT_POLICIES},"
                f" got {self.placement!r}"
            )
        if self.virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )
        if self.fanout < 2:
            raise ConfigurationError(
                f"fanout must be >= 2, got {self.fanout}"
            )
        if self.affinity_level < 0:
            raise ConfigurationError(
                "affinity_level cannot be negative,"
                f" got {self.affinity_level}"
            )

    def replace(self, **changes) -> "ShardConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class NetworkConfig:
    """One client's network, cache, retry and concurrency settings.

    Attributes:
        latency: the wire cost model (``None`` = the server's default,
            ~1 ms round trips at ~1 MB/s).
        fault_model: seeded RPC drop/timeout injection; only applied
            when the client *creates* its server (a shared server keeps
            whatever model it was built with).
        cache_capacity: workstation cache size in objects.
        rpc_retries: retries before
            :class:`~repro.errors.RpcExhaustedError`.
        rpc_backoff_seconds: base of the exponential retry backoff
            charged to the simulated clock.
        pushdown: run closure traversals at the server and read ahead
            structurally on cache misses (the ``clientserver-bfs``
            ablation sets this False).
        readahead_depth: structural readahead depth on a cache miss
            (0 disables; only meaningful with ``pushdown=True``).
        concurrency: ``"none"`` — commits upload dirty records with
            last-writer-wins stores (the single-user default) —
            or ``"optimistic"`` — commits ship the write set *and* the
            read-set versions in one ``commit_batch`` RPC the server
            validates, raising
            :class:`~repro.errors.CommitConflictError` on stale reads.
        sharding: partition the store across N shard servers behind a
            :class:`~repro.sharding.router.ShardRouter` (``None`` or
            ``shards=1`` keeps the classic single-server stack,
            bit-identical).
        replication: scale reads across WAL-shipping replicas behind a
            :class:`~repro.replication.router.ReplicaRouter` (``None``
            keeps the classic single-server stack; mutually exclusive
            with ``sharding`` of more than one shard).
    """

    latency: Optional[LatencyModel] = None
    fault_model: Optional[FaultModel] = None
    cache_capacity: int = 4096
    rpc_retries: int = 4
    rpc_backoff_seconds: float = 0.002
    pushdown: bool = True
    readahead_depth: int = 1
    concurrency: str = "none"
    sharding: Optional[ShardConfig] = None
    replication: Optional[ReplicationConfig] = None

    def __post_init__(self) -> None:
        if self.cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )
        if self.rpc_retries < 0:
            raise ConfigurationError(
                f"rpc_retries cannot be negative, got {self.rpc_retries}"
            )
        if self.rpc_backoff_seconds < 0:
            raise ConfigurationError(
                "rpc_backoff_seconds cannot be negative,"
                f" got {self.rpc_backoff_seconds}"
            )
        if self.readahead_depth < 0:
            raise ConfigurationError(
                "readahead_depth cannot be negative,"
                f" got {self.readahead_depth}"
            )
        if self.concurrency not in CONCURRENCY_MODES:
            raise ConfigurationError(
                f"concurrency must be one of {CONCURRENCY_MODES},"
                f" got {self.concurrency!r}"
            )
        if (
            self.replication is not None
            and self.sharding is not None
            and self.sharding.shards > 1
        ):
            raise ConfigurationError(
                "replication and sharding cannot be combined:"
                " replicate the shards or shard the replicas, not both"
            )

    def replace(self, **changes) -> "NetworkConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class SimConfig:
    """Shape of one discrete-event multi-client simulation.

    Attributes:
        seed: master seed; every per-client PRNG derives from it, so
            one integer pins the whole run (event order, Zipf draws,
            abort decisions).
        think_time_seconds: virtual pause between a workstation's
            consecutive tasks — the closed-queueing-network "Z" that
            makes throughput rise with client count until the server
            saturates.
        service_time_seconds: fixed server CPU cost per request,
            charged on the server's busy timeline (requests queue
            behind it; the contended half of the charge model).
        fsync_seconds: virtual cost of one WAL durability point,
            charged as extra service on the commit that takes it —
            this is what makes group commit measurable: deferred
            commits skip the charge.
        zipf_theta: skew of the Zipf access pattern (0 = uniform;
            ~0.8 = classic hot-spot skew).
        retry_backoff_seconds: virtual pause a client waits after an
            optimistic abort before retrying the transaction.
    """

    seed: int = 1989
    think_time_seconds: float = 0.005
    service_time_seconds: float = 0.0002
    fsync_seconds: float = 0.002
    zipf_theta: float = 0.8
    retry_backoff_seconds: float = 0.002

    def __post_init__(self) -> None:
        for name in (
            "think_time_seconds",
            "service_time_seconds",
            "fsync_seconds",
            "retry_backoff_seconds",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(
                    f"{name} cannot be negative, got {getattr(self, name)}"
                )
        if self.zipf_theta < 0:
            raise ConfigurationError(
                f"zipf_theta cannot be negative, got {self.zipf_theta}"
            )

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)
