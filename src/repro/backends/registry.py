"""Backend registry: build any HyperModel backend by name.

Backends are registered as :class:`BackendSpec` entries through
:func:`register_backend` and constructed with :func:`create_backend`.
Factories import their backend module lazily so importing the registry
never pulls in subsystems the caller does not use.  The registry is
the single place the harness, the CLI, the examples and the tests
obtain backends from — and it is *open*: external code can register
its own backend under a new name and every harness entry point picks
it up.

Construction is uniform: ``create_backend(name, path=None, **options)``
forwards ``path`` plus any keyword options to the backend factory, so
variants like ``oodb-unclustered`` are plain registrations with
``default_options={"clustered": False}`` instead of one-off wrapper
functions.  Every built-in backend accepts an ``instrumentation``
option (see :mod:`repro.obs`).  The engine-file backends (``oodb``,
``oodb-unclustered``) additionally accept ``vfs=`` (the storage I/O
seam of :mod:`repro.engine.vfs`, used for deterministic fault
injection and I/O counting) and ``group_commit=`` /
``group_commit_size=`` (batched commit fsyncs); the ``clientserver``
backend takes one typed ``network=``
:class:`~repro.netsim.config.NetworkConfig` bundling the latency and
fault models, cache size, retry policy, closure push-down and the
concurrency mode (``clientserver-bfs`` is the
``NetworkConfig(pushdown=False)`` ablation, mirroring
``oodb-unclustered``).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.interface import HyperModelDatabase
from repro.errors import ConfigurationError
from repro.netsim.config import (
    NetworkConfig,
    ReplicationConfig,
    ShardConfig,
)

#: A mapping of keyword options forwarded to a backend factory
#: (``cache_pages=...``, ``clustered=...``, ``instrumentation=...`` …).
BackendOptions = Mapping[str, Any]

#: A backend factory: receives the filesystem path (or ``None``) plus
#: the merged keyword options and returns a *closed* backend instance.
BackendFactory = Callable[..., HyperModelDatabase]


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """One registered backend.

    Attributes:
        name: the registry key accepted by :func:`create_backend`.
        factory: callable ``factory(path, **options)`` returning a
            closed :class:`HyperModelDatabase`.
        needs_path: whether ``create_backend`` must be given a
            filesystem path for this backend.
        default_options: options merged *under* the caller's keyword
            options (the caller wins on conflict).  This is how ablation
            variants are expressed without wrapper functions.
        description: one line for ``repro info`` and error messages.
    """

    name: str
    factory: BackendFactory
    needs_path: bool = False
    default_options: Mapping[str, Any] = dataclasses.field(
        default_factory=dict
    )
    description: str = ""


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(
    name: str,
    factory: BackendFactory,
    *,
    needs_path: bool = False,
    default_options: Optional[BackendOptions] = None,
    description: str = "",
    replace: bool = False,
) -> BackendSpec:
    """Register (or re-register) a backend factory under ``name``.

    Args:
        name: registry key; must be new unless ``replace=True``.
        factory: ``factory(path, **options) -> HyperModelDatabase``.
        needs_path: require a path at :func:`create_backend` time.
        default_options: options applied beneath the caller's.
        description: short human-readable summary.
        replace: allow overwriting an existing registration.

    Returns:
        The stored :class:`BackendSpec`.

    Raises:
        ConfigurationError: if ``name`` is taken and not ``replace``.
    """
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {name!r} is already registered; pass replace=True"
            " to overwrite"
        )
    spec = BackendSpec(
        name=name,
        factory=factory,
        needs_path=needs_path,
        default_options=dict(default_options or {}),
        description=description,
    )
    _REGISTRY[name] = spec
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registration (primarily for tests of the registry)."""
    _REGISTRY.pop(name, None)


def get_backend_spec(name: str) -> BackendSpec:
    """Return the :class:`BackendSpec` registered under ``name``.

    Raises:
        ConfigurationError: for an unknown name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names accepted by :func:`create_backend`, in registry order."""
    return list(_REGISTRY)


def backend_specs() -> List[BackendSpec]:
    """All registered specs, in registry order."""
    return list(_REGISTRY.values())


def create_backend(
    name: str, path: Optional[str] = None, **options: Any
) -> HyperModelDatabase:
    """Construct a closed backend instance by registry name.

    Args:
        name: one of :func:`available_backends`.
        path: filesystem location for file-backed backends; ignored by
            purely in-memory ones.
        **options: backend-specific keyword options, merged over the
            spec's ``default_options`` (caller wins).  All built-in
            backends accept ``instrumentation=`` here.

    Raises:
        ConfigurationError: for an unknown name or a missing required
            path.
    """
    spec = get_backend_spec(name)
    if spec.needs_path and path is None:
        raise ConfigurationError(f"{name} backend requires a path")
    merged: Dict[str, Any] = dict(spec.default_options)
    merged.update(options)
    return spec.factory(path, **merged)


# ----------------------------------------------------------------------
# Built-in backends (lazy imports inside the factories)
# ----------------------------------------------------------------------


def _memory_factory(
    path: Optional[str], **options: Any
) -> HyperModelDatabase:
    from repro.backends.memory import MemoryDatabase

    return MemoryDatabase(**options)


def _sqlite_factory(
    path: Optional[str], **options: Any
) -> HyperModelDatabase:
    from repro.backends.sqlite_backend import SqliteDatabase

    return SqliteDatabase(path or ":memory:", **options)


def _sqlite_file_factory(
    path: Optional[str], **options: Any
) -> HyperModelDatabase:
    from repro.backends.sqlite_backend import SqliteDatabase

    return SqliteDatabase(path, **options)


def _oodb_factory(path: Optional[str], **options: Any) -> HyperModelDatabase:
    from repro.backends.oodb import OodbDatabase

    return OodbDatabase(path, **options)


def _clientserver_factory(
    path: Optional[str], **options: Any
) -> HyperModelDatabase:
    from repro.backends.clientserver import ClientServerDatabase

    return ClientServerDatabase(path, **options)


register_backend(
    "memory",
    _memory_factory,
    description="in-process object graph (the Smalltalk-image bound)",
)
register_backend(
    "sqlite",
    _sqlite_factory,
    description="relational mapping on sqlite3 (in-memory by default)",
)
register_backend(
    "sqlite-file",
    _sqlite_file_factory,
    needs_path=True,
    description="relational mapping on a sqlite3 file",
)
register_backend(
    "oodb",
    _oodb_factory,
    needs_path=True,
    description="from-scratch paged object engine, 1-N clustered",
)
register_backend(
    "oodb-unclustered",
    _oodb_factory,
    needs_path=True,
    default_options={"clustered": False},
    description="paged object engine with clustering disabled (ablation)",
)
register_backend(
    "clientserver",
    _clientserver_factory,
    description=(
        "workstation cache over a simulated object server"
        " (closure push-down on)"
    ),
)
register_backend(
    "clientserver-bfs",
    _clientserver_factory,
    default_options={"network": NetworkConfig(pushdown=False)},
    description=(
        "client/server with push-down disabled: one batch RPC per"
        " closure level (ablation)"
    ),
)
register_backend(
    "clientserver-sharded-hash",
    _clientserver_factory,
    default_options={
        "network": NetworkConfig(
            sharding=ShardConfig(shards=2, placement="hash")
        )
    },
    description=(
        "client/server over 2 shards, consistent-hash placement"
        " (scatter-gather push-down, 2PC commits)"
    ),
)
register_backend(
    "clientserver-sharded-affine",
    _clientserver_factory,
    default_options={
        "network": NetworkConfig(
            sharding=ShardConfig(shards=2, placement="affine")
        )
    },
    description=(
        "client/server over 2 shards, subtree-affine placement"
        " (1-N closures stay shard-local)"
    ),
)
register_backend(
    "clientserver-sharded-occ",
    _clientserver_factory,
    default_options={
        "network": NetworkConfig(
            concurrency="optimistic",
            sharding=ShardConfig(shards=2, placement="hash"),
        )
    },
    description=(
        "client/server over 2 hash-placed shards with optimistic"
        " concurrency: commits validate via commit_batch, so"
        " cross-shard write sets exercise the two-phase commit path"
        " (the backend to trace 2PC with)"
    ),
)
register_backend(
    "clientserver-replicated",
    _clientserver_factory,
    default_options={
        "network": NetworkConfig(
            replication=ReplicationConfig(replicas=2)
        )
    },
    description=(
        "client/server over 1 primary + 2 WAL-shipping replicas:"
        " reads route to replicas under session LSN tokens, writes"
        " land on the primary"
    ),
)
