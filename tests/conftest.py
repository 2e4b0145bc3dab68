"""Shared fixtures: configurations, backends and generated databases.

The parametrized ``any_backend`` fixture runs conformance-style tests
against every backend; ``small_config`` keeps the structures tiny
(level 2, 31 nodes) so the full suite stays fast, while dedicated tests
exercise the paper's real levels.
"""

from __future__ import annotations

import os

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.backends.memory import MemoryDatabase
from repro.backends.oodb import OodbDatabase
from repro.backends.sqlite_backend import SqliteDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.netsim.config import (
    NetworkConfig,
    ReplicationConfig,
    ShardConfig,
)

BACKEND_NAMES = [
    "memory", "sqlite", "sqlite-file", "oodb",
    "clientserver", "clientserver-bfs",
    "clientserver-sharded-hash", "clientserver-sharded-affine",
    "clientserver-replicated",
]


def make_backend(name: str, tmp_path, suffix: str = "db"):
    """Construct a closed backend of the given kind."""
    if name == "memory":
        return MemoryDatabase()
    if name == "sqlite":
        return SqliteDatabase(":memory:")
    if name == "sqlite-file":
        return SqliteDatabase(os.path.join(str(tmp_path), f"{suffix}.sqlite"))
    if name == "oodb":
        return OodbDatabase(os.path.join(str(tmp_path), f"{suffix}.hmdb"))
    if name == "clientserver":
        return ClientServerDatabase()
    if name == "clientserver-bfs":
        return ClientServerDatabase(network=NetworkConfig(pushdown=False))
    if name == "clientserver-sharded-hash":
        return ClientServerDatabase(
            network=NetworkConfig(
                sharding=ShardConfig(shards=2, placement="hash")
            )
        )
    if name == "clientserver-sharded-affine":
        return ClientServerDatabase(
            network=NetworkConfig(
                sharding=ShardConfig(shards=2, placement="affine")
            )
        )
    if name == "clientserver-replicated":
        return ClientServerDatabase(
            network=NetworkConfig(
                replication=ReplicationConfig(replicas=2)
            )
        )
    raise ValueError(name)


@pytest.fixture
def small_config() -> HyperModelConfig:
    """A level-2 configuration: 31 nodes, fast everywhere."""
    return HyperModelConfig(levels=2, seed=42)


@pytest.fixture
def level3_config() -> HyperModelConfig:
    """A level-3 configuration: 156 nodes, closures have depth."""
    return HyperModelConfig(levels=3, seed=42)


@pytest.fixture(params=BACKEND_NAMES)
def any_backend(request, tmp_path):
    """An open, empty backend of every kind (parametrized)."""
    db = make_backend(request.param, tmp_path)
    db.open()
    yield db
    if db.is_open:
        db.close()


@pytest.fixture(params=BACKEND_NAMES)
def populated(request, tmp_path, level3_config):
    """(db, gen) for a generated level-3 structure on every backend."""
    db = make_backend(request.param, tmp_path)
    db.open()
    gen = DatabaseGenerator(level3_config).generate(db)
    db.commit()
    yield db, gen
    if db.is_open:
        db.close()


@pytest.fixture
def memory_populated(level3_config):
    """(db, gen) on the in-memory backend only (fast semantic tests)."""
    db = MemoryDatabase()
    db.open()
    gen = DatabaseGenerator(level3_config).generate(db)
    yield db, gen
    db.close()
