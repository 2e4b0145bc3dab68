"""The backend registry and the shared exception hierarchy."""

import os

import pytest

from repro.backends import (
    BackendSpec,
    available_backends,
    backend_specs,
    create_backend,
    get_backend_spec,
    register_backend,
    unregister_backend,
)
from repro.backends.memory import MemoryDatabase
from repro.core.interface import HyperModelDatabase
from repro.errors import (
    AccessDeniedError,
    ConfigurationError,
    DeadlockError,
    HyperModelError,
    NodeNotFoundError,
    QuerySyntaxError,
    RecordNotFoundError,
    SchemaError,
    StorageError,
    TransactionError,
)


class TestRegistry:
    def test_lists_all_backends(self):
        names = available_backends()
        for expected in ("memory", "sqlite", "oodb", "clientserver"):
            assert expected in names
        assert "oodb-unclustered" in names

    def test_creates_every_backend(self, tmp_path):
        for name in available_backends():
            path = None
            if name in ("oodb", "oodb-unclustered"):
                path = os.path.join(str(tmp_path), f"{name}.hmdb")
            elif name == "sqlite-file":
                path = os.path.join(str(tmp_path), "f.db")
            db = create_backend(name, path)
            assert isinstance(db, HyperModelDatabase)
            db.open()
            assert db.is_open
            db.close()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            create_backend("dbase-iii")

    @pytest.mark.parametrize("name", ["oodb", "oodb-unclustered", "sqlite-file"])
    def test_file_backends_require_a_path(self, name):
        with pytest.raises(ConfigurationError):
            create_backend(name, None)

    def test_unclustered_variant_disables_policy(self, tmp_path):
        with create_backend(
            "oodb-unclustered", os.path.join(str(tmp_path), "u.hmdb")
        ) as db:
            assert db.backend_name == "oodb-unclustered"
            assert not db.store.clustering.enabled


class TestRegistration:
    """The public register_backend / BackendSpec surface."""

    def _spy_factory(self, calls):
        def factory(path, **options):
            calls.append((path, options))
            return MemoryDatabase()
        return factory

    def test_register_and_create_roundtrip(self):
        calls = []
        try:
            spec = register_backend(
                "test-backend",
                self._spy_factory(calls),
                description="registry test double",
            )
            assert isinstance(spec, BackendSpec)
            assert "test-backend" in available_backends()
            assert get_backend_spec("test-backend") is spec
            assert spec in backend_specs()
            db = create_backend("test-backend", cache_pages=32)
            assert isinstance(db, HyperModelDatabase)
            assert calls == [(None, {"cache_pages": 32})]
        finally:
            unregister_backend("test-backend")
        assert "test-backend" not in available_backends()

    def test_duplicate_registration_rejected_without_replace(self):
        try:
            register_backend("test-dup", self._spy_factory([]))
            with pytest.raises(ConfigurationError, match="already registered"):
                register_backend("test-dup", self._spy_factory([]))
            # replace=True overwrites cleanly.
            replaced = register_backend(
                "test-dup", self._spy_factory([]), replace=True
            )
            assert get_backend_spec("test-dup") is replaced
        finally:
            unregister_backend("test-dup")

    def test_default_options_merge_under_caller_options(self):
        calls = []
        try:
            register_backend(
                "test-opts",
                self._spy_factory(calls),
                default_options={"clustered": False, "cache_pages": 8},
            )
            create_backend("test-opts", cache_pages=64)
            assert calls == [(None, {"clustered": False, "cache_pages": 64})]
        finally:
            unregister_backend("test-opts")

    def test_needs_path_enforced_at_create_time(self):
        try:
            register_backend(
                "test-file", self._spy_factory([]), needs_path=True
            )
            with pytest.raises(ConfigurationError, match="requires a path"):
                create_backend("test-file")
        finally:
            unregister_backend("test-file")

    def test_spec_is_immutable(self):
        spec = get_backend_spec("memory")
        with pytest.raises(Exception):
            spec.name = "other"

    def test_unknown_spec_lookup_names_the_alternatives(self):
        with pytest.raises(ConfigurationError, match="available:"):
            get_backend_spec("dbase-iii")

    def test_instrumentation_option_reaches_the_backend(self):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        db = create_backend("memory", instrumentation=instr)
        assert db.instrumentation is instr


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            NodeNotFoundError,
            RecordNotFoundError,
            StorageError,
            TransactionError,
            DeadlockError,
            SchemaError,
            QuerySyntaxError,
            AccessDeniedError,
            ConfigurationError,
        ],
    )
    def test_everything_derives_from_the_base(self, error_type):
        assert issubclass(error_type, HyperModelError)

    def test_storage_refinements(self):
        assert issubclass(DeadlockError, TransactionError)
        assert issubclass(TransactionError, StorageError)
        assert issubclass(RecordNotFoundError, StorageError)

    def test_error_payloads(self):
        node_error = NodeNotFoundError(42)
        assert node_error.ref == 42
        assert "42" in str(node_error)

        access_error = AccessDeniedError("alice", "write", 7)
        assert (access_error.principal, access_error.action) == ("alice", "write")

        syntax_error = QuerySyntaxError("boom", position=13)
        assert syntax_error.position == 13
        assert "position 13" in str(syntax_error)


class TestStorageIoOptions:
    """The vfs/group_commit options flow through create_backend."""

    def test_vfs_option_reaches_the_engine(self, tmp_path):
        from repro.backends.registry import create_backend
        from repro.engine.vfs import FaultInjectingVFS

        vfs = FaultInjectingVFS()
        db = create_backend(
            "oodb", str(tmp_path / "vfs.hmdb"), vfs=vfs, sync_commits=True
        )
        db.open()
        db.close()
        assert vfs.mutation_ops > 0  # the engine's I/O crossed the seam

    def test_group_commit_option_reaches_the_wal(self, tmp_path):
        from repro.backends.registry import create_backend

        db = create_backend(
            "oodb",
            str(tmp_path / "gc.hmdb"),
            group_commit=True,
            group_commit_size=5,
        )
        db.open()
        assert db.store._wal.group_commit is True
        assert db.store._wal.group_commit_size == 5
        db.close()

    def test_network_error_hierarchy(self):
        from repro.errors import (
            NetworkError,
            RpcDroppedError,
            RpcExhaustedError,
            RpcTimeoutError,
        )

        for refined in (RpcDroppedError, RpcTimeoutError, RpcExhaustedError):
            assert issubclass(refined, NetworkError)
        assert issubclass(NetworkError, HyperModelError)
