"""The crash-recovery matrix: kill the engine at *every* I/O boundary.

The R10 recoverability claim used to rest on a handful of hand-picked
torn-WAL tests.  This harness makes it exhaustive: a scripted,
deterministic workload (create/update/delete transactions with a
shadow model of the expected post-commit state) is first run once
through a :class:`~repro.engine.vfs.FaultInjectingVFS` with no faults
scheduled to *count* the mutating I/O operations, and then re-run once
per operation with a simulated crash — alternating clean and torn-write
crashes — scheduled at exactly that operation.  After each crash the
database files are reopened through a fresh
:class:`~repro.engine.vfs.RealVFS`, recovery runs, and two invariants
are checked:

* **atomicity** — the recovered object state equals *some* recorded
  post-commit snapshot (never a mix of two transactions, never a
  partial transaction);
* **durability** — that snapshot is at least as new as the last commit
  that *returned* to the caller before the crash (with ``sync_commits``
  on and group commit off, a returned commit is a durable commit), and
  no newer than the one commit that may have been in flight.

The matrix is surfaced as the ``repro crashtest`` CLI subcommand, which
writes a ``BENCH_crash.json`` document; CI runs a small matrix and
fails the build on any invariant violation.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from typing import Any, Dict, List, Optional

from repro.engine.catalog import FieldDefinition
from repro.engine.store import ObjectStore
from repro.engine.vfs import FaultInjectingVFS, RealVFS, SimulatedCrash, VFS
from repro.errors import StorageError
from repro.harness.grid import crash_matrix
from repro.harness.provenance import provenance

__all__ = [
    "CrashWorkload",
    "CrashPointResult",
    "run_crash_matrix",
    "format_summary",
]

#: Objects created by the workload belong to this class.
_CLASS = "Doc"


@dataclasses.dataclass(frozen=True)
class CrashWorkload:
    """The scripted workload the matrix crashes over and over.

    Attributes:
        transactions: committed transactions after the schema setup.
        ops_per_txn: object operations per transaction.
        payload_bytes: size of each object's ``body`` field (bigger
            payloads mean more page writes per commit, hence more
            crash points).
        seed: drives the operation mix and the torn-write prefixes;
            one seed replays the whole matrix byte-identically.
    """

    transactions: int = 16
    ops_per_txn: int = 6
    payload_bytes: int = 512
    seed: int = 7

    def __post_init__(self) -> None:
        if self.transactions < 1:
            raise ValueError("transactions must be >= 1")


@dataclasses.dataclass
class CrashPointResult:
    """The outcome of one cell of the matrix.

    Attributes:
        op: the 1-based mutating I/O operation the crash was scheduled
            at.
        torn: whether the crash point was a torn write (seeded prefix
            persisted) rather than a clean kill.
        crashed: whether the workload actually died there.  Almost
            always true; the exception is a crash point landing in the
            post-checkpoint disposal path (e.g. the redundant header
            write in ``PageFile.close``), where the store ignores
            close-time errors by design and the run completes.
        commits_returned: commits that had returned to the caller when
            the crash hit — the durability lower bound.
        recovered_snapshot: index of the post-commit snapshot the
            recovered state matched (0 = empty database), or ``None``
            on an atomicity violation.
        violation: human-readable invariant violation, or ``None``.
    """

    op: int
    torn: bool
    crashed: bool
    commits_returned: int
    recovered_snapshot: Optional[int]
    violation: Optional[str]

    def to_dict(self) -> Dict[str, Any]:
        """Serializable form for the JSON document."""
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# The scripted workload
# ----------------------------------------------------------------------


def _run_workload(
    path: str,
    vfs: VFS,
    spec: CrashWorkload,
    snapshots: List[Dict[int, Dict[str, Any]]],
) -> None:
    """Run the scripted workload against ``path`` through ``vfs``.

    ``snapshots`` is a caller-owned list; entry 0 (the empty database)
    is appended first and one deep-copied shadow snapshot is appended
    after *each commit returns*, so when a :class:`SimulatedCrash`
    escapes, ``len(snapshots) - 1`` is exactly the number of commits
    the caller saw succeed.

    The operation stream is driven by a PRNG seeded from the spec, so
    every run — counting pre-pass and each crash run — performs the
    identical call sequence and allocates identical OIDs.
    """
    import random

    rng = random.Random(spec.seed)
    store = ObjectStore(path, sync_commits=True, vfs=vfs)
    try:
        store.open()
        snapshots.append({})
        store.define_class(
            _CLASS,
            [
                FieldDefinition("title", ""),
                FieldDefinition("rank", 0),
                FieldDefinition("body", ""),
            ],
        )
        shadow: Dict[int, Dict[str, Any]] = {}
        live: List[int] = []
        serial = 0
        for _txn in range(spec.transactions):
            for _op in range(spec.ops_per_txn):
                choice = rng.random()
                if not live or choice < 0.5:
                    serial += 1
                    state = {
                        "title": f"doc-{serial}",
                        "rank": rng.randrange(1000),
                        "body": "x" * spec.payload_bytes,
                    }
                    oid = store.new(_CLASS, state)
                    shadow[oid] = dict(state)
                    live.append(oid)
                elif choice < 0.85:
                    oid = live[rng.randrange(len(live))]
                    changes = {
                        "rank": rng.randrange(1000),
                        "title": f"doc-{serial}-rev{rng.randrange(100)}",
                    }
                    store.update(oid, changes)
                    shadow[oid].update(changes)
                else:
                    oid = live.pop(rng.randrange(len(live)))
                    store.delete(oid)
                    del shadow[oid]
            store.commit()
            snapshots.append(
                {oid: dict(state) for oid, state in shadow.items()}
            )
        store.close()
    finally:
        if store.is_open:
            # A crashed run cannot close cleanly (close() checkpoints,
            # which would just crash again); release the OS handles so
            # a large matrix does not exhaust file descriptors.
            store._dispose_handles()


def _recovered_state(path: str) -> Dict[int, Dict[str, Any]]:
    """Reopen ``path`` through a fresh RealVFS and read every object.

    Opening runs WAL recovery.  A crash before the schema commit became
    durable legitimately leaves no class; that reads as the empty
    snapshot.

    Recovery must never serve a stale ``(pid, slot, lsn)`` decode-cache
    entry, so two extra invariants are asserted here on every cell:
    the cache is empty immediately after the recovering open (no entry
    survives a restart), and a fully cache-served read pass agrees
    byte-for-byte with a cold re-read after ``drop_cache()``.
    """
    store = ObjectStore(path, vfs=RealVFS())
    store.open()
    try:
        if store._decode_cache is not None and len(store._decode_cache):
            raise AssertionError(
                "decode cache holds entries immediately after recovery"
            )
        if _CLASS not in store.catalog.class_names():
            return {}
        oids = list(store.scan_class(_CLASS))
        warm = {oid: store.get(oid) for oid in oids}  # fills the cache
        cached = {oid: store.get(oid) for oid in oids}  # all cache hits
        store.drop_cache()
        cold = {oid: store.get(oid) for oid in oids}  # straight from disk
        if not (warm == cached == cold):
            stale = sorted(
                oid for oid in oids if cached[oid] != cold[oid]
            )
            raise AssertionError(
                "decode cache served stale recovered state for oids "
                f"{stale[:5]}"
            )
        return cold
    finally:
        store.close()


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------


def _verify_cell(
    recovered: Dict[int, Dict[str, Any]],
    reference: List[Dict[int, Dict[str, Any]]],
    commits_returned: int,
) -> CrashPointResult:
    """Check the atomicity and durability invariants for one cell."""
    matches = [
        index
        for index, snapshot in enumerate(reference)
        if recovered == snapshot
    ]
    # The crash can only lose the one transaction that was in flight,
    # so the recovered snapshot must lie in a two-snapshot window.
    window = [
        k
        for k in matches
        if commits_returned <= k <= commits_returned + 1
    ]
    snapshot: Optional[int] = min(window) if window else None
    violation = None
    if not matches:
        violation = (
            "atomicity: recovered state matches no post-commit"
            f" snapshot ({len(recovered)} objects recovered)"
        )
    elif not window:
        snapshot = max(matches)
        violation = (
            f"durability: recovered snapshot {snapshot} outside"
            f" [{commits_returned}, {commits_returned + 1}]"
            f" ({commits_returned} commits had returned)"
        )
    return CrashPointResult(
        op=0,
        torn=False,
        crashed=True,
        commits_returned=commits_returned,
        recovered_snapshot=snapshot,
        violation=violation,
    )


def run_crash_matrix(
    workload: Optional[CrashWorkload] = None,
    stride: int = 1,
    base_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the full crash matrix and return the JSON-ready document.

    Args:
        workload: the scripted workload (defaults sized so the matrix
            covers a few hundred crash points).
        stride: test every ``stride``-th crash point (1 = exhaustive;
            CI uses a coarser stride on the larger workloads).
        base_dir: parent for the per-cell scratch directories (a
            temporary directory by default).

    Returns:
        A document with per-cell results, the violation list and a
        histogram of recovered snapshot indices.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    spec = workload or CrashWorkload()
    with tempfile.TemporaryDirectory(dir=base_dir) as scratch:
        reference: List[Dict[int, Dict[str, Any]]] = []
        counter = FaultInjectingVFS(seed=spec.seed)

        def crash_cell(op: int, torn: bool) -> CrashPointResult:
            cell_dir = os.path.join(scratch, f"cell-{op}")
            os.mkdir(cell_dir)
            path = os.path.join(cell_dir, "crash.hmdb")
            vfs = FaultInjectingVFS(seed=spec.seed + op).crash_at(
                op, torn=torn
            )
            snapshots: List[Dict[int, Dict[str, Any]]] = []
            crashed = False
            try:
                _run_workload(path, vfs, spec, snapshots)
            except SimulatedCrash:
                crashed = True
            except StorageError as error:  # pragma: no cover - defensive
                return CrashPointResult(
                    op=op,
                    torn=torn,
                    crashed=True,
                    commits_returned=max(0, len(snapshots) - 1),
                    recovered_snapshot=None,
                    violation=f"workload died with {error!r}",
                )
            commits_returned = max(0, len(snapshots) - 1)
            if not crashed:
                # The schedule never fired (op beyond the run's I/O);
                # the run completed normally and must match its end.
                commits_returned = spec.transactions
            recovered = _recovered_state(path)
            cell = _verify_cell(recovered, reference, commits_returned)
            cell.op = op
            cell.torn = torn
            cell.crashed = crashed
            return cell

        points, cells = crash_matrix(
            counter,
            lambda: _run_workload(
                os.path.join(scratch, "pre.hmdb"), counter, spec, reference
            ),
            crash_cell,
            stride,
        )

    violations = [cell for cell in cells if cell.violation]
    histogram: Dict[str, int] = {}
    for cell in cells:
        key = (
            "violation"
            if cell.violation
            else str(cell.recovered_snapshot)
        )
        histogram[key] = histogram.get(key, 0) + 1
    return {
        "benchmark": "crash-recovery-matrix",
        "provenance": provenance(
            stride=stride, **dataclasses.asdict(spec)
        ),
        "workload": dataclasses.asdict(spec),
        "io_ops_total": len(points),
        "stride": stride,
        "crash_points_tested": len(cells),
        "commits": spec.transactions,
        "violation_count": len(violations),
        "violations": [cell.to_dict() for cell in violations],
        "recovered_histogram": histogram,
        "cells": [cell.to_dict() for cell in cells],
    }


def format_summary(document: Dict[str, Any]) -> str:
    """A terminal summary of a crash-matrix document."""
    lines = [
        "crash-recovery matrix "
        f"({document['workload']['transactions']} txns, "
        f"{document['io_ops_total']} mutating I/O ops, "
        f"stride {document['stride']})",
        f"  crash points tested : {document['crash_points_tested']}",
        f"  invariant violations: {document['violation_count']}",
    ]
    histogram = document["recovered_histogram"]

    def _order(key: str) -> float:
        return float("inf") if key == "violation" else int(key)

    for key in sorted(histogram, key=_order):
        label = (
            "violations"
            if key == "violation"
            else f"recovered at snapshot {key:>3}"
        )
        lines.append(f"    {label}: {histogram[key]}")
    for cell in document["violations"][:10]:
        lines.append(
            f"  VIOLATION at op {cell['op']}"
            f" (torn={cell['torn']}): {cell['violation']}"
        )
    return "\n".join(lines)
