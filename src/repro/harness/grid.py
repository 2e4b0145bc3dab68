"""The pieces every virtual-time bench and crash drill shares.

* :func:`generate_structure` — generate one level/seed structure and
  export its records, so every grid cell or drill cell reloads the same
  snapshot into a fresh deployment;
* :func:`closure_ms` — the virtual time of one closure push-down;
* :func:`latency_leaf` — the ``p50_ms``/``p90_ms``/``p99_ms``/``max_ms``
  block every bench cell carries (the shape ``repro bench-diff`` reads);
* :func:`crash_matrix` — the counting pre-pass, then one crash per
  mutating I/O operation, clean and torn-write crashes alternating.

Documents are written with :func:`repro.harness.benchdiff.write_document`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple, TypeVar, Union

from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator, GeneratedDatabase
from repro.engine.vfs import FaultInjectingVFS
from repro.obs import LatencyHistogram

T = TypeVar("T")


def generate_structure(
    level: int, seed: int
) -> Tuple[GeneratedDatabase, Dict[int, Dict[str, Any]]]:
    """Generate the structure once; return ``(gen, record dump)``."""
    from repro.backends.clientserver import ClientServerDatabase
    from repro.netsim.server import ObjectServer

    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(
        HyperModelConfig(levels=level, seed=seed)
    ).generate(loader)
    loader.commit()
    loader.close()
    return gen, server.export_records()


def closure_ms(db: Any, root: int, cold: bool = True) -> float:
    """Virtual milliseconds of one ``children`` closure from ``root``.

    A cold closure clears the workstation cache first and must run as
    one push-down; a warm one is served from the cache.
    """
    if cold:
        db.cache.clear()
    start = db.simulated_clock.now
    if not db.prefetch_closure(root, "children", None) and cold:
        raise RuntimeError("closure push-down unexpectedly disabled")
    return (db.simulated_clock.now - start) * 1000.0


def latency_leaf(
    samples_ms: Union[Sequence[float], LatencyHistogram], **extra: Any
) -> Dict[str, Any]:
    """The percentile block of a sample list (or histogram), plus ``extra``."""
    hist = (
        samples_ms
        if isinstance(samples_ms, LatencyHistogram)
        else LatencyHistogram.from_samples(samples_ms)
    )
    leaf: Dict[str, Any] = {
        "p50_ms": round(hist.percentile(0.50), 4),
        "p90_ms": round(hist.percentile(0.90), 4),
        "p99_ms": round(hist.percentile(0.99), 4),
        "max_ms": round(hist.maximum, 4),
    }
    leaf.update(extra)
    return leaf


def crash_matrix(
    counter: FaultInjectingVFS,
    workload: Callable[[], Any],
    cell: Callable[[int, bool], T],
    stride: int = 1,
) -> Tuple[range, List[T]]:
    """Count the crash points, then crash once at every ``stride``-th.

    ``workload`` runs once through ``counter`` with no fault scheduled;
    each mutating I/O operation it performs is a crash point (ops the
    counter saw before the call, such as loading the deployment, are
    not).  ``cell(op, torn)`` then re-runs the drill with a crash
    scheduled at ``op`` — a torn write on even ops, a clean kill on odd
    ones — and returns that cell's outcome.  Returns the crash points
    and the outcomes in op order.
    """
    first = counter.mutation_ops + 1
    workload()
    points = range(first, counter.mutation_ops + 1)
    return points, [cell(op, op % 2 == 0) for op in points[::stride]]
