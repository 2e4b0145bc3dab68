"""The section 5.3 protocol on one workload, and the metrics it yields.

Per op: reopen, 50 cold repetitions, a timed commit, the same 50 inputs
warm, then close.  Every timing is wall clock (``perf_counter`` around
``spec.run``); the end-to-end metrics then scale each pass's wall times
to one machine speed with ``perfbench.yardstick``.  The client/server cost
model's simulated time is read separately and never added in.

A run repeats such rounds of every op until its time is up; each op's
samples are pooled over its rounds, so a metric reflects the whole run
rather than one burst.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.registry import create_backend
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator, GeneratedDatabase
from repro.core.interface import HyperModelDatabase
from repro.core.operations import CATALOG, OperationSpec, Operations
from repro.obs import Instrumentation

from perfbench.ledger import (
    DECODE_FUNCTIONS,
    LAYERS,
    PAGE_READ_FUNCTIONS,
    PROBE_FUNCTIONS,
    Ledger,
    Snapshot,
)
from perfbench.oracle import NO_ANSWER, Oracle, count_failures, digest, draw_inputs, uid_map
from perfbench.yardstick import Yardstick

LEVEL = 5
#: An untraced run sets up at least ``SETUP_REPEATS`` times and until
#: ``SETUP_SECONDS`` have passed; ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
#: Allowed gap between a pass's traced time and its layer self times
#: plus the unattributed remainder, as a share of the traced time.
LEDGER_TOLERANCE = 0.01
#: Yardstick readings taken before and after each set-up build.
SETUP_READINGS = 5

ENGINE_LAYERS = tuple(layer for layer in LAYERS if layer.startswith("engine."))
NETSIM_LAYERS = ("netsim.cache", "netsim.server", "sharding.router")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One backend at one level, with the layers it must and must not use."""

    name: str
    backend: str
    file_backed: bool
    expected_layers: Tuple[str, ...]
    forbidden_layers: Tuple[str, ...]


_COMMON = ("core.generator", "core.operations", "backends")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "oodb-L5",
            "oodb",
            True,
            _COMMON + ENGINE_LAYERS,
            NETSIM_LAYERS,
        ),
        Workload(
            "sharded-occ-L5",
            "clientserver-sharded-occ",
            False,
            _COMMON + ("engine.serializer",) + NETSIM_LAYERS,
            ("engine.store", "engine.btree", "engine.buffer", "engine.wal"),
        ),
        Workload(
            "sqlite-L5",
            "sqlite",
            False,
            _COMMON,
            ENGINE_LAYERS + NETSIM_LAYERS,
        ),
    )
}

FAMILIES: Dict[str, Tuple[str, ...]] = {
    "lookup": ("01", "02", "03", "04", "05A", "05B", "06", "07A", "07B", "08"),
    "scan": ("09",),
    "closure": ("10", "11", "13", "14", "15", "18"),
    "edit": ("12", "16", "17"),
}
TEMPERATURES = ("cold", "warm")
PASSES = tuple(f"{f}_{t}" for f in FAMILIES for t in TEMPERATURES)

#: Layers of the ``setup.*`` rows: the generator stands in for op logic.
SETUP_LAYERS = tuple("core.generator" if l == "core.operations" else l for l in LAYERS)
COMMIT_LAYERS = (
    "backends",
    "engine.store",
    "engine.serializer",
    "engine.btree",
    "engine.heap",
    "engine.buffer",
    "engine.wal",
    "netsim.server",
    "sharding.router",
)

#: Every metric a run can report: name -> unit.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "lookup_cold_ms_per_node": "ms/node",
    "lookup_cold_p90_ms_per_node": "ms/node",
    "lookup_warm_ms_per_node": "ms/node",
    "scan_cold_ms_per_node": "ms/node",
    "scan_warm_ms_per_node": "ms/node",
    "closure_cold_ms_per_node": "ms/node",
    "closure_cold_p90_ms_per_node": "ms/node",
    "closure_warm_ms_per_node": "ms/node",
    "edit_cold_ms_per_node": "ms/node",
    "edit_warm_ms_per_node": "ms/node",
    "commit_ms_per_node": "ms/node",
    "sim_cold_s": "s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
    "db_bytes_per_node": "B/node",
}

COUNT_UNITS: Dict[str, str] = {
    "cold.engine.serializer.decodes_per_node": "count/node",
    "warm.engine.serializer.decodes_per_node": "count/node",
    "cold.engine.btree.probes_per_node": "count/node",
    "warm.engine.btree.probes_per_node": "count/node",
    "cold.engine.store.decode_cache_hit_ratio": "ratio",
    "warm.engine.store.decode_cache_hit_ratio": "ratio",
    "cold.engine.buffer.hit_ratio": "ratio",
    "cold.engine.buffer.page_reads_per_node": "count/node",
    "commit.engine.wal.bytes_per_node": "B/node",
    "cold.netsim.cache.hit_ratio": "ratio",
    "warm.netsim.cache.hit_ratio": "ratio",
    "cold.netsim.server.rpcs_per_op": "count/op",
    "cold.netsim.server.reply_bytes_per_node": "B/node",
    "obs.trace_overhead_frac": "ratio",
    "ledger.unattributed_frac": "ratio",
}


#: End-to-end metrics that are not gated; the traced run reports them
#: with the per-layer metrics.  The first, second and last can be
#: exactly 0; peak RSS includes the benchmark's own samples, which grow
#: with the number of rounds a run fits in.
UNGATED = ("sim_cold_s", "failed_frac", "peak_rss_mb", "db_bytes_per_node")
GATED_UNITS = {n: u for n, u in END_TO_END_UNITS.items() if n not in UNGATED}


def _per_layer_units() -> Dict[str, str]:
    units = {
        f"{p}.{layer}.self_ms_per_node": "ms/node"
        for p in PASSES
        for layer in LAYERS
        if layer != "core.generator"
    }
    units.update({f"setup.{layer}.self_s": "s" for layer in SETUP_LAYERS})
    units.update({f"commit.{layer}.self_ms": "ms" for layer in COMMIT_LAYERS})
    units.update(COUNT_UNITS)
    units.update((name, END_TO_END_UNITS[name]) for name in UNGATED)
    return units


#: Every metric the traced run reports: name -> unit.
PER_LAYER_UNITS = _per_layer_units()


# ----------------------------------------------------------------------
# One protocol unit
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    """One cold or warm pass of 50 repetitions (or the commit between)."""

    ms_per_node: List[float]
    digests: List[object]
    nodes: int
    seconds: float
    sim_s: float
    counters: Dict[str, float]
    ledger: Optional[Snapshot]
    #: ``perf_counter`` when the region began and ended.
    start: float
    end: float


@dataclasses.dataclass
class OpRun:
    """One op's protocol unit: cold pass, commit, warm pass."""

    op_id: str
    round_index: int
    traced: bool
    cold: Pass
    commit: Pass
    warm: Pass


class _Probe:
    """Counter and ledger readings around one timed region."""

    def __init__(self, instr: Optional[Instrumentation], ledger: Optional[Ledger], clock) -> None:
        self.instr, self.ledger, self.clock = instr, ledger, clock
        self.counters = instr.snapshot() if instr else None
        self.spans = ledger.snapshot() if ledger else None
        self.sim = clock.now if clock else 0.0
        self.start = time.perf_counter()

    def finish(self, ms_per_node, digests, nodes, seconds) -> Pass:
        end = time.perf_counter()
        return Pass(
            ms_per_node,
            digests,
            nodes,
            seconds,
            (self.clock.now - self.sim) if self.clock else 0.0,
            self.instr.snapshot().delta(self.counters) if self.instr else {},
            (self.ledger.snapshot() - self.spans) if self.ledger else None,
            self.start,
            end,
        )


def _timed_pass(spec, ops, inputs, gen, uid_of, clock, instr, ledger, between) -> Pass:
    probe = _Probe(instr, ledger, clock)
    samples: List[float] = []
    digests: List[object] = []
    nodes = 0
    seconds = 0.0
    for args in inputs:
        between()
        start = time.perf_counter()
        try:
            result = spec.run(ops, args)
        except Exception:  # a repetition that raises counts as failed
            seconds += time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            digests.append(NO_ANSWER)
            continue
        elapsed = time.perf_counter() - start
        seconds += elapsed
        size = spec.result_size(result, gen)
        nodes += size
        samples.append(elapsed * 1000.0 / size)
        digests.append(digest(spec.op_id, result, uid_of))
    return probe.finish(samples, digests, nodes, seconds)


def run_op(
    db: HyperModelDatabase,
    spec: OperationSpec,
    gen: GeneratedDatabase,
    seed: int,
    round_index: int,
    uid_of: Dict[object, int],
    between: Callable[[], None],
    instr: Optional[Instrumentation] = None,
    ledger: Optional[Ledger] = None,
) -> OpRun:
    """Reopen, cold pass, timed commit, warm pass, close.

    ``between`` runs before every repetition, outside its timing.
    """
    clock = getattr(db, "simulated_clock", None)
    if db.is_open:
        db.commit()
        db.close()
    db.open()
    ops = Operations(db, gen.config)
    inputs = draw_inputs(spec, gen, db, seed, round_index)
    cold = _timed_pass(spec, ops, inputs, gen, uid_of, clock, instr, ledger, between)
    probe = _Probe(instr, ledger, clock)
    start = time.perf_counter()
    db.commit()
    commit = probe.finish([], [], cold.nodes, time.perf_counter() - start)
    warm = _timed_pass(spec, ops, inputs, gen, uid_of, clock, instr, ledger, between)
    db.commit()
    db.close()
    return OpRun(spec.op_id, round_index, ledger is not None, cold, commit, warm)


# ----------------------------------------------------------------------
# A whole run
# ----------------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    """What one benchmark run measured."""

    attempted: int
    failed: int
    state_mismatches: int
    end_to_end: Dict[str, float]
    #: The end-to-end metrics unscaled, in wall-clock time.
    wall: Dict[str, float]
    per_layer: Dict[str, float]
    rounds: Dict[str, int]
    #: Typical yardstick reading of the run, in ms.
    yardstick_ms: float

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.state_mismatches == 0


def _specs(db: HyperModelDatabase) -> List[OperationSpec]:
    # The paper excuses backends without object identity from op 02.
    return [
        spec
        for spec in CATALOG
        if spec.op_id != "02" or db.supports_object_identity
    ]


class _Setup:
    """Fresh backends, each populated from the workload seed."""

    def __init__(self, workload: Workload, make_backend, config, workdir: str) -> None:
        self.workload, self.make_backend = workload, make_backend
        self.config, self.workdir = config, workdir
        self.count = 0

    def path(self, index: int) -> Optional[str]:
        if not self.workload.file_backed:
            return None
        return os.path.join(self.workdir, f"db{index}")

    def files(self, index: int) -> List[str]:
        path = self.path(index)
        return [path, path + ".wal"] if path else []

    def build(self, instr=None, ledger: Optional[Ledger] = None):
        """Generate into a fresh backend; returns (db, gen, (start, end), index)."""
        index = self.count
        self.count += 1
        options = {"instrumentation": instr} if instr else {}
        db = self.make_backend(self.path(index), **options)
        if ledger:
            ledger.install(type(db))
        try:
            start = time.perf_counter()
            db.open()
            gen = DatabaseGenerator(self.config).generate(db)
            end = time.perf_counter()
        finally:
            if ledger:
                ledger.uninstall()
        return db, gen, (start, end), index

    def discard(self, db, index: int) -> None:
        db.close()
        for name in self.files(index):
            if os.path.exists(name):
                os.remove(name)


def _schedule(specs: Sequence[OperationSpec], seconds: float, run_round) -> Dict[str, int]:
    """Run rounds of each op until time is up; returns rounds per op.

    The first pass runs every op once and times each round.  After it,
    an op runs every ``stride`` passes, with ``stride`` the square root
    of its round's cost over the cheapest op's: that spends the time so
    the sum over ops of 1 / (rounds of the op) is least, and spreads
    every op's rounds across the whole run.  Without it, op 09 on
    oodb-L5 (6 s a round) would leave the cheap ops three bursts each.
    """
    deadline = time.perf_counter() + seconds
    cost: Dict[str, float] = {}
    for spec in specs:
        start = time.perf_counter()
        run_round(spec, 0)
        cost[spec.op_id] = time.perf_counter() - start
    cheapest = min(cost.values())
    stride = {op: max(1, round(math.sqrt(c / cheapest))) for op, c in cost.items()}
    rounds = dict.fromkeys(cost, 1)
    step = 1
    while True:
        for spec in specs:
            if step % stride[spec.op_id]:
                continue
            if time.perf_counter() >= deadline:
                return rounds
            run_round(spec, rounds[spec.op_id])
            rounds[spec.op_id] += 1
        step += 1


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    trace: bool = False,
    level: int = LEVEL,
    make_backend: Optional[Callable[..., HyperModelDatabase]] = None,
) -> RunResult:
    """Set up, run the protocol for ``seconds``, then check the answers."""
    config = HyperModelConfig(levels=level, seed=seed)
    setup = _Setup(
        workload,
        make_backend or (lambda path, **o: create_backend(workload.backend, path, **o)),
        config,
        workdir,
    )
    instr = Instrumentation() if trace else None
    ledger = Ledger() if trace else None
    yardstick = Yardstick()

    # Set-up: the median of several fresh builds; the last one is measured.
    setup_spans: List[Tuple[float, float]] = []
    setup_ledger = None
    started = time.perf_counter()
    while True:
        yardstick.read(SETUP_READINGS)
        db, gen, span, index = setup.build(instr)
        yardstick.read(SETUP_READINGS)
        setup_spans.append(span)
        if trace or (
            len(setup_spans) >= SETUP_REPEATS
            and time.perf_counter() - started >= SETUP_SECONDS
        ):
            break
        setup.discard(db, index)
    if trace:
        # One more build, wrapped, for the setup.* rows; the protocol
        # runs on it.
        setup.discard(db, index)
        before = ledger.snapshot()
        db, gen, _span, index = setup.build(instr, ledger)
        setup_ledger = ledger.snapshot() - before
    uid_of = uid_map(db, gen)
    db.close()
    db_bytes = sum(os.path.getsize(f) for f in setup.files(index) if os.path.exists(f))

    specs = _specs(db)
    runs: List[OpRun] = []

    def run_round(spec: OperationSpec, round_index: int) -> None:
        read = yardstick.maybe_read
        runs.append(run_op(db, spec, gen, seed, round_index, uid_of, read, instr))
        if trace:
            # The same inputs again, wrapped: the pair gives the overhead.
            ledger.install(type(db))
            try:
                runs.append(
                    run_op(db, spec, gen, seed, round_index, uid_of, read, instr, ledger)
                )
            finally:
                ledger.uninstall()

    rounds = _schedule(specs, seconds, run_round)
    yardstick.read()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Correctness, outside every timed region.
    oracle = Oracle(config, seed)
    by_id = {spec.op_id: spec for spec in specs}
    failed = 0
    attempted = 0
    for run in runs:
        expected = oracle.answers(by_id[run.op_id], run.round_index)
        failed += count_failures(expected, run.cold.digests, run.warm.digests)
        attempted += len(run.cold.digests) + len(run.warm.digests)
    db.open()
    mismatches = oracle.state_mismatches(db, uid_of)
    db.close()
    setup.discard(db, index)

    untraced = [r for r in runs if not r.traced]
    e2e = end_to_end(untraced, setup_spans, yardstick.scale_between)
    wall = end_to_end(untraced, setup_spans)
    e2e.update(
        sim_cold_s=_sum_of_op_medians(untraced, lambda r: r.cold.sim_s),
        failed_frac=failed / attempted,
        peak_rss_mb=peak_rss_mb,
        db_bytes_per_node=db_bytes / config.total_nodes,
    )
    per_layer: Dict[str, float] = {}
    if trace:
        traced = [r for r in runs if r.traced]
        check_ledger(workload, traced, ledger.snapshot())
        per_layer = layer_metrics(traced, untraced, setup_ledger)
        per_layer.update((name, e2e[name]) for name in UNGATED)
    wall.update((name, e2e[name]) for name in UNGATED)
    yardstick_ms = yardstick.typical() * 1000.0
    return RunResult(attempted, failed, mismatches, e2e, wall, per_layer, rounds, yardstick_ms)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _by_op(runs: Sequence[OpRun]) -> Dict[str, List[OpRun]]:
    out: Dict[str, List[OpRun]] = {}
    for run in runs:
        out.setdefault(run.op_id, []).append(run)
    return out


def _geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile.

    An op's pooled repetitions number at least 300 in a 20 s run, so 30
    or more lie beyond it.  The 80th percentile is not used: a fifth of
    a level-5 structure's nodes are internal (781 of 3906), and where
    those cost more than leaves, as in cold client/server lookups, the
    80th percentile falls on the step between the two and jumps from
    one seed to the next.
    """
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_of_op_medians(runs, value) -> float:
    return sum(statistics.median(map(value, rs)) for rs in _by_op(runs).values())


def end_to_end(
    runs: Sequence[OpRun],
    setup_spans: Sequence[Tuple[float, float]],
    scale_between: Callable[[float, float], float] = lambda start, end: 1.0,
) -> Dict[str, float]:
    """Family values: geometric means over the family's ops.

    The time of every pass, commit and set-up build is multiplied by
    ``scale_between(start, end)`` of its region: the yardstick's
    reference time over its typical reading around the region (see
    ``perfbench.yardstick``).  By default the values are wall-clock
    figures.

    An op's value is the median, over its rounds, of the pass's ms per
    node (the pass's time over the nodes it returned, the paper's
    figure).  Per-repetition medians are not used: cold passes mix
    cache hits and misses, and the median of such a bimodal sample
    jumps between the two modes from one run to the next.  The p90
    metrics take each op's 90th percentile of its pooled repetitions.
    """
    ops = _by_op(runs)

    def family(name: str, per_op) -> float:
        return _geomean([per_op(ops[op]) for op in FAMILIES[name] if op in ops])

    def scale(p: Pass) -> float:
        return scale_between(p.start, p.end)

    def pass_median(temperature: str):
        return lambda rs: statistics.median(
            scale(p) * p.seconds * 1000.0 / p.nodes
            for p in (getattr(r, temperature) for r in rs)
        )

    out = {
        "setup_s": statistics.median(
            scale_between(start, end) * (end - start) for start, end in setup_spans
        )
    }
    for name in FAMILIES:
        for temperature in TEMPERATURES:
            out[f"{name}_{temperature}_ms_per_node"] = family(name, pass_median(temperature))
    for name in ("lookup", "closure"):
        out[f"{name}_cold_p90_ms_per_node"] = family(
            name, lambda rs: _p90([scale(r.cold) * x for r in rs for x in r.cold.ms_per_node])
        )
    out["commit_ms_per_node"] = family(
        "edit",
        lambda rs: statistics.median(
            scale(r.commit) * r.commit.seconds * 1000.0 / r.cold.nodes for r in rs
        ),
    )
    return out


def _mean_over_ops(runs: Sequence[OpRun], value: Callable[[List[OpRun]], float]) -> float:
    return statistics.fmean(value(rs) for rs in _by_op(runs).values())


def layer_metrics(
    traced: Sequence[OpRun], untraced: Sequence[OpRun], setup_ledger: Snapshot
) -> Dict[str, float]:
    """The per-layer ledger and the program's counters, from traced runs.

    A family's self time per node is the mean over its ops of each op's
    layer self time divided by the nodes its passes returned, so the
    layers of a pass add up like its ops' times do.
    """
    out: Dict[str, float] = {}
    ops = _by_op(traced)
    for name, members in FAMILIES.items():
        present = [ops[op] for op in members if op in ops]
        for temperature in TEMPERATURES:
            for layer in LAYERS:
                if layer == "core.generator":
                    continue
                out[f"{name}_{temperature}.{layer}.self_ms_per_node"] = statistics.fmean(
                    _ratio(
                        sum(getattr(r, temperature).ledger.self_s[layer] for r in rs) * 1000.0,
                        sum(getattr(r, temperature).nodes for r in rs),
                    )
                    for rs in present
                )
    for layer in SETUP_LAYERS:
        out[f"setup.{layer}.self_s"] = setup_ledger.self_s[layer]
    edits = [r for r in traced if r.op_id in FAMILIES["edit"]]
    for layer in COMMIT_LAYERS:
        out[f"commit.{layer}.self_ms"] = statistics.fmean(
            r.commit.ledger.self_s[layer] * 1000.0 for r in edits
        )

    def per_node(temperature, count):
        return _mean_over_ops(
            traced,
            lambda rs: _ratio(
                sum(count(getattr(r, temperature)) for r in rs),
                sum(getattr(r, temperature).nodes for r in rs),
            ),
        )

    def pooled_ratio(temperature, hit, miss):
        got = [getattr(r, temperature).counters for r in traced]
        hits = sum(c.get(hit, 0) for c in got)
        return _ratio(hits, hits + sum(c.get(miss, 0) for c in got))

    for t in TEMPERATURES:
        out[f"{t}.engine.serializer.decodes_per_node"] = per_node(
            t, lambda p: p.ledger.function_calls(DECODE_FUNCTIONS)
        )
        out[f"{t}.engine.btree.probes_per_node"] = per_node(
            t, lambda p: p.ledger.function_calls(PROBE_FUNCTIONS)
        )
        out[f"{t}.engine.store.decode_cache_hit_ratio"] = pooled_ratio(
            t, "engine.decode_cache.hits", "engine.decode_cache.misses"
        )
        out[f"{t}.netsim.cache.hit_ratio"] = pooled_ratio(
            t, "netsim.cache.hit", "netsim.cache.miss"
        )
    out["cold.engine.buffer.hit_ratio"] = pooled_ratio(
        "cold", "engine.buffer.hit", "engine.buffer.miss"
    )
    out["cold.engine.buffer.page_reads_per_node"] = per_node(
        "cold", lambda p: p.ledger.function_calls(PAGE_READ_FUNCTIONS)
    )
    out["commit.engine.wal.bytes_per_node"] = _mean_over_ops(
        edits,
        lambda rs: _ratio(
            sum(r.commit.counters.get("engine.wal.bytes", 0) for r in rs),
            sum(r.cold.nodes for r in rs),
        ),
    )
    out["cold.netsim.server.rpcs_per_op"] = _mean_over_ops(
        traced,
        lambda rs: _ratio(
            sum(r.cold.counters.get("backend.rpc.round_trips", 0) for r in rs),
            sum(len(r.cold.digests) for r in rs),
        ),
    )
    out["cold.netsim.server.reply_bytes_per_node"] = per_node(
        "cold", lambda p: p.counters.get("backend.rpc.bytes_sent", 0)
    )
    timed = [p for r in traced for p in (r.cold, r.warm)]
    plain = [p for r in untraced for p in (r.cold, r.warm)]
    out["obs.trace_overhead_frac"] = (
        sum(p.seconds for p in timed) / sum(p.seconds for p in plain) - 1.0
    )
    out["ledger.unattributed_frac"] = _ratio(
        sum(p.seconds - p.ledger.top_s for p in timed), sum(p.seconds for p in timed)
    )
    return out


def check_ledger(workload: Workload, traced: Sequence[OpRun], total: Snapshot) -> None:
    """Fail loudly when the ledger does not add up or a layer is misowned.

    For every traced pass, the layer self times plus the unattributed
    remainder (traced time outside every span) must equal the traced
    time within ``LEDGER_TOLERANCE``.  A layer the workload must use
    that recorded no call means a wrapper missed its call site.
    """
    for run in traced:
        for name in ("cold", "commit", "warm"):
            p = getattr(run, name)
            attributed = sum(p.ledger.self_s.values()) + (p.seconds - p.ledger.top_s)
            if abs(attributed - p.seconds) > LEDGER_TOLERANCE * p.seconds:
                raise RuntimeError(
                    f"ledger of op {run.op_id} {name} sums to {attributed:.6f} s"
                    f" against {p.seconds:.6f} s traced"
                )
    for layer in workload.expected_layers:
        if total.layer_calls[layer] == 0:
            raise RuntimeError(
                f"layer {layer} recorded no calls on {workload.name}:"
                " a wrapper missed its call site"
            )
    for layer in workload.forbidden_layers:
        calls = total.layer_calls[layer]
        if calls:
            raise RuntimeError(
                f"layer {layer} recorded {calls} calls on {workload.name},"
                " which must not use it"
            )
