"""The ``hypermodel`` command-line interface.

Subcommands:

* ``info``       — print the sizing table for levels 4-6 (section 5.2);
* ``generate``   — build a test database into a backend file;
* ``verify``     — structurally verify a freshly generated database;
* ``run``        — run the benchmark grid and print the report tables;
* ``bench``      — like ``run``, plus latency-percentile tables,
  ``--counters`` for per-operation instrumentation counter tables and
  ``--trace`` for a Chrome/Perfetto trace of the run's tail (see
  ``docs/observability.md``);
* ``bench-closure`` — measure the batched closure traversals (ops
  10-12) across backends and write ``BENCH_closure.json`` (see
  ``docs/performance.md``);
* ``bench-multiuser`` — run the discrete-event multi-client grid
  (clients × conflict rate, optimistic concurrency, group-commit WAL)
  and write ``BENCH_multiuser.json`` (see ``docs/multiuser.md``);
* ``bench-sharded`` — run the shard-count × placement-policy grid
  (scatter-gather closures, two-phase cross-shard commits) and write
  ``BENCH_sharded.json`` (see ``docs/sharding.md``); ``--deep-level``
  adds the whole-structure scale cell;
* ``bench-replica`` — run the replica-count × write-rate × staleness
  grid (WAL-shipping replicas, session-token read routing) and write
  ``BENCH_replica.json`` (see ``docs/replication.md``);
* ``bench-diff`` — compare two ``BENCH_*.json`` documents with
  percentile-aware thresholds; exits non-zero on regression (the CI
  bench gate);
* ``trace``      — run one operation cold under full instrumentation
  and export a Chrome trace-event JSON for Perfetto;
* ``dash``       — render ``BENCH_*.json`` documents, a flight-recorder
  timeline JSONL and an optional Chrome trace into one self-contained
  HTML dashboard (see ``docs/observability.md``);
* ``query``      — evaluate an ad-hoc query against a generated database;
* ``rubenstein`` — run the /RUBE87/ baseline benchmark;
* ``maintain``   — R10 maintenance on an oodb file: vacuum / backup / gc;
* ``r7``         — print the R7 objects-per-second assessment table.

Every subcommand is driven by the same library code the tests and the
pytest benchmarks use; the CLI only parses arguments and prints.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.core.config import HyperModelConfig


def _csv(
    cast: Callable[[str], Any],
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> Callable[[str], List[Any]]:
    """argparse ``type=``: comma-separated ``cast`` values in [low, high]."""

    def parse(text: str) -> List[Any]:
        values = [cast(item.strip()) for item in text.split(",")]
        for value in values:
            if low is not None and value < low:
                raise argparse.ArgumentTypeError(f"{value} is below {low}")
            if high is not None and value > high:
                raise argparse.ArgumentTypeError(f"{value} is above {high}")
        return values

    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _add_common_db_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="memory",
        help="backend registry name (default: memory)",
    )
    parser.add_argument(
        "--path", default=None, help="database file for file-backed backends"
    )
    parser.add_argument(
        "--level", type=int, default=4, help="leaf level (paper: 4, 5 or 6)"
    )
    parser.add_argument(
        "--seed", type=int, default=19880301, help="generation seed"
    )


def _add_bench_outputs(
    parser: argparse.ArgumentParser,
    seed: int,
    out: str,
    timeline_clock: Optional[str] = None,
) -> None:
    """``--seed``, the ``--out`` document and the ``--timeline`` JSONL."""
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--out", default=out, help=f"output JSON path (default: {out})"
    )
    if timeline_clock is not None:
        parser.add_argument(
            "--timeline",
            default=None,
            metavar="JSONL",
            help=f"write a flight-recorder timeline ({timeline_clock})"
            " to this JSONL path",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermodel",
        description="The HyperModel benchmark (EDBT 1990), reproduced in Python.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the section 5.2 sizing table")

    generate = sub.add_parser("generate", help="build a test database")
    _add_common_db_args(generate)

    verify = sub.add_parser("verify", help="generate and verify a database")
    _add_common_db_args(verify)

    def _add_grid_args(
        grid: argparse.ArgumentParser, default_backends: str
    ) -> None:
        grid.add_argument(
            "--backends",
            type=_csv(str),
            default=default_backends,
            help="comma-separated backend names",
        )
        grid.add_argument(
            "--levels",
            type=_csv(int, low=1),
            default="4",
            help="comma-separated leaf levels",
        )
        grid.add_argument(
            "--ops",
            type=_csv(str),
            default=None,
            help="comma-separated operation ids (default: all)",
        )
        grid.add_argument(
            "--repetitions",
            type=int,
            default=50,
            help="runs per cold/warm pass",
        )
        grid.add_argument("--seed", type=int, default=19880301)
        grid.add_argument(
            "--save", default=None, help="write results JSON to this path"
        )

    run = sub.add_parser("run", help="run the benchmark grid")
    _add_grid_args(run, "memory,sqlite,oodb,clientserver")

    bench = sub.add_parser(
        "bench", help="run the benchmark grid with instrumentation"
    )
    _add_grid_args(bench, "memory,clientserver")
    bench.add_argument(
        "--counters",
        action="store_true",
        help="instrument the backends and print per-operation counter tables",
    )
    bench.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="export a Chrome trace-event JSON of the run's tail "
        "(load in Perfetto / chrome://tracing)",
    )

    diff = sub.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json documents; exit 1 on regression",
    )
    diff.add_argument("baseline", help="baseline BENCH_*.json")
    diff.add_argument("candidate", help="candidate BENCH_*.json")
    diff.add_argument(
        "--all",
        action="store_true",
        help="print every compared cell, not just regressions",
    )
    diff.add_argument(
        "--refresh-improvement",
        action="store_true",
        help=(
            "ratchet mode: rewrite the baseline file with every cell"
            " the candidate beat by more than the p50 threshold"
            " (tightening its ms/node budget); exits 0 whether or not"
            " anything moved"
        ),
    )

    trace = sub.add_parser(
        "trace",
        help="run one operation cold under instrumentation, export a "
        "Chrome trace",
    )
    _add_common_db_args(trace)
    trace.add_argument(
        "--op", default="10", help="operation id to trace (default: 10)"
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace-event JSON path (default: trace.json)",
    )

    closure = sub.add_parser(
        "bench-closure",
        help="measure batched closure traversals, write BENCH_closure.json",
    )
    closure.add_argument(
        "--backends",
        type=_csv(str),
        default=",".join(
            ("memory", "sqlite", "oodb", "clientserver")
        ),
        help="comma-separated backend names",
    )
    closure.add_argument(
        "--level", type=int, default=4, help="leaf level (paper: 4, 5 or 6)"
    )
    closure.add_argument(
        "--repetitions", type=int, default=5, help="runs per operation"
    )
    _add_bench_outputs(
        closure,
        19880301,
        "BENCH_closure.json",
        "wall clock, one sample per repetition",
    )
    closure.add_argument(
        "--compare-pushdown",
        action="store_true",
        help=(
            "also run the clientserver-bfs ablation so the document"
            " compares closure push-down against frontier BFS"
        ),
    )
    closure.add_argument(
        "--levels",
        type=_csv(int, low=1),
        default=None,
        metavar="L1,L2",
        help=(
            "extra tree levels to run alongside --level; their cells"
            " land under <backend>-L<level> keys (e.g. --levels 6 adds"
            " the 19531-node big-database column)"
        ),
    )
    closure.add_argument(
        "--profile",
        action="store_true",
        help=(
            "cProfile each operation's cold pass and write the top-25"
            " cumulative reports to <out>.profile.txt"
        ),
    )

    multiuser = sub.add_parser(
        "bench-multiuser",
        help="run the multi-client optimistic grid, write"
        " BENCH_multiuser.json",
    )
    multiuser.add_argument(
        "--clients",
        type=_csv(int, low=1),
        default="1,2,4,8",
        help="comma-separated client counts (default: 1,2,4,8)",
    )
    multiuser.add_argument(
        "--conflict",
        type=_csv(float, low=0.0, high=1.0),
        default="0.0,0.2",
        help="comma-separated conflict rates in [0,1] (default: 0.0,0.2)",
    )
    multiuser.add_argument(
        "--level", type=int, default=3, help="leaf level (default: 3)"
    )
    multiuser.add_argument(
        "--transactions",
        type=int,
        default=8,
        help="transactions per client (default: 8)",
    )
    multiuser.add_argument(
        "--reads-per-txn",
        type=int,
        default=4,
        help="Zipf-skewed reads per transaction (default: 4)",
    )
    multiuser.add_argument(
        "--hot-set",
        type=int,
        default=8,
        help="size of the shared hot write set (default: 8)",
    )
    _add_bench_outputs(
        multiuser,
        1989,
        "BENCH_multiuser.json",
        "virtual clock, deterministic, byte-identical across runs",
    )
    multiuser.add_argument(
        "--group-commit-size",
        type=int,
        default=8,
        help="WAL commits per fsync in group-commit mode (default: 8)",
    )
    multiuser.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_JSON",
        help="export a Chrome trace-event JSON of the run's tail, one"
        " lane per client (see docs/observability.md)",
    )
    multiuser.add_argument(
        "--timeline-cadence",
        type=float,
        default=0.02,
        metavar="SECONDS",
        help="virtual-time sampling cadence for --timeline"
        " (default: 0.02)",
    )

    sharded = sub.add_parser(
        "bench-sharded",
        help="run the shard-count × placement grid, write"
        " BENCH_sharded.json",
    )
    sharded.add_argument(
        "--shards",
        type=_csv(int, low=1),
        default="1,2,4",
        help="comma-separated shard counts (default: 1,2,4)",
    )
    sharded.add_argument(
        "--placements",
        type=_csv(str),
        default="hash,affine",
        help="comma-separated placement policies (default: hash,affine)",
    )
    sharded.add_argument(
        "--level", type=int, default=4, help="leaf level (default: 4)"
    )
    sharded.add_argument(
        "--closures",
        type=int,
        default=12,
        help="cold closure traversals per cell (default: 12)",
    )
    sharded.add_argument(
        "--updates",
        type=int,
        default=24,
        help="optimistic update transactions per cell (default: 24)",
    )
    _add_bench_outputs(
        sharded,
        1989,
        "BENCH_sharded.json",
        "virtual clock, one sample per closure/update",
    )
    sharded.add_argument(
        "--deep-level",
        type=int,
        default=None,
        metavar="LEVEL",
        help="add one whole-structure closure cell per placement at"
        " this level (7 = 97 656 nodes) over the largest shard count;"
        " informational until the baseline carries a budget",
    )
    sharded.add_argument(
        "--deep-closures",
        type=int,
        default=2,
        help="closures in the deep scale cell (default: 2)",
    )

    replica = sub.add_parser(
        "bench-replica",
        help="run the replica-count × write-rate × staleness grid,"
        " write BENCH_replica.json",
    )
    replica.add_argument(
        "--replicas",
        type=_csv(int, low=1),
        default="1,2,4",
        help="comma-separated replica counts (default: 1,2,4)",
    )
    replica.add_argument(
        "--write-rates",
        type=_csv(float, low=0.0),
        default="0,40",
        help="comma-separated writer rates in writes/s of virtual"
        " time; 0 = read-only (default: 0,40)",
    )
    replica.add_argument(
        "--lags",
        type=_csv(float, low=0.0),
        default="0,0.02",
        help="comma-separated replica apply lags in seconds"
        " (default: 0,0.02)",
    )
    replica.add_argument(
        "--level", type=int, default=4, help="leaf level (default: 4)"
    )
    replica.add_argument(
        "--reads-per-reader",
        type=int,
        default=8,
        help="closure reads per reader station (default: 8)",
    )
    replica.add_argument(
        "--routing-closures",
        type=int,
        default=6,
        help="closures in the replica-warm vs primary-warm cell"
        " (default: 6)",
    )
    _add_bench_outputs(
        replica, 1989, "BENCH_replica.json", "virtual clock, deterministic"
    )

    dash = sub.add_parser(
        "dash",
        help="render BENCH documents + timeline JSONL + Chrome trace"
        " into one self-contained HTML dashboard",
    )
    dash.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="BENCH_JSON",
        help="benchmark document to include (repeatable)",
    )
    dash.add_argument(
        "--timeline",
        default=None,
        metavar="JSONL",
        help="flight-recorder timeline to chart",
    )
    dash.add_argument(
        "--trace",
        default=None,
        metavar="TRACE_JSON",
        help="Chrome trace-event JSON to summarise",
    )
    dash.add_argument(
        "--title",
        default="HyperModel game-day dashboard",
        help="dashboard page title",
    )
    dash.add_argument(
        "--out",
        default="dashboard.html",
        help="output HTML path (default: dashboard.html)",
    )

    crash = sub.add_parser(
        "crashtest",
        help="crash the engine at every I/O op, verify recovery, "
        "write BENCH_crash.json",
    )
    crash.add_argument(
        "--transactions",
        type=int,
        default=16,
        help="committed transactions in the scripted workload",
    )
    crash.add_argument(
        "--ops-per-txn",
        type=int,
        default=6,
        help="object operations per transaction",
    )
    crash.add_argument(
        "--payload-bytes",
        type=int,
        default=512,
        help="object body size (bigger = more I/O ops per commit)",
    )
    _add_bench_outputs(crash, 7, "BENCH_crash.json")
    crash.add_argument(
        "--stride",
        type=int,
        default=1,
        help="test every Nth crash point (1 = exhaustive)",
    )
    crash.add_argument(
        "--two-phase",
        action="store_true",
        help="also run the two-phase-commit crash matrix"
        " (coordinator/participant crashes, torn prepares) and fold"
        " its violations into the exit code",
    )
    crash.add_argument(
        "--two-phase-shards",
        type=int,
        default=3,
        help="shard servers in the 2PC matrix (default: 3)",
    )
    crash.add_argument(
        "--two-phase-placement",
        default="hash",
        choices=["hash", "affine"],
        help="placement policy in the 2PC matrix (default: hash)",
    )
    crash.add_argument(
        "--two-phase-transactions",
        type=int,
        default=4,
        help="cross-shard transactions crashed per scenario"
        " (default: 4)",
    )
    crash.add_argument(
        "--two-phase-out",
        default="BENCH_crash2pc.json",
        help="2PC matrix output path (default: BENCH_crash2pc.json)",
    )
    crash.add_argument(
        "--failover",
        action="store_true",
        help="also run the promote-on-primary-crash failover drill"
        " (crash the replication primary at every commit-path I/O op,"
        " elect a replica, verify durability/atomicity/re-route) and"
        " fold its violations into the exit code",
    )
    crash.add_argument(
        "--failover-replicas",
        type=int,
        default=2,
        help="replicas behind the crashed primary (default: 2)",
    )
    crash.add_argument(
        "--failover-transactions",
        type=int,
        default=5,
        help="acked transactions scripted before the crash window"
        " closes (default: 5)",
    )
    crash.add_argument(
        "--failover-out",
        default="BENCH_failover.json",
        help="failover drill output path (default: BENCH_failover.json)",
    )
    crash.add_argument(
        "--failover-trace",
        default=None,
        metavar="TRACE_JSON",
        help="export a Chrome trace of one instrumented failover cell"
        " (the replication.failover span is the failover gap)",
    )

    query = sub.add_parser("query", help="run an ad-hoc query (R12)")
    _add_common_db_args(query)
    query.add_argument("text", help='e.g. "find nodes where hundred between 1 and 10"')

    rube = sub.add_parser("rubenstein", help="run the RUBE87 baseline")
    rube.add_argument("--backend", default="sqlite", choices=["memory", "sqlite"])
    rube.add_argument("--persons", type=int, default=1000)
    rube.add_argument("--documents", type=int, default=1000)
    rube.add_argument("--repetitions", type=int, default=50)

    maintain = sub.add_parser(
        "maintain", help="vacuum / backup / gc an oodb database file"
    )
    maintain.add_argument("action", choices=["vacuum", "backup", "gc"])
    maintain.add_argument("path", help="the .hmdb database file")
    maintain.add_argument(
        "--target", default=None, help="backup destination (backup only)"
    )
    maintain.add_argument(
        "--roots",
        type=_csv(int),
        default=None,
        help="comma-separated root uniqueIds (gc only; default: node 1)",
    )

    sub.add_parser("r7", help="print the R7 latency-profile assessment")

    # Handlers reject input argparse cannot check (exit 2, usage shown).
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


def _cmd_info() -> int:
    print("HyperModel test-database sizes (fan-out 5; section 5.2)")
    print(f"{'level':>6} {'nodes':>8} {'text':>7} {'form':>6} {'~bytes':>12}")
    for level in (4, 5, 6):
        cfg = HyperModelConfig(levels=level)
        print(
            f"{level:>6} {cfg.total_nodes:>8} {cfg.text_node_count:>7} "
            f"{cfg.form_node_count:>6} {cfg.estimated_size_bytes():>12,}"
        )
    return 0


def _generated(args: argparse.Namespace, **options: Any):
    """Open ``--backend`` and generate the ``--level``/``--seed`` structure."""
    from repro.backends import create_backend
    from repro.core.generator import DatabaseGenerator

    db = create_backend(args.backend, args.path, **options)
    db.open()
    config = HyperModelConfig(levels=args.level, seed=args.seed)
    gen = DatabaseGenerator(config).generate(db)
    db.commit()
    return db, gen


def _cmd_generate(args: argparse.Namespace) -> int:
    db, gen = _generated(args)
    print(
        f"generated {gen.total_nodes} nodes "
        f"({len(gen.text_uids)} text, {len(gen.form_uids)} form) "
        f"into {db.backend_name}"
    )
    for phase, ms in {
        **{f"node-{k}": v for k, v in gen.stats.per_node_ms().items()},
        **{f"rel-{k}": v for k, v in gen.stats.per_relationship_ms().items()},
    }.items():
        print(f"  {phase:<14} {ms:8.4f} ms/item")
    db.close()
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verification import verify_database

    db, gen = _generated(args)
    report = verify_database(db, gen)
    db.close()
    if report.ok:
        print(f"OK: {report.checks_run} checks passed")
        return 0
    for problem in report.problems:
        print(f"FAIL: {problem}")
    return 1


def _cmd_run(args: argparse.Namespace, bench: bool = False) -> int:
    from repro.harness import BenchmarkRunner, RunnerConfig
    from repro.harness.report import full_report
    from repro.obs import Instrumentation

    counters = bench and args.counters
    trace_out = getattr(args, "trace", None) if bench else None
    instrumentation = None
    if counters or trace_out:
        # A big span ring when tracing: keep the whole tail of the run.
        instrumentation = Instrumentation(
            span_capacity=65536 if trace_out else 1024
        )
    config = RunnerConfig(
        backends=args.backends,
        levels=args.levels,
        op_ids=args.ops,
        repetitions=args.repetitions,
        seed=args.seed,
        instrumentation=instrumentation,
    )
    with BenchmarkRunner(config) as runner:
        results, _creation = runner.run()
        print(
            full_report(
                results,
                title="HyperModel benchmark results",
                include_counters=counters,
                include_percentiles=bench,
            )
        )
        if args.save:
            results.save(args.save)
            print(f"results written to {args.save}")
        if trace_out:
            from repro.obs.traceexport import write_chrome_trace

            document = write_chrome_trace(
                runner.instrumentation, trace_out
            )
            print(
                f"trace written to {trace_out} "
                f"({len(document['traceEvents'])} events; load in Perfetto)"
            )
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.harness.benchdiff import (
        diff_files,
        format_diff,
        load_document,
        refresh_improvements,
        write_document,
    )

    rows, exit_code = diff_files(args.baseline, args.candidate)
    print(format_diff(rows, only_regressions=not args.all))
    if args.refresh_improvement:
        updated, replaced = refresh_improvements(
            load_document(args.baseline), load_document(args.candidate)
        )
        if replaced:
            write_document(args.baseline, updated)
            print(
                f"ratchet: refreshed {len(replaced)} cell"
                f"{'' if len(replaced) == 1 else 's'} in {args.baseline}: "
                + ", ".join(replaced)
            )
        else:
            print("ratchet: no cell beat the baseline decisively; "
                  "baseline unchanged")
        return 0
    return exit_code


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.operations import CATALOG, Operations
    from repro.obs import Instrumentation
    from repro.obs.traceexport import write_chrome_trace

    instr = Instrumentation(span_capacity=65536)
    db, gen = _generated(args, instrumentation=instr)
    # Cold run: close/reopen so the trace shows faulting and round trips.
    db.close()
    db.open()
    instr.reset()
    spec = CATALOG.get(args.op)
    ops = Operations(db, gen.config)
    root = db.lookup(gen.root_uid)
    with instr.span(f"trace.op{spec.op_id}"):
        spec.run(ops, (root,))
    if spec.mutates:
        db.commit()
    db.close()
    # Sharded backends annotate their shard lanes with the placement
    # policy so the exporter can stamp lane metadata.
    lane_metadata = None
    server = getattr(db, "server", None)
    if server is not None and hasattr(server, "trace_lane_metadata"):
        lane_metadata = server.trace_lane_metadata()
    document = write_chrome_trace(instr, args.out, lane_metadata=lane_metadata)
    print(
        f"op {spec.op_id} ({spec.name}) on {args.backend}: "
        f"{document['otherData']['span_count']} spans, "
        f"{len(document['traceEvents'])} trace events"
    )
    print(f"trace written to {args.out} (load in Perfetto / chrome://tracing)")
    return 0


def _publish(
    out: str, document: Dict[str, Any], summary: str, *notes: Optional[str]
) -> None:
    """Write ``document`` to ``out``; print its summary and side-file notes."""
    from repro.harness.benchdiff import write_document

    write_document(out, document)
    print(summary)
    print(f"results written to {out}")
    for note in notes:
        if note:
            print(note)


def _timeline_note(
    path: Optional[str], clock: str = "virtual clock, deterministic"
) -> Optional[str]:
    return f"timeline written to {path} ({clock})" if path else None


def _cmd_bench_closure(args: argparse.Namespace) -> int:
    from repro.harness.batchbench import (
        format_summary,
        run_closure_bench,
        write_profile_report,
    )

    document = run_closure_bench(
        backends=args.backends,
        level=args.level,
        repetitions=args.repetitions,
        seed=args.seed,
        compare_pushdown=args.compare_pushdown,
        extra_levels=args.levels or (),
        profile=args.profile,
        timeline=args.timeline,
    )
    profile_path = write_profile_report(document, args.out)
    _publish(
        args.out,
        document,
        format_summary(document),
        profile_path and f"cold-pass profiles written to {profile_path}",
        _timeline_note(args.timeline, "wall clock"),
    )
    return 0


def _cmd_bench_multiuser(args: argparse.Namespace) -> int:
    from repro.harness.multiuserbench import format_summary, run_multiuser_bench

    instr = None
    if args.trace:
        from repro.obs import Instrumentation

        instr = Instrumentation(span_capacity=65536)
    document = run_multiuser_bench(
        clients=args.clients,
        conflict_rates=args.conflict,
        level=args.level,
        transactions_per_client=args.transactions,
        reads_per_txn=args.reads_per_txn,
        hot_set_size=args.hot_set,
        seed=args.seed,
        group_commit_size=args.group_commit_size,
        instrumentation=instr,
        timeline=args.timeline,
        timeline_cadence_seconds=args.timeline_cadence,
    )
    trace_note = None
    if instr is not None:
        from repro.obs.traceexport import write_chrome_trace

        trace_doc = write_chrome_trace(instr, args.trace)
        trace_note = (
            f"trace written to {args.trace} "
            f"({trace_doc['otherData']['span_count']} spans,"
            " one lane per client)"
        )
    _publish(
        args.out,
        document,
        format_summary(document),
        _timeline_note(args.timeline),
        trace_note,
    )
    return 0


def _cmd_bench_sharded(args: argparse.Namespace) -> int:
    from repro.harness.shardbench import format_summary, run_sharded_bench
    from repro.netsim.config import PLACEMENT_POLICIES

    unknown = sorted(set(args.placements) - set(PLACEMENT_POLICIES))
    if unknown:
        args.usage_error(f"unknown placement policy: {', '.join(unknown)}")
    document = run_sharded_bench(
        shard_counts=args.shards,
        placements=args.placements,
        level=args.level,
        closures=args.closures,
        updates=args.updates,
        seed=args.seed,
        timeline=args.timeline,
        deep_level=args.deep_level,
        deep_closures=args.deep_closures,
    )
    _publish(
        args.out,
        document,
        format_summary(document),
        _timeline_note(args.timeline),
    )
    return 0


def _cmd_bench_replica(args: argparse.Namespace) -> int:
    from repro.harness.replicabench import format_summary, run_replica_bench

    document = run_replica_bench(
        replica_counts=args.replicas,
        write_rates=args.write_rates,
        lags=args.lags,
        level=args.level,
        reads_per_reader=args.reads_per_reader,
        routing_closures=args.routing_closures,
        seed=args.seed,
        timeline=args.timeline,
    )
    _publish(
        args.out,
        document,
        format_summary(document),
        _timeline_note(args.timeline),
    )
    return 0


def _cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import write_dashboard

    if not args.bench and not args.timeline and not args.trace:
        print("dash: nothing to render (pass --bench/--timeline/--trace)")
        return 2
    write_dashboard(
        args.out,
        bench_paths=args.bench,
        timeline_path=args.timeline,
        trace_path=args.trace,
        title=args.title,
    )
    print(f"dashboard written to {args.out} (self-contained HTML)")
    return 0


def _cmd_crashtest(args: argparse.Namespace) -> int:
    from repro.harness import crashtest, replicacrash, shardcrash

    # Build every spec before the first drill runs, so bad input exits
    # 2 with nothing written.
    if args.stride < 1:
        args.usage_error(f"--stride must be >= 1, got {args.stride}")
    try:
        single = crashtest.CrashWorkload(
            transactions=args.transactions,
            ops_per_txn=args.ops_per_txn,
            payload_bytes=args.payload_bytes,
            seed=args.seed,
        )
        two_phase = args.two_phase and shardcrash.TwoPhaseWorkload(
            shards=args.two_phase_shards,
            placement=args.two_phase_placement,
            transactions=args.two_phase_transactions,
            seed=args.seed,
        )
        failover = args.failover and replicacrash.FailoverWorkload(
            replicas=args.failover_replicas,
            transactions=args.failover_transactions,
            seed=args.seed,
        )
    except ValueError as error:
        args.usage_error(str(error))
    document = crashtest.run_crash_matrix(single, stride=args.stride)
    _publish(args.out, document, crashtest.format_summary(document))
    violations = document["violation_count"]
    if two_phase:
        document = shardcrash.run_two_phase_crash_matrix(two_phase)
        _publish(
            args.two_phase_out, document, shardcrash.format_summary(document)
        )
        violations += document["violation_count"]
    if failover:
        document = replicacrash.run_failover_drill(
            failover, trace_path=args.failover_trace
        )
        _publish(
            args.failover_out,
            document,
            replicacrash.format_summary(document),
            args.failover_trace
            and f"trace written to {args.failover_trace}"
            " (replication.failover = the failover gap)",
        )
        violations += document["violation_count"]
    return 1 if violations else 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query import execute

    db, _gen = _generated(args)
    result = execute(db, args.text)
    print(f"plan: {result.plan}")
    print(f"matched {len(result)} nodes ({result.nodes_examined} examined)")
    uids = sorted(db.get_attribute(ref, "uniqueId") for ref in result)
    preview = ", ".join(str(uid) for uid in uids[:20])
    if len(uids) > 20:
        preview += ", ..."
    print(f"uniqueIds: {preview}")
    db.close()
    return 0


def _cmd_rubenstein(args: argparse.Namespace) -> int:
    from repro.rubenstein import (
        MemorySimpleDatabase,
        SimpleGenerator,
        SimpleOperations,
        SqliteSimpleDatabase,
    )

    db = (
        MemorySimpleDatabase()
        if args.backend == "memory"
        else SqliteSimpleDatabase(":memory:")
    )
    db.open()
    info = SimpleGenerator(args.persons, args.documents).generate(db)
    ops = SimpleOperations(db, info)
    results = ops.run_all(repetitions=args.repetitions)
    print(
        f"RUBE87 baseline on {db.backend_name}: "
        f"{info.persons} persons, {info.documents} documents"
    )
    for name, stats in results.items():
        print(f"  {name:<16} {stats.mean:9.4f} ms/op  (median {stats.median:.4f})")
    db.close()
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    from repro.backends.oodb import OodbDatabase

    db = OodbDatabase(args.path)
    db.open()
    try:
        if args.action == "vacuum":
            stats = db.store.vacuum()
            print(
                f"vacuumed: {stats.size_before:,} -> {stats.size_after:,} "
                f"bytes ({stats.reclaimed:,} reclaimed)"
            )
        elif args.action == "backup":
            if not args.target:
                print("backup requires --target")
                return 1
            db.backup(args.target)
            print(f"snapshot written to {args.target}")
        else:  # gc
            roots = [db.lookup(uid) for uid in args.roots or [1]]
            stats = db.collect_garbage(roots)
            print(
                f"gc: {stats.collected} collected, {stats.live} live "
                f"(from {stats.roots} roots)"
            )
    finally:
        db.close()
    return 0


def _cmd_r7() -> int:
    from repro.netsim.profiles import r7_table

    print("R7: uncached object faulting vs the 100-10,000 objects/s band")
    print(r7_table())
    print("('cache? needed' = only workstation caching reaches the band)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "info": lambda: _cmd_info(),
        "generate": lambda: _cmd_generate(args),
        "verify": lambda: _cmd_verify(args),
        "run": lambda: _cmd_run(args),
        "bench": lambda: _cmd_run(args, bench=True),
        "bench-closure": lambda: _cmd_bench_closure(args),
        "bench-multiuser": lambda: _cmd_bench_multiuser(args),
        "bench-sharded": lambda: _cmd_bench_sharded(args),
        "bench-replica": lambda: _cmd_bench_replica(args),
        "bench-diff": lambda: _cmd_bench_diff(args),
        "dash": lambda: _cmd_dash(args),
        "trace": lambda: _cmd_trace(args),
        "crashtest": lambda: _cmd_crashtest(args),
        "query": lambda: _cmd_query(args),
        "rubenstein": lambda: _cmd_rubenstein(args),
        "maintain": lambda: _cmd_maintain(args),
        "r7": lambda: _cmd_r7(),
    }
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
