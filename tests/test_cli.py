"""The ``hypermodel`` CLI: every subcommand end to end."""

import json
from pathlib import Path

import pytest

from repro.cli import main

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baseline"


class TestInfo:
    def test_prints_sizing_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "19531" in out
        assert "781" in out


class TestGenerate:
    def test_memory_backend(self, capsys):
        assert main(["generate", "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "generated 31 nodes" in out
        assert "node-leaf" in out

    def test_oodb_backend_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "cli.hmdb")
        assert main(
            ["generate", "--backend", "oodb", "--path", path, "--level", "2"]
        ) == 0
        assert "generated 31 nodes" in capsys.readouterr().out


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--level", "2"]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_verify_sqlite(self, capsys):
        assert main(["verify", "--backend", "sqlite", "--level", "2"]) == 0
        assert "OK:" in capsys.readouterr().out


class TestRun:
    def test_small_grid_with_save(self, capsys, tmp_path):
        save = str(tmp_path / "results.json")
        code = main(
            [
                "run",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01,05A",
                "--repetitions", "2",
                "--save", save,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nameLookup" in out
        assert "groupLookup1N" in out
        from repro.harness import ResultSet

        assert len(ResultSet.load(save)) == 2


class TestBench:
    def test_counters_prints_headline_counter_table(self, capsys):
        code = main(
            [
                "bench",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01,09",
                "--repetitions", "2",
                "--counters",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Counters: memory" in out
        # The headline rows print even when zero on this backend.
        assert "engine.buffer.hit" in out
        assert "engine.buffer.miss" in out
        assert "backend.rpc.round_trips" in out
        # The memory backend's coarse call counters are nonzero.
        assert "backend.op.reads" in out

    def test_clientserver_round_trips_are_nonzero(self, capsys):
        code = main(
            [
                "bench",
                "--backends", "clientserver",
                "--levels", "2",
                "--ops", "01",
                "--repetitions", "2",
                "--counters",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("Counters: clientserver"):]
        rpc_row = next(
            line for line in table.splitlines()
            if "backend.rpc.round_trips" in line
        )
        values = [tok for tok in rpc_row.split() if tok.replace(".", "").isdigit()]
        assert any(float(v) > 0 for v in values)

    def test_without_counters_prints_no_counter_tables(self, capsys):
        code = main(
            [
                "bench",
                "--backends", "memory",
                "--levels", "2",
                "--ops", "01",
                "--repetitions", "2",
            ]
        )
        assert code == 0
        assert "Counters:" not in capsys.readouterr().out


class TestQuery:
    def test_query_with_index_plan(self, capsys):
        code = main(
            ["query", "--level", "2",
             "find nodes where hundred between 1 and 10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: index-range(hundred in 1..10)" in out
        assert "matched" in out

    def test_query_scan_plan(self, capsys):
        assert main(["query", "--level", "2", "find text where ten = 5"]) == 0
        assert "plan: scan" in capsys.readouterr().out


class TestBenchClosure:
    def test_writes_json_and_prints_summary(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_closure.json")
        code = main(
            ["bench-closure", "--level", "2", "--repetitions", "2",
             "--backends", "memory,clientserver", "--out", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closure batch traversal" in out
        assert f"results written to {out_path}" in out
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["level"] == 2
        assert set(document["cells"]) == {"memory", "clientserver"}
        for backend, per_op in document["cells"].items():
            assert set(per_op) == {"10", "11", "12"}
            for cell in per_op.values():
                assert cell["nodes"] == 31  # whole level-2 structure
                assert cell["median_ms_per_node"] >= 0.0
        # The point of the batch layer: closing a 31-node closure on
        # the client/server backend costs O(depth) round trips.
        cs10 = document["cells"]["clientserver"]["10"]
        assert 0 < cs10["counters"]["backend.rpc.round_trips"] <= 5


class TestBenchMultiuser:
    def test_writes_json_and_prints_summary(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_multiuser.json")
        code = main(
            ["bench-multiuser", "--clients", "1,4", "--conflict", "0.0,0.5",
             "--transactions", "4", "--out", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "multi-user optimistic grid" in out
        assert f"results written to {out_path}" in out
        with open(out_path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["benchmark"] == "multiuser"
        assert set(document["cells"]) == {"clients-1", "clients-4"}
        control = document["cells"]["clients-4"]["conflict-0"]
        assert control["aborted"] == 0
        assert document["wal"]["per_commit"]["fsyncs_per_commit"] == 1.0

    def test_trace_export_has_client_lanes(self, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "BENCH_multiuser.json")
        trace_path = str(tmp_path / "mp_trace.json")
        code = main(
            ["bench-multiuser", "--clients", "2", "--conflict", "0.0",
             "--transactions", "2", "--out", out_path,
             "--trace", trace_path]
        )
        assert code == 0
        assert "one lane per client" in capsys.readouterr().out
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        lane_names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert any("w00" in name for name in lane_names)
        assert any("w01" in name for name in lane_names)


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestBenchSharded:
    def test_small_grid_with_timeline(self, capsys, tmp_path):
        out_path = str(tmp_path / "BENCH_sharded.json")
        timeline = str(tmp_path / "timeline.jsonl")
        code = main(
            ["bench-sharded", "--shards", "1,2", "--level", "2",
             "--closures", "2", "--updates", "2", "--out", out_path,
             "--timeline", timeline]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded grid — level 2" in out
        assert f"results written to {out_path}" in out
        assert (
            f"timeline written to {timeline} (virtual clock, deterministic)"
            in out
        )
        document = _load(out_path)
        assert document["benchmark"] == "sharded"
        assert set(document["cells"]) == {
            "shards1-hash", "shards1-affine", "shards2-hash", "shards2-affine",
        }
        with open(timeline, encoding="utf-8") as handle:
            samples = [json.loads(line) for line in handle]
        assert {sample["label"] for sample in samples} >= {
            "shards2-hash/closure", "shards2-hash/update",
        }

    def test_defaults_reproduce_the_committed_baseline(self, capsys, tmp_path):
        # The grid runs in virtual time, so its document is a pure
        # function of the defaults; any drift in the cost model or the
        # sharded path shows up here exactly, not as +25% p50 noise.
        out_path = str(tmp_path / "BENCH_sharded.json")
        assert main(["bench-sharded", "--out", out_path]) == 0
        fresh = _load(out_path)
        baseline = _load(BASELINES / "BENCH_sharded.json")
        fresh.pop("provenance")
        baseline.pop("provenance")
        assert fresh == baseline


class TestBenchReplica:
    def test_small_grid(self, capsys, tmp_path):
        out_path = str(tmp_path / "BENCH_replica.json")
        code = main(
            ["bench-replica", "--replicas", "1,2", "--write-rates", "0",
             "--lags", "0", "--level", "2", "--reads-per-reader", "2",
             "--routing-closures", "2", "--out", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replica grid — level 2" in out
        assert f"results written to {out_path}" in out
        assert "timeline written" not in out
        document = _load(out_path)
        assert document["benchmark"] == "replica"
        assert set(document["cells"]) == {
            "replicas1-write0-lag0ms", "replicas2-write0-lag0ms", "routing",
        }


class TestCrashtestLegs:
    def test_all_three_drills_write_their_documents(self, capsys, tmp_path):
        paths = {
            name: str(tmp_path / name)
            for name in (
                "crash.json", "crash2pc.json", "failover.json", "trace.json",
            )
        }
        code = main(
            ["crashtest", "--transactions", "1", "--ops-per-txn", "1",
             "--payload-bytes", "32", "--stride", "8",
             "--out", paths["crash.json"],
             "--two-phase", "--two-phase-transactions", "1",
             "--two-phase-out", paths["crash2pc.json"],
             "--failover", "--failover-transactions", "1",
             "--failover-out", paths["failover.json"],
             "--failover-trace", paths["trace.json"]]
        )
        assert code == 0
        out = capsys.readouterr().out
        for headline in (
            "crash-recovery matrix",
            "two-phase-commit crash matrix",
            "replica failover drill:",
        ):
            assert headline in out
        for name, benchmark in (
            ("crash.json", "crash-recovery-matrix"),
            ("crash2pc.json", "two-phase-crash-matrix"),
            ("failover.json", "replica-failover"),
        ):
            assert f"results written to {paths[name]}" in out
            document = _load(paths[name])
            assert document["benchmark"] == benchmark
            assert document["violation_count"] == 0
        assert f"trace written to {paths['trace.json']}" in out
        assert "traceEvents" in _load(paths["trace.json"])


class TestOutOfRangeInput:
    """Bad input exits 2 (a usage error) before any work or output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["crashtest", "--stride", "0"],
            ["crashtest", "--transactions", "0"],
            ["crashtest", "--two-phase", "--two-phase-shards", "1"],
            ["crashtest", "--failover", "--failover-replicas", "0"],
            ["bench-sharded", "--shards", "0"],
            ["bench-sharded", "--shards", "1,x"],
            ["bench-sharded", "--placements", "hash,nowhere"],
            ["bench-multiuser", "--conflict", "1.5"],
            ["bench-multiuser", "--clients", "0,2"],
            ["bench-replica", "--lags", "-0.5"],
            ["bench-closure", "--levels", "x"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_2_and_writes_nothing(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestRubenstein:
    def test_baseline_runs(self, capsys):
        code = main(
            ["rubenstein", "--persons", "50", "--documents", "50",
             "--repetitions", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("nameLookup", "sequentialScan", "databaseOpen"):
            assert name in out

    def test_memory_backend(self, capsys):
        assert main(
            ["rubenstein", "--backend", "memory", "--persons", "30",
             "--documents", "30", "--repetitions", "2"]
        ) == 0
        assert "memory" in capsys.readouterr().out


class TestMaintain:
    @pytest.fixture
    def db_path(self, tmp_path):
        path = str(tmp_path / "m.hmdb")
        assert main(
            ["generate", "--backend", "oodb", "--path", path, "--level", "2"]
        ) == 0
        return path

    def test_vacuum(self, capsys, db_path):
        capsys.readouterr()
        assert main(["maintain", "vacuum", db_path]) == 0
        assert "reclaimed" in capsys.readouterr().out

    def test_backup(self, capsys, db_path, tmp_path):
        target = str(tmp_path / "snap.hmdb")
        assert main(["maintain", "backup", db_path, "--target", target]) == 0
        import os

        assert os.path.exists(target)

    def test_backup_without_target_fails(self, capsys, db_path):
        assert main(["maintain", "backup", db_path]) == 1

    def test_gc_from_the_root(self, capsys, db_path):
        capsys.readouterr()
        assert main(["maintain", "gc", db_path, "--roots", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 collected" in out  # everything reachable from the root
        assert "31 live" in out


class TestR7:
    def test_prints_assessment(self, capsys):
        assert main(["r7"]) == 0
        out = capsys.readouterr().out
        assert "lan-1990" in out
        assert "wan" in out
        assert "needed" in out


class TestQueryExtensionsViaCli:
    def test_count_query(self, capsys):
        assert main(["query", "--level", "2", "count nodes"]) == 0
        assert "matched 31 nodes" in capsys.readouterr().out


class TestParsing:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
