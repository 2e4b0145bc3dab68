"""The measurement harness: stats, timers, protocol, runner, reports."""

import pytest

from repro.core.operations import CATALOG
from repro.harness import BenchmarkRunner, ResultSet, RunnerConfig, Stats, Timer
from repro.harness.protocol import run_operation_sequence
from repro.harness.report import (
    backend_comparison_table,
    creation_table,
    full_report,
    operation_table,
    speedup_table,
)
from repro.netsim import SimulatedClock


class TestStats:
    def test_summary_values(self):
        stats = Stats.from_samples([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.median == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.total == 10.0
        assert stats.stdev == pytest.approx(1.118, abs=1e-3)

    def test_odd_median(self):
        assert Stats.from_samples([5.0, 1.0, 3.0]).median == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Stats.from_samples([])

    def test_scaled(self):
        stats = Stats.from_samples([1.0, 3.0]).scaled(1000)
        assert stats.mean == 2000
        assert stats.total == 4000

    def test_dict_roundtrip(self):
        stats = Stats.from_samples([0.5, 1.5])
        assert Stats.from_dict(stats.to_dict()) == stats


class TestTimer:
    def test_wall_time_measured(self):
        timer = Timer()
        with timer:
            sum(range(10000))
        assert timer.elapsed > 0
        assert timer.simulated == 0.0

    def test_simulated_time_added(self):
        clock = SimulatedClock()
        timer = Timer(clock)
        with timer:
            clock.advance(1.5)
        assert timer.simulated == pytest.approx(1.5)
        assert timer.elapsed >= 1.5


class TestProtocol:
    def test_cold_warm_sequence_shape(self, populated):
        db, gen = populated
        spec = CATALOG.get("01")
        result = run_operation_sequence(db, spec, gen, repetitions=5, seed=1)
        assert result.op_id == "01"
        assert result.repetitions == 5
        assert result.cold.count == 5
        assert result.warm.count == 5
        assert result.cold.mean >= 0
        assert result.level == gen.config.levels
        assert result.nodes_per_repetition == 1
        assert not db.is_open  # the protocol closes afterwards (step e)

    def test_mutating_sequence_leaves_database_stable(self, populated):
        """Op 16 runs an even number of times per sequence, so paired
        cold/warm runs restore every edited text node."""
        db, gen = populated
        spec = CATALOG.get("16")
        db.open()
        uid = gen.text_uids[0]
        originals = {
            uid: db.get_text(db.lookup(uid)) for uid in gen.text_uids[:10]
        }
        run_operation_sequence(db, spec, gen, repetitions=4, seed=2)
        db.open()
        for uid, text in originals.items():
            assert db.get_text(db.lookup(uid)) == text

    def test_closure_result_list_stored(self, populated):
        db, gen = populated
        run_operation_sequence(db, CATALOG.get("10"), gen, repetitions=3, seed=3)
        db.open()
        stored = db.load_node_list("result.10")
        assert len(stored) == gen.config.closure_1n_size(
            min(3, gen.config.levels - 1)
        )

    def test_dict_roundtrip(self, memory_populated):
        db, gen = memory_populated
        result = run_operation_sequence(db, CATALOG.get("05A"), gen,
                                        repetitions=3, seed=4)
        from repro.harness.protocol import ColdWarmResult

        clone = ColdWarmResult.from_dict(result.to_dict())
        assert clone == result

    def test_op17_reuses_one_form_node_and_restores_it(self, populated):
        """The paper's N.B.: the same form node for all repetitions;
        paired cold/warm runs leave it white again."""
        db, gen = populated
        run_operation_sequence(db, CATALOG.get("17"), gen,
                               repetitions=5, seed=9)
        db.open()
        for uid in gen.form_uids:
            assert db.get_bitmap(db.lookup(uid)).is_white()

    def test_warm_not_slower_than_cold_on_cached_backends(self, tmp_path):
        """On the client/server backend the warm run must win clearly
        (deterministic: network time dominates and is simulated)."""
        from repro.backends.clientserver import ClientServerDatabase
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator

        db = ClientServerDatabase()
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=4)).generate(db)
        db.commit()
        result = run_operation_sequence(db, CATALOG.get("06"), gen,
                                        repetitions=10, seed=10)
        assert result.warm.mean < result.cold.mean


class TestCounterCapture:
    """ColdWarmResult carries per-run counter deltas when instrumented."""

    def _populated_memory(self, instr):
        from repro.backends.memory import MemoryDatabase
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator
        from repro.obs import Instrumentation

        db = MemoryDatabase(instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(HyperModelConfig(levels=2, seed=8)).generate(db)
        db.commit()
        return db, gen

    def test_instrumented_run_captures_cold_and_warm_deltas(self):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        db, gen = self._populated_memory(instr)
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=4, seed=5)
        assert result.cold_counters.get("backend.op.reads", 0) > 0
        assert result.warm_counters.get("backend.op.reads", 0) > 0
        # Deltas are per-pass, not cumulative: cold ~= warm for memory.
        assert result.cold_counters["backend.op.reads"] == pytest.approx(
            result.warm_counters["backend.op.reads"], rel=0.5
        )

    def test_uninstrumented_run_captures_nothing(self):
        from repro.obs import NO_OP

        db, gen = self._populated_memory(NO_OP)
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=3, seed=5)
        assert result.cold_counters == {}
        assert result.warm_counters == {}

    def test_dict_roundtrip_preserves_counters(self):
        from repro.harness.protocol import ColdWarmResult
        from repro.obs import Instrumentation

        db, gen = self._populated_memory(Instrumentation())
        result = run_operation_sequence(db, CATALOG.get("09"), gen,
                                        repetitions=2, seed=5)
        clone = ColdWarmResult.from_dict(result.to_dict())
        assert clone.cold_counters == result.cold_counters
        assert clone == result

    def test_from_dict_tolerates_pre_counter_payloads(self):
        from repro.harness.protocol import ColdWarmResult

        db, gen = self._populated_memory(None)
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=2, seed=5)
        raw = result.to_dict()
        raw.pop("cold_counters")
        raw.pop("warm_counters")
        clone = ColdWarmResult.from_dict(raw)
        assert clone.cold_counters == {}
        assert clone.warm_counters == {}

    def test_counter_table_renders_headline_rows(self, tmp_path):
        from repro.harness.report import counter_table
        from repro.obs import Instrumentation

        config = RunnerConfig(
            backends=["memory"], levels=[2], op_ids=["01", "09"],
            repetitions=2, workdir=str(tmp_path),
            instrumentation=Instrumentation(),
        )
        with BenchmarkRunner(config) as runner:
            results, _ = runner.run()
        table = counter_table(results, "memory", level=2, temperature="cold")
        assert "engine.buffer.hit" in table    # headline even at zero
        assert "backend.rpc.round_trips" in table
        assert "backend.op.reads" in table     # observed and nonzero
        assert sorted(results.counter_names())


class TestRunner:
    @pytest.fixture(scope="class")
    def grid(self, tmp_path_factory):
        config = RunnerConfig(
            backends=["memory", "oodb"],
            levels=[2],
            op_ids=["01", "05A", "10", "16"],
            repetitions=3,
            workdir=str(tmp_path_factory.mktemp("grid")),
        )
        runner = BenchmarkRunner(config)
        results, creation = runner.run()
        yield results, creation
        runner.close()

    def test_grid_covers_backends_and_ops(self, grid):
        results, _creation = grid
        assert set(results.backends) == {"memory", "oodb"}
        assert set(results.op_ids) == {"01", "05A", "10", "16"}
        assert len(results) == 2 * 4

    def test_creation_phases_recorded(self, grid):
        _results, creation = grid
        assert ("memory", 2) in creation
        phases = creation[("oodb", 2)]
        assert "node-internal" in phases
        assert "rel-1-N" in phases

    def test_op02_skipped_for_key_only_backends(self, tmp_path):
        config = RunnerConfig(
            backends=["sqlite"], levels=[2], op_ids=["01", "02"],
            repetitions=2, workdir=str(tmp_path),
        )
        runner = BenchmarkRunner(config)
        results, _ = runner.run()
        assert results.op_ids == ["01"]  # 02 is "not applicable"
        runner.close()


class TestResultSet:
    def test_selection_and_json_roundtrip(self, memory_populated):
        db, gen = memory_populated
        results = ResultSet()
        for op_id in ("01", "03"):
            results.add(
                run_operation_sequence(db, CATALOG.get(op_id), gen,
                                       repetitions=2, seed=5)
            )
        assert len(results.select(op_id="01")) == 1
        assert results.one("memory", 3, "03").op_id == "03"
        with pytest.raises(KeyError):
            results.one("memory", 3, "99")
        clone = ResultSet.from_json(results.to_json())
        assert len(clone) == 2
        assert clone.one("memory", 3, "01").cold.count == 2

    def test_save_and_load(self, memory_populated, tmp_path):
        db, gen = memory_populated
        results = ResultSet(
            [run_operation_sequence(db, CATALOG.get("01"), gen,
                                    repetitions=2, seed=6)]
        )
        path = str(tmp_path / "results.json")
        results.save(path)
        assert len(ResultSet.load(path)) == 1


class TestReports:
    @pytest.fixture
    def results(self, memory_populated):
        db, gen = memory_populated
        collected = ResultSet()
        for op_id in ("01", "05A"):
            collected.add(
                run_operation_sequence(db, CATALOG.get(op_id), gen,
                                       repetitions=2, seed=7)
            )
        return collected

    def test_operation_table_contains_ops_and_levels(self, results):
        table = operation_table(results, "memory")
        assert "01 nameLookup" in table
        assert "05A groupLookup1N" in table
        assert "L3 cold" in table and "L3 warm" in table

    def test_comparison_table(self, results):
        table = backend_comparison_table(results, 3, "cold")
        assert "memory" in table
        with pytest.raises(ValueError):
            backend_comparison_table(results, 3, "tepid")

    def test_speedup_table(self, results):
        assert "x" in speedup_table(results, "memory")

    def test_creation_table(self):
        table = creation_table(
            {"memory": {"node-leaf": 0.12, "rel-1-N": 0.03}}, level=4
        )
        assert "node-leaf" in table and "memory" in table

    def test_full_report_concatenates(self, results):
        report = full_report(results, title="Title")
        assert "Title" in report
        assert report.count("nameLookup") >= 3

    def test_delta_table_flags_regressions(self, results):
        from repro.harness.report import delta_table
        import dataclasses

        slower = ResultSet()
        for cell in results:
            slower.add(
                dataclasses.replace(cell, cold=cell.cold.scaled(3.0))
            )
        table = delta_table(results, slower, "cold", threshold=0.10)
        assert "SLOWER" in table
        assert "+200%" in table
        # Identical sets carry no flags.
        clean = delta_table(results, results, "cold")
        assert "SLOWER" not in clean and "faster" not in clean
        with pytest.raises(ValueError):
            delta_table(results, results, "tepid")


class TestLatencyHistogramCapture:
    """ColdWarmResult carries sample-derived latency histograms."""

    def test_histograms_present_even_without_instrumentation(
        self, memory_populated
    ):
        db, gen = memory_populated
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=4, seed=5)
        for hist in (result.cold_hist, result.warm_hist):
            assert hist["count"] == 4
            assert hist["min"] <= hist["p50"] <= hist["p90"]
            assert hist["p90"] <= hist["p99"] <= hist["max"]

    def test_dict_roundtrip_preserves_histograms(self, memory_populated):
        from repro.harness.protocol import ColdWarmResult

        db, gen = memory_populated
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=3, seed=5)
        clone = ColdWarmResult.from_dict(result.to_dict())
        assert clone.cold_hist == result.cold_hist
        assert clone.warm_hist == result.warm_hist

    def test_from_dict_tolerates_pre_histogram_payloads(
        self, memory_populated
    ):
        from repro.harness.protocol import ColdWarmResult

        db, gen = memory_populated
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=3, seed=5)
        raw = result.to_dict()
        del raw["cold_hist"], raw["warm_hist"]
        clone = ColdWarmResult.from_dict(raw)
        assert clone.cold_hist == {} and clone.warm_hist == {}

    def test_percentile_table_renders(self, memory_populated):
        from repro.harness.report import percentile_table

        db, gen = memory_populated
        collected = ResultSet()
        collected.add(
            run_operation_sequence(db, CATALOG.get("01"), gen,
                                   repetitions=3, seed=7)
        )
        table = percentile_table(collected, "memory", level=3)
        assert "p50" in table and "p99" in table
        assert "01 nameLookup" in table
        with pytest.raises(ValueError):
            percentile_table(collected, "memory", temperature="tepid")

    def test_full_report_appends_percentile_tables(self, memory_populated):
        db, gen = memory_populated
        collected = ResultSet()
        collected.add(
            run_operation_sequence(db, CATALOG.get("01"), gen,
                                   repetitions=2, seed=7)
        )
        report = full_report(collected, include_percentiles=True)
        assert "Latency percentiles" in report


class TestResetBetweenPasses:
    """The harness resets instrumentation between cold and warm passes."""

    def test_warm_spans_and_histograms_describe_the_warm_pass_only(self):
        from repro.backends.memory import MemoryDatabase
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator
        from repro.obs import Instrumentation

        instr = Instrumentation(span_capacity=4096)
        db = MemoryDatabase(instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(
            HyperModelConfig(levels=2, seed=8)
        ).generate(db)
        db.commit()
        repetitions = 4
        result = run_operation_sequence(db, CATALOG.get("01"), gen,
                                        repetitions=repetitions, seed=5)
        # The surviving ring only holds warm-pass (and later) spans:
        # each record postdates every cold iteration the histogram saw.
        warm_hist = instr.histograms.get("harness.iteration.warm")
        assert warm_hist is not None and len(warm_hist) == repetitions
        assert instr.histograms.get("harness.iteration.cold") is None
        assert result.cold_hist["count"] == repetitions

    def test_warm_records_never_reference_cold_sequences(self):
        # The clientserver backend opens rpc/server spans on every
        # round trip, so both passes record spans; the harness reset
        # between the passes must leave the warm ring free of any
        # cold-pass sequence number.
        from repro.backends import create_backend
        from repro.core.config import HyperModelConfig
        from repro.core.generator import DatabaseGenerator
        from repro.obs import Instrumentation

        cold_sequences = set()

        class CapturingInstrumentation(Instrumentation):
            __slots__ = ()

            def reset(self):
                cold_sequences.update(
                    r.sequence for r in self.spans.records()
                )
                super().reset()

        instr = CapturingInstrumentation(span_capacity=4096)
        db = create_backend("clientserver", None, instrumentation=instr)
        db.open()
        gen = DatabaseGenerator(
            HyperModelConfig(levels=2, seed=8)
        ).generate(db)
        db.commit()
        run_operation_sequence(db, CATALOG.get("10"), gen,
                               repetitions=3, seed=5)
        warm_records = instr.spans.records()
        assert cold_sequences, "cold pass recorded no spans"
        assert warm_records, "warm pass recorded no spans"
        ceiling = max(cold_sequences)
        for record in warm_records:
            assert record.sequence > ceiling
            assert record.sequence not in cold_sequences
            if record.parent is not None:
                assert record.parent not in cold_sequences


class TestInputSeeding:
    """Input selection is a function of the seed alone."""

    _DRAW = """
from repro.backends import create_backend
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import CATALOG
from repro.harness.protocol import _prepare_inputs

db = create_backend("clientserver")
db.open()
gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=42)).generate(db)
db.commit()
for spec in CATALOG:
    print(spec.op_id, _prepare_inputs(spec, gen, 1989, db, 3))
"""

    def test_inputs_do_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        draws = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", self._DRAW],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            draws.append(done.stdout)
        assert draws[0].count("\n") == len(CATALOG)
        assert draws[0] == draws[1]
