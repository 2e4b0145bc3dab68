"""Closure push-down: server-side traversal + structural readahead.

Five contracts under test:

* the server verbs (``traverse`` / ``readahead``): BFS order, depth
  and capacity bounds, speculative error semantics, and the
  **unified charge model** (a push-down reply and a batch reply
  carrying the same record set cost the same simulated time);
* the client fast path: op 10 at level 4 costs exactly **one**
  ``backend.rpc.call`` round trip with ``pushdown=True`` (five with
  the frontier-BFS fall-back), warm passes stay at zero, and both
  modes return byte-identical results;
* the workstation cache's bulk admission (`put_many`, single eviction
  pass) and the pinned LRU recency of ``get_many`` partial hits;
* coherence: a ``store`` invalidation evicts records that entered the
  cache via ``traverse``/``readahead``, not just via ``fetch``;
* fault tolerance: a dropped/timed-out ``traverse`` retries the whole
  verb without double-admitting records (counter-verified).
"""

import pytest

from repro.backends import create_backend
from repro.backends.clientserver import ClientServerDatabase
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.core.operations import Operations
from repro.errors import (
    ConfigurationError,
    InvalidOperationError,
    NodeNotFoundError,
    RpcDroppedError,
    RpcTimeoutError,
)
from repro.harness.batchbench import run_closure_bench
from repro.harness.benchdiff import extract_cells
from repro.netsim.cache import WorkstationCache
from repro.obs import Instrumentation


def _build(levels=3, seed=42, **options):
    """A generated clientserver database + its generator handle."""
    from repro.netsim.config import NetworkConfig

    instr = options.pop("instrumentation", None) or Instrumentation()
    db = ClientServerDatabase(
        network=NetworkConfig(**options), instrumentation=instr
    )
    db.open()
    gen = DatabaseGenerator(
        HyperModelConfig(levels=levels, seed=seed)
    ).generate(db)
    db.commit()
    return db, gen, instr


# ----------------------------------------------------------------------
# 1. The server-side traverse / readahead verbs
# ----------------------------------------------------------------------


class TestTraverseVerb:
    @pytest.fixture(scope="class")
    def served(self):
        db, gen, instr = _build(levels=3)
        yield db.server, gen, db
        db.close()

    def test_children_traversal_visits_the_whole_subtree_in_bfs_order(
        self, served
    ):
        server, gen, _db = served
        reply = server.traverse(gen.root_uid, "children")
        assert len(reply) == 156  # the level-3 structure
        order = list(reply)
        assert order[0] == gen.root_uid
        # BFS: every node appears after its parent.
        position = {uid: i for i, uid in enumerate(order)}
        for uid, record in reply.items():
            for child in record["children"]:
                assert position[child] > position[uid]

    def test_depth_bound_stops_the_bfs(self, served):
        server, gen, _db = served
        reply = server.traverse(gen.root_uid, "children", depth=1)
        root_record = reply[gen.root_uid]
        assert set(reply) == {gen.root_uid, *root_record["children"]}

    def test_limit_caps_the_reply_to_a_coherent_bfs_prefix(self, served):
        server, gen, _db = served
        full = list(server.traverse(gen.root_uid, "children"))
        capped = server.traverse(gen.root_uid, "children", limit=10)
        assert list(capped) == full[:10]

    def test_unknown_root_raises_and_still_charges(self, served):
        server, _gen, db = served
        before = db.simulated_clock.now
        with pytest.raises(NodeNotFoundError):
            server.traverse(999999, "children")
        assert db.simulated_clock.now > before

    def test_replies_are_isolated_copies(self, served):
        server, gen, _db = served
        reply = server.traverse(gen.root_uid, "children", depth=1)
        reply[gen.root_uid]["children"].clear()
        again = server.traverse(gen.root_uid, "children", depth=1)
        assert again[gen.root_uid]["children"]


class TestReadaheadVerb:
    @pytest.fixture(scope="class")
    def served(self):
        db, gen, instr = _build(levels=3)
        yield db.server, gen, db
        db.close()

    def test_expands_children_and_parts_of_the_seed(self, served):
        server, gen, _db = served
        root = gen.root_uid
        reply = server.readahead([root], depth=1)
        record = reply[root]
        expected = {root, *record["children"], *record["parts"]}
        assert set(reply) == expected

    def test_depth_zero_ships_just_the_seeds(self, served):
        server, gen, _db = served
        uids = gen.uids_by_level[1][:3]
        reply = server.readahead(uids, depth=0)
        assert list(reply) == list(uids)

    def test_unknown_seeds_are_skipped_silently(self, served):
        server, gen, _db = served
        reply = server.readahead([999999], depth=1)
        assert reply == {}
        mixed = server.readahead([999999, gen.root_uid], depth=0)
        assert list(mixed) == [gen.root_uid]

    def test_negative_depth_is_rejected(self, served):
        server, _gen, _db = served
        with pytest.raises(InvalidOperationError):
            server.readahead([1], depth=-1)

    def test_limit_caps_the_expansion(self, served):
        server, gen, _db = served
        reply = server.readahead([gen.root_uid], depth=3, limit=5)
        assert len(reply) == 5


# ----------------------------------------------------------------------
# 2. Unified charge accounting (satellite: _charge payload model)
# ----------------------------------------------------------------------


class TestChargeParity:
    """envelope + Σ record_size, identically for every reply shape."""

    @pytest.fixture()
    def served(self):
        db, gen, instr = _build(levels=2)
        yield db.server, gen, db, instr
        db.close()

    def test_batch_and_pushdown_replies_charge_identically(self, served):
        server, gen, db, _instr = served
        clock = db.simulated_clock
        reply = server.traverse(gen.root_uid, "children")
        record_set = list(reply)
        before_bytes = server.stats.bytes_sent
        before = clock.now
        server.fetch_many(record_set)
        batch_cost = clock.now - before
        batch_bytes = server.stats.bytes_sent - before_bytes
        before_bytes = server.stats.bytes_sent
        before = clock.now
        server.traverse(gen.root_uid, "children")
        pushdown_cost = clock.now - before
        pushdown_bytes = server.stats.bytes_sent - before_bytes
        assert batch_bytes == pushdown_bytes
        assert batch_cost == pushdown_cost

    def test_single_fetch_matches_a_singleton_batch(self, served):
        server, gen, db, _instr = served
        clock = db.simulated_clock
        before = clock.now
        server.fetch(gen.root_uid)
        single = clock.now - before
        before = clock.now
        server.fetch_many([gen.root_uid])
        batch = clock.now - before
        assert single == batch

    def test_readahead_charges_like_a_batch_of_its_reply(self, served):
        server, gen, db, _instr = served
        clock = db.simulated_clock
        reply = server.readahead([gen.root_uid], depth=1)
        before = clock.now
        server.fetch_many(list(reply))
        batch_cost = clock.now - before
        before = clock.now
        server.readahead([gen.root_uid], depth=1)
        readahead_cost = clock.now - before
        assert readahead_cost == batch_cost

    def test_payload_size_histograms_are_recorded_per_verb(self, served):
        server, gen, _db, instr = served
        server.traverse(gen.root_uid, "children")
        server.fetch_many([gen.root_uid])
        total = instr.histograms.get("backend.rpc.payload_bytes")
        assert total is not None and total.count >= 2
        for verb in ("traverse", "fetch_many"):
            hist = instr.histograms.get(f"backend.rpc.payload_bytes.{verb}")
            assert hist is not None and hist.count >= 1
            assert hist.maximum > 0


# ----------------------------------------------------------------------
# 3. The client fast path: one round trip per cold closure
# ----------------------------------------------------------------------


class TestPushdownFastPath:
    @pytest.fixture(scope="class")
    def level4(self):
        db, gen, instr = _build(levels=4)
        yield db, gen, instr
        db.close()

    @pytest.fixture(scope="class")
    def level4_bfs(self):
        db, gen, instr = _build(levels=4, pushdown=False)
        yield db, gen, instr
        db.close()

    def _cold_op10(self, db, gen, instr):
        db.close()
        db.open()
        root = db.lookup(gen.root_uid)  # the one allowed index probe
        rpc_hist = instr.histograms.get("backend.rpc.call")
        calls_before = rpc_hist.count if rpc_hist is not None else 0
        before = instr.snapshot()
        result = Operations(db).closure_1n(root)
        delta = instr.delta_since(before)
        rpc_hist = instr.histograms.get("backend.rpc.call")
        calls = (rpc_hist.count if rpc_hist is not None else 0) - calls_before
        return result, delta, calls

    def test_cold_op10_level4_is_exactly_one_round_trip(self, level4):
        db, gen, instr = level4
        result, delta, rpc_calls = self._cold_op10(db, gen, instr)
        assert len(result) == 781
        assert delta.get("backend.rpc.round_trips", 0) == 1
        assert rpc_calls == 1  # one backend.rpc.call, retries included
        assert delta.get("backend.rpc.pushdown.calls", 0) == 1
        assert delta.get("backend.rpc.pushdown.objects", 0) == 781
        assert delta.get("cache.readahead.admitted", 0) == 781

    def test_cold_op10_level4_frontier_bfs_needs_five(self, level4_bfs):
        db, gen, instr = level4_bfs
        result, delta, rpc_calls = self._cold_op10(db, gen, instr)
        assert len(result) == 781
        assert delta.get("backend.rpc.round_trips", 0) == 5
        assert rpc_calls == 5
        assert delta.get("backend.rpc.pushdown.calls", 0) == 0

    def test_warm_op10_is_zero_round_trips_and_skips_the_pushdown(
        self, level4
    ):
        db, gen, instr = level4
        root = db.lookup(gen.root_uid)
        Operations(db).closure_1n(root)  # ensure warm
        before = instr.snapshot()
        result = Operations(db).closure_1n(root)
        delta = instr.delta_since(before)
        assert len(result) == 781
        assert delta.get("backend.rpc.round_trips", 0) == 0
        assert delta.get("backend.rpc.pushdown.skipped_warm", 0) == 1

    def test_pushdown_and_bfs_results_are_identical(self):
        push, gen_a, _ = _build(levels=3, seed=99)
        bfs, gen_b, _ = _build(levels=3, seed=99, pushdown=False)
        try:
            assert gen_a.root_uid == gen_b.root_uid
            for db in (push, bfs):
                db.close()
                db.open()
            ops_a = Operations(push)
            ops_b = Operations(bfs)
            root = gen_a.root_uid
            assert ops_a.closure_1n(root) == ops_b.closure_1n(root)
            assert ops_a.closure_1n_att_sum(root) == (
                ops_b.closure_1n_att_sum(root)
            )
            assert ops_a.closure_1n_pred(root, 1000) == (
                ops_b.closure_1n_pred(root, 1000)
            )
            assert ops_a.closure_mn(root) == ops_b.closure_mn(root)
            assert ops_a.closure_mnatt(root, depth=7) == (
                ops_b.closure_mnatt(root, depth=7)
            )
            assert ops_a.closure_mnatt_linksum(root, depth=7) == (
                ops_b.closure_mnatt_linksum(root, depth=7)
            )
            assert ops_a.closure_1n_att_set(root) == (
                ops_b.closure_1n_att_set(root)
            )
        finally:
            push.close()
            bfs.close()

    def test_small_cache_falls_back_past_the_capped_prefix(self):
        """A traversal larger than the cache still answers correctly."""
        db, gen, instr = _build(levels=3, cache_capacity=10)
        try:
            db.close()
            db.open()
            root = db.lookup(gen.root_uid)
            before = instr.snapshot()
            result = Operations(db).closure_1n(root)
            delta = instr.delta_since(before)
            assert len(result) == 156
            # The capped push-down reply covered only a prefix; the
            # frontier BFS paid for the rest.
            assert delta.get("backend.rpc.pushdown.objects", 0) == 10
            assert delta.get("backend.rpc.round_trips", 0) > 1
        finally:
            db.close()

    def test_structural_readahead_warms_the_neighbourhood(self):
        db, gen, instr = _build(levels=3)
        try:
            db.close()
            db.open()
            uid = db.lookup(gen.uids_by_level[1][0])
            before = instr.snapshot()
            db.get_attribute(uid, "ten")  # cold first touch
            kids = db.children(uid)  # served from the readahead
            delta = instr.delta_since(before)
            assert delta.get("backend.rpc.round_trips", 0) == 1
            assert delta.get("cache.readahead.requests", 0) == 1
            assert delta.get("cache.readahead.admitted", 0) > 1
            assert all(kid in db.cache for kid in kids)
        finally:
            db.close()

    def test_readahead_miss_still_raises_node_not_found(self):
        db, _gen, _instr = _build(levels=2)
        try:
            with pytest.raises(NodeNotFoundError):
                db.get_attribute(424242, "ten")
        finally:
            db.close()

    def test_option_validation(self):
        from repro.netsim.config import NetworkConfig

        with pytest.raises(ConfigurationError):
            NetworkConfig(readahead_depth=-1)

    def test_registry_ablation_disables_pushdown(self):
        with create_backend("clientserver-bfs", None) as db:
            assert db.pushdown is False
            assert db.backend_name == "clientserver"
        with create_backend("clientserver", None) as db:
            assert db.pushdown is True


# ----------------------------------------------------------------------
# 4. Workstation cache: bulk admission + pinned LRU recency
# ----------------------------------------------------------------------


class TestCacheBulkAdmission:
    def test_put_many_admits_in_iteration_order(self):
        cache = WorkstationCache(capacity=8)
        evicted = cache.put_many([(1, "a"), (2, "b"), (3, "c")])
        assert evicted == 0
        assert list(cache.keys()) == [1, 2, 3]  # oldest first

    def test_put_many_single_eviction_pass_and_count(self):
        instr = Instrumentation()
        cache = WorkstationCache(capacity=3, instrumentation=instr)
        cache.put(0, "zero")
        evicted = cache.put_many([(1, "a"), (2, "b"), (3, "c"), (4, "d")])
        assert evicted == 2
        assert cache.stats.evictions == 2
        assert instr.counters.get("netsim.cache.eviction") == 2
        # LRU survivors are the newest suffix of the admission.
        assert list(cache.keys()) == [2, 3, 4]

    def test_put_many_larger_than_capacity_keeps_its_own_tail(self):
        cache = WorkstationCache(capacity=2)
        evicted = cache.put_many([(i, i) for i in range(5)])
        assert evicted == 3
        assert list(cache.keys()) == [3, 4]

    def test_put_many_refreshes_recency_of_existing_keys(self):
        cache = WorkstationCache(capacity=8)
        cache.put(1, "one")
        cache.put(2, "two")
        cache.put_many([(1, "one'")])
        assert list(cache.keys()) == [2, 1]
        assert cache.get(1) == "one'"

    def test_get_many_promotes_each_hit_exactly_once(self):
        cache = WorkstationCache(capacity=8)
        for key in (1, 2, 3):
            cache.put(key, key)
        found, missing = cache.get_many([1, 1, 3, 1])
        assert found == {1: 1, 3: 3}
        assert missing == []
        assert cache.stats.hits == 2  # duplicates are one lookup
        # Recency order reflects single promotion in request order.
        assert list(cache.keys()) == [2, 1, 3]

    def test_fetch_many_admits_misses_in_server_reply_order(self):
        db, gen, _instr = _build(levels=2, pushdown=False)
        try:
            db.close()
            db.open()
            root = db.lookup(gen.root_uid)
            kids = db.children(root)
            db.cache.clear()
            # One batch RPC; the reply preserves first-seen request
            # order, and put_many admits it verbatim.
            db.children_many(list(reversed(kids)))
            assert list(db.cache.keys()) == list(reversed(kids))
        finally:
            db.close()


# ----------------------------------------------------------------------
# 5. Invalidation coherence for push-down admissions
# ----------------------------------------------------------------------


class TestInvalidationVsPushdown:
    def _pair(self, levels=2):
        alice, gen, _ = _build(levels=levels)
        bob = ClientServerDatabase(
            server=alice.server, instrumentation=Instrumentation()
        )
        bob.open()
        return alice, bob, gen

    def test_store_evicts_records_admitted_via_traverse(self):
        alice, bob, gen = self._pair()
        try:
            root = bob.lookup(gen.root_uid)
            Operations(bob).closure_1n(root)  # push-down warms bob
            victim = gen.uids_by_level[1][0]
            assert victim in bob.cache
            alice.set_attribute(alice.lookup(victim), "ten", 7)
            alice.commit()  # coherence broadcast
            assert victim not in bob.cache
            assert bob.get_attribute(victim, "ten") == 7
        finally:
            bob.close()
            alice.close()

    def test_store_evicts_records_admitted_via_readahead(self):
        alice, bob, gen = self._pair()
        try:
            parent = gen.uids_by_level[1][0]
            bob.get_attribute(parent, "ten")  # readahead admits kids
            child = bob.children(parent)[0]
            assert child in bob.cache
            alice.set_attribute(alice.lookup(child), "hundred", 55)
            alice.commit()
            assert child not in bob.cache
            assert bob.get_attribute(child, "hundred") == 55
        finally:
            bob.close()
            alice.close()


# ----------------------------------------------------------------------
# 6. Fault retry without double admission
# ----------------------------------------------------------------------


class _ScriptedFaults:
    """Duck-typed fault model: a fixed per-request fault script."""

    def __init__(self, script, timeout_seconds=0.05):
        self.script = list(script)
        self.timeout_seconds = timeout_seconds

    def next_fault(self):
        return self.script.pop(0) if self.script else None

    def raise_fault(self, kind, request):
        if kind == "drop":
            raise RpcDroppedError(f"scripted drop of {request}")
        raise RpcTimeoutError(f"scripted timeout of {request}")


class TestFaultedTraverse:
    @pytest.mark.parametrize("kind", ["drop", "timeout"])
    def test_faulted_traverse_retries_without_double_admitting(self, kind):
        db, gen, instr = _build(levels=3)
        try:
            db.close()
            db.open()
            root = db.lookup(gen.root_uid)
            db.server.fault_model = _ScriptedFaults([kind])
            before = instr.snapshot()
            result = Operations(db).closure_1n(root)
            delta = instr.delta_since(before)
            assert len(result) == 156
            assert delta.get("backend.rpc.retries", 0) == 1
            assert delta.get(f"backend.rpc.faults.{kind}", 0) == 1
            # The whole verb retried: one successful push-down, every
            # record admitted exactly once, nothing evicted by a
            # duplicate admission.
            assert delta.get("backend.rpc.pushdown.calls", 0) == 1
            assert delta.get("cache.readahead.admitted", 0) == 156
            assert delta.get("netsim.cache.eviction", 0) == 0
            assert len(db.cache) == 156
        finally:
            db.server.fault_model = None
            db.close()

    def test_faulted_readahead_retries_without_double_admitting(self):
        db, gen, instr = _build(levels=2)
        try:
            db.close()
            db.open()
            uid = db.lookup(gen.uids_by_level[1][0])
            db.server.fault_model = _ScriptedFaults(["drop"])
            before = instr.snapshot()
            db.get_attribute(uid, "ten")
            delta = instr.delta_since(before)
            assert delta.get("backend.rpc.retries", 0) == 1
            assert delta.get("cache.readahead.requests", 0) == 1
            admitted = delta.get("cache.readahead.admitted", 0)
            assert admitted == len(db.cache)
            assert delta.get("netsim.cache.eviction", 0) == 0
        finally:
            db.server.fault_model = None
            db.close()


# ----------------------------------------------------------------------
# 7. The benchmark comparison and the mode-tagged gate cells
# ----------------------------------------------------------------------


class TestBenchComparison:
    @pytest.mark.parametrize("level", [2, 3, 4])
    def test_pushdown_beats_bfs_on_simulated_time_per_node(self, level):
        document = run_closure_bench(
            backends=("clientserver",),
            level=level,
            repetitions=1,
            compare_pushdown=True,
        )
        cells = document["cells"]
        assert set(cells) == {"clientserver", "clientserver-bfs"}
        for op_id in ("10", "11", "12"):
            push = cells["clientserver"][op_id]
            bfs = cells["clientserver-bfs"][op_id]
            assert push["mode"] == "pushdown"
            assert bfs["mode"] == "bfs"
            assert push["nodes"] == bfs["nodes"]
            assert 0 < push["sim_ms_per_node"] < bfs["sim_ms_per_node"], (
                f"level {level} op {op_id}: pushdown "
                f"{push['sim_ms_per_node']} >= bfs {bfs['sim_ms_per_node']}"
            )

    def test_mode_tagged_cells_reach_the_bench_diff_gate(self):
        document = run_closure_bench(
            backends=("clientserver",),
            level=2,
            repetitions=1,
            compare_pushdown=True,
        )
        keys = set(extract_cells(document))
        assert ("clientserver", "10", "pushdown") in keys
        assert ("clientserver-bfs", "10", "bfs") in keys

    def test_legacy_documents_keep_the_closure_mode(self):
        legacy = {
            "cells": {
                "memory": {"10": {"median_ms": 1.0, "p50_ms": 1.0}}
            }
        }
        assert set(extract_cells(legacy)) == {("memory", "10", "closure")}
