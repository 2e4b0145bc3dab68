"""The section-7 parallel multi-user loads over one shared server."""

import pytest

from repro.backends.clientserver import ClientServerDatabase
from repro.concurrency.multiuser import MultiUserHarness
from repro.core.config import HyperModelConfig
from repro.core.generator import DatabaseGenerator
from repro.netsim.server import ObjectServer


@pytest.fixture
def shared_server():
    server = ObjectServer()
    loader = ClientServerDatabase(server=server)
    loader.open()
    gen = DatabaseGenerator(HyperModelConfig(levels=3, seed=17)).generate(loader)
    loader.commit()
    loader.close()
    return server, gen


class TestReadLoad:
    def test_single_user_baseline(self, shared_server):
        server, gen = shared_server
        result = MultiUserHarness(server, gen, users=1).run_read_mix(
            operations_per_user=20
        )
        assert result.total_operations == 20
        assert result.server_seconds > 0
        assert len(result.per_user_cache_hit_ratio) == 1

    def test_more_users_more_server_time(self, shared_server):
        server, gen = shared_server
        one = MultiUserHarness(server, gen, users=1, seed=3).run_read_mix(
            operations_per_user=20
        )
        four = MultiUserHarness(server, gen, users=4, seed=3).run_read_mix(
            operations_per_user=20
        )
        # The shared server serializes requests: total time grows with
        # users (R6's centralized-control cost) ...
        assert four.server_seconds > one.server_seconds
        # ... while aggregate throughput stays in the same ballpark
        # (each user's working set caches independently).
        assert four.total_operations == 80

    def test_caches_warm_up_per_user(self, shared_server):
        server, gen = shared_server
        result = MultiUserHarness(server, gen, users=2).run_read_mix(
            operations_per_user=40
        )
        for hit_ratio in result.per_user_cache_hit_ratio:
            assert hit_ratio > 0.3  # repeated inputs hit the cache

    def test_deterministic_for_seed(self, shared_server):
        server, gen = shared_server
        first = MultiUserHarness(server, gen, users=2, seed=9).run_read_mix(
            operations_per_user=10
        )
        second = MultiUserHarness(server, gen, users=2, seed=9).run_read_mix(
            operations_per_user=10
        )
        assert first.server_seconds == pytest.approx(second.server_seconds)


class TestUpdateLoad:
    def test_disjoint_edits_all_visible_everywhere(self, shared_server):
        server, gen = shared_server
        result = MultiUserHarness(
            server, gen, users=3, seed=1990
        ).run_disjoint_updates(edits_per_user=2)
        assert result.total_edits == 6
        assert result.all_edits_visible_everywhere

    def test_assignments_are_disjoint(self, shared_server):
        server, gen = shared_server
        result = MultiUserHarness(
            server, gen, users=4, seed=1990
        ).run_disjoint_updates(edits_per_user=2)
        seen = set()
        for uids in result.published.values():
            for uid in uids:
                assert uid not in seen
                seen.add(uid)

    def test_too_many_users_rejected(self, shared_server):
        server, gen = shared_server
        with pytest.raises(ValueError):
            MultiUserHarness(
                server, gen, users=200, seed=1990
            ).run_disjoint_updates(edits_per_user=10)
