"""One server verb surface, and one walk behind its push-down verbs.

* Conformance: :class:`ObjectServer`, :class:`ShardRouter` and
  :class:`ReplicaRouter` each implement every
  :class:`~repro.netsim.server.ServerVerbs` member with the declared
  signature, and reject what the surface does not understand.
* The walk: ``traverse`` and ``readahead`` agree with a plain reference
  BFS on random small record graphs drawn from the boundary populations
  the HyperModel generator never produces (Proper, *Generating
  Significant Examples for Conceptual Schema Validation*): self
  references, reference cycles, parts shared across levels, empty
  subtrees and dangling edge targets.  Hash-sharded deployments return
  the same record sets.
"""

import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import InvalidOperationError
from repro.netsim.config import ReplicationConfig, ShardConfig
from repro.netsim.server import ObjectServer, ServerStats, ServerVerbs
from repro.replication.group import ReplicationGroup
from repro.replication.router import ReplicaRouter
from repro.sharding.router import ShardRouter

VERBS = sorted(
    name
    for name, value in vars(ServerVerbs).items()
    if inspect.isfunction(value)
    and (not name.startswith("_") or name == "__contains__")
)
ATTRIBUTES = sorted(ServerVerbs.__annotations__)
SURFACES = [ObjectServer, ShardRouter, ReplicaRouter]


def _record(uid, children=(), parts=(), refs=()):
    return {
        "uid": uid,
        "kind": "node",
        "ten": uid % 10,
        "hundred": uid % 100,
        "million": uid,
        "struct": 1,
        "children": list(children),
        "parent": 0,
        "parts": list(parts),
        "partOf": [],
        "refTo": [[dst, 0, 0] for dst in refs],
        "refFrom": [],
    }


def _deploy(surface, records):
    """A loaded instance of one surface."""
    if surface is ObjectServer:
        server = ObjectServer()
    elif surface is ShardRouter:
        server = ShardRouter(ShardConfig(shards=2))
    else:
        server = ReplicaRouter(ReplicationGroup(ReplicationConfig(replicas=1)))
    server.load_records(records)
    return server


def _shape(function):
    """A signature without annotations: names, kinds and defaults."""
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(function).parameters.values()
    ]


# ----------------------------------------------------------------------
# Conformance
# ----------------------------------------------------------------------


class TestConformance:
    def test_the_surface_lists_the_push_down_verbs(self):
        assert {"fetch", "fetch_many", "traverse", "readahead"} <= set(VERBS)
        assert ATTRIBUTES == ["clock", "stats", "wal"]

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.__name__)
    def test_every_verb_has_the_declared_signature(self, surface):
        for name in VERBS:
            assert _shape(getattr(surface, name)) == _shape(
                getattr(ServerVerbs, name)
            ), name

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.__name__)
    def test_every_attribute_is_present(self, surface):
        server = _deploy(surface, {1: _record(1)})
        for name in ATTRIBUTES:
            assert hasattr(server, name), name
        assert isinstance(server.stats, ServerStats)

    @pytest.mark.parametrize("surface", SURFACES, ids=lambda s: s.__name__)
    def test_bad_relation_and_removed_parameters_are_rejected(
        self, surface
    ):
        server = _deploy(surface, {1: _record(1, children=[2]), 2: _record(2)})
        with pytest.raises(InvalidOperationError):
            server.traverse(1, "parent")
        for removed in ({"direction": "forward"}, {"with_records": True}):
            with pytest.raises(TypeError):
                server.traverse(1, "children", **removed)
        assert list(server.traverse(1, "children")) == [1, 2]


# ----------------------------------------------------------------------
# The walk against a reference BFS
# ----------------------------------------------------------------------

#: Edge targets no record holds.
DANGLING = (900, 901)
ADJACENCY = {
    "children": lambda record: record["children"],
    "parts": lambda record: record["parts"],
    "refTo": lambda record: [dst for dst, _f, _t in record["refTo"]],
}


def _structural(record):
    return record["children"] + record["parts"]


def _reference_bfs(records, seeds, adjacency, depth):
    """Level-by-level BFS: each record once, at its first level."""
    order = []
    for uid in seeds:
        if uid in records and uid not in order:
            order.append(uid)
    frontier = list(order)
    level = 0
    while frontier and (depth is None or level < depth):
        found = []
        for uid in frontier:
            for adj in adjacency(records[uid]):
                if adj in records and adj not in order:
                    order.append(adj)
                    found.append(adj)
        frontier = found
        level += 1
    return order


@st.composite
def record_graphs(draw):
    size = draw(st.integers(min_value=1, max_value=10))
    uids = list(range(1, size + 1))
    targets = st.sampled_from(uids + list(DANGLING))
    edges = st.lists(targets, max_size=4)
    return {
        uid: _record(
            uid,
            children=draw(edges),
            parts=draw(edges),
            refs=draw(edges),
        )
        for uid in uids
    }


#: One graph with every boundary population at once: an empty subtree
#: (4), a self reference (2), a reference cycle (1 -> 3 -> 1), a part
#: shared across levels (5 under 1 and 3) and dangling targets.
BOUNDARY = {
    1: _record(1, children=[2, 3], parts=[5], refs=[3, 900]),
    2: _record(2, children=[4], refs=[2]),
    3: _record(3, children=[901], parts=[5], refs=[1]),
    4: _record(4),
    5: _record(5, parts=[900]),
}

depths = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
limits = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
seed_lists = st.lists(
    st.sampled_from(list(range(1, 11)) + list(DANGLING)), max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    records=record_graphs(),
    depth=depths,
    limit=limits,
    pick=st.integers(min_value=0, max_value=99),
    seeds=seed_lists,
)
@example(records=BOUNDARY, depth=None, limit=None, pick=0, seeds=[2, 900, 1])
@example(records=BOUNDARY, depth=1, limit=3, pick=2, seeds=[3, 3, 4])
def test_walk_matches_a_reference_bfs(records, depth, limit, pick, seeds):
    uids = list(records)
    server = ObjectServer()
    server.load_records(records)
    sharded = [
        ShardRouter(ShardConfig(shards=shards, placement="hash"))
        for shards in (2, 3)
    ]
    for router in sharded:
        router.load_records(records)

    for offset, (relation, adjacency) in enumerate(ADJACENCY.items()):
        root = uids[(pick + offset) % len(uids)]
        expected = _reference_bfs(records, [root], adjacency, depth)
        reply = server.traverse(root, relation, depth=depth, limit=limit)
        assert list(reply) == expected[:limit]
        assert all(reply[uid] == records[uid] for uid in reply)
        for router in sharded:
            spread = router.traverse(root, relation, depth=depth)
            assert set(spread) == set(expected)
            assert all(spread[uid] == records[uid] for uid in spread)

    ahead = 1 if depth is None else depth
    expected = _reference_bfs(records, seeds, _structural, ahead)
    reply = server.readahead(seeds, depth=ahead, limit=limit)
    assert list(reply) == expected[:limit]
    assert all(reply[uid] == records[uid] for uid in reply)
    for router in sharded:
        assert set(router.readahead(seeds, depth=ahead)) == set(expected)
