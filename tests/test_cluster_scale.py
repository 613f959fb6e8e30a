"""Cluster construction and scale pins.

Building and bulk-loading a large cluster must stay cheap: no events
scheduled, per-node state independent of cluster size, and the bulk
load's per-shard backup cache must not change what lands where.  The
64-node perf bench pins the quick-mode budget end to end.
"""

from repro.core.cluster import XenicCluster
from repro.sim.core import Simulator


def test_construction_is_event_free_and_linear():
    """Cluster construction + bulk load at 64 nodes schedules no events
    and allocates per-node state independent of cluster size (tables
    per node == replication factor, one port and one handler per node)."""
    sim = Simulator()
    cluster = XenicCluster(sim, 64, keys_per_shard=64)
    cluster.load_keys(range(64 * 32))
    assert sim.events_scheduled == 0
    assert len(cluster.nodes) == 64
    rf = cluster.config.replication_factor
    assert all(len(n.tables) == rf for n in cluster.nodes)
    assert len(cluster.fabric._handlers) == 64
    assert len(cluster.fabric._ports) == 64
    # every key landed on exactly rf replicas
    total = sum(t.size for n in cluster.nodes for t in n.tables.values())
    assert total == 64 * 32 * rf


def test_load_key_backups_cached_once_per_shard():
    """The bulk-load fast path computes each shard's backup list once,
    and the cache changes nothing about what gets loaded where or in
    what order (Robinhood layout is insert-order sensitive)."""
    n, keys = 8, 256
    sim = Simulator()
    fast = XenicCluster(sim, n, keys_per_shard=64)
    calls = []
    orig = fast.backups_of
    fast.backups_of = lambda shard: (calls.append(shard), orig(shard))[1]
    fast.load_keys(range(keys))
    assert len(calls) == n  # once per shard, not once per key
    # reference: same load with the cache bypassed (non-empty failed set
    # forces the uncached path; no node id 999 exists so placement is
    # unchanged)
    ref = XenicCluster(Simulator(), n, keys_per_shard=64)
    ref.failed.add(999)
    ref.load_keys(range(keys))
    for a, b in zip(fast.nodes, ref.nodes):
        for shard in a.tables:
            akeys = [o.key for o in a.tables[shard].objects()]
            bkeys = [o.key for o in b.tables[shard].objects()]
            assert akeys == bkeys


def test_nodes64_bench_completes_quick():
    """The 64-node scale bench finishes a quick-mode point and reports
    commits (the quick budget gate: construction, load, and window all
    complete without timeout at scale)."""
    from repro.bench.perf import _bench_nodes64

    wall, events, commits = _bench_nodes64(True)
    assert commits > 0
    assert events > 0
    assert wall < 60.0
