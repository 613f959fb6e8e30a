"""Integration matrix: every workload runs on every system.

Tiny-scale runs that catch cross-cutting regressions (a protocol change
breaking one workload shape, a workload change breaking one baseline).
"""

import pytest

from repro.bench import Bench
from repro.bench.golden import MATRIX_SYSTEMS, matrix_workload


@pytest.mark.parametrize("system", MATRIX_SYSTEMS)
@pytest.mark.parametrize("workload", ("tpcc_no", "tpcc", "retwis", "smallbank"))
def test_matrix(system, workload):
    bench = Bench(system, matrix_workload(workload), n_nodes=3)
    r = bench.measure(3, warmup_us=60, window_us=200)
    assert r.commits > 0, "%s/%s made no progress" % (system, workload)
    assert r.median_latency_us > 0 or r.throughput_per_server == 0
    # protocol plumbing sanity: no misrouted responses or acks (in-flight
    # transactions legitimately hold locks while the closed loop runs, so
    # lock state is not checked here)
    if system == "xenic":
        for proto in bench.cluster.protocols:
            assert proto.stats.get("stray_responses") == 0
            assert proto.stats.get("stray_done") == 0
            assert proto.stats.get("stray_log_acks") == 0
