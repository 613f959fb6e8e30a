"""Workloads, measurement loop, output checks and metrics of the benchmark.

One *rep* builds a :class:`repro.bench.runner.Bench` (timed as
``setup_s``), runs one closed-loop ``Bench.measure`` (timed as
``run_s``), reads the program's public counters before and after, and
checks the outputs.  A run repeats reps of one workload until its time
is used up and reports medians.  A traced run alternates untraced and
traced reps (see ``tracer.py``) and reports the per-layer metrics.

Every rep is one attempted operation.  It fails if it raises or fails a
check: no commits, a Smallbank balance out of range, or simulated
outputs that differ from another rep of the same workload and seed,
in this process or in an earlier run of the same source tree.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.runner import Bench
from repro.sim.compiled import (compiled_active, compiled_available,
                                selected_compiled)
from repro.sim.equeue import selected_queue_kind
from repro.sim.fusion import selected_fusion
from repro.workloads import Retwis, Smallbank

from tracer import ROOT_LAYER, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

# Seed used while developing the benchmark and any change measured on
# it; HELD_OUT_SEED is kept back to confirm a claim (see README.md).
DEV_SEED = 1
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: system, traffic, scale and run length."""

    name: str
    system: str  # "xenic" or a baseline name from repro.baselines.SYSTEMS
    traffic: str  # "smallbank" or "retwis"
    n_nodes: int
    keys_per_server: int  # Smallbank accounts or Retwis keys per server
    contexts: int  # closed-loop coordinator contexts per node
    warmup_us: float  # simulated
    window_us: float  # simulated
    min_reps: int

    def make_workload(self, seed: int):
        if self.traffic == "smallbank":
            return Smallbank(self.n_nodes,
                             accounts_per_server=self.keys_per_server,
                             hot_keys_fraction=0.25, seed=seed)
        return Retwis(self.n_nodes, keys_per_server=self.keys_per_server,
                      seed=seed)


WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec("xenic_smallbank", "xenic", "smallbank", 3, 2000, 64,
                 50.0, 150.0, 3),
    # commits vary most with the seed here, so the window is longer
    WorkloadSpec("xenic_retwis", "xenic", "retwis", 3, 2000, 64,
                 50.0, 300.0, 3),
    WorkloadSpec("drtmh_smallbank", "drtmh", "smallbank", 3, 2000, 64,
                 50.0, 150.0, 3),
    # a rep takes about 9 s here, and twice that when the machine is slow
    WorkloadSpec("xenic_smallbank_256n", "xenic", "smallbank", 256, 250, 2,
                 20.0, 30.0, 2),
)}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "txn_per_s": "txn/s",
                    "peak_rss_mb": "MB"}


# -- counters and checks ------------------------------------------------------


def read_counters(bench: Bench, xenic: bool) -> Dict[str, float]:
    """Public counters of every layer, summed over the cluster."""
    protos = bench.cluster.protocols
    c = {key: sum(p.stats.get(key) for p in protos)
         for key in ("commits", "aborts", "requests_sent", "nic_executions",
                     "host_executions", "log_backpressure",
                     "lock_conflicts")}
    c["events"] = bench.sim.events_scheduled
    for key in ("dma_ops", "dma_vectors", "eth_msgs", "eth_bytes",
                "eth_packets", "log_appends", "nic_hits", "nic_misses",
                "nic_evictions", "rdma_bytes", "rdma_retries"):
        c[key] = 0
    for node in bench.cluster.nodes:
        if xenic:
            c["dma_ops"] += node.nic.dma.ops_submitted
            c["dma_vectors"] += node.nic.dma.vectors_submitted
            c["eth_msgs"] += node.nic.port.messages_sent
            c["eth_bytes"] += node.nic.port.bytes_sent
            c["eth_packets"] += node.nic.port.packets_received
            c["log_appends"] += node.log.appended
            for index in node.indexes.values():
                c["nic_hits"] += index.hits
                c["nic_misses"] += index.misses
                c["nic_evictions"] += index.evictions
        else:
            c["rdma_bytes"] += node.rdma.wire_bytes
            c["rdma_retries"] += node.rdma.retries
    return c


def check_outputs(spec: WorkloadSpec, bench: Bench, workload,
                  commits: int) -> List[str]:
    """Problems with one rep's outputs; empty when they are correct."""
    problems = []
    if commits <= 0:
        problems.append("no transaction committed")
    if spec.traffic == "smallbank":
        # Savings balances only grow (transact_savings) or are zeroed
        # (amalgamate).  Checking balances may go below zero: write_check
        # debits without a funds check and charges an overdraft fee, as in
        # the H-Store Smallbank mix, so they are checked for type only.
        read = bench.cluster.read_committed_value
        for customer in range(workload.total_accounts):
            checking = read(workload.checking_key(customer))
            savings = read(workload.savings_key(customer))
            if type(checking) is not int or type(savings) is not int:
                problems.append("customer %d: non-integer balance %r/%r"
                                % (customer, checking, savings))
            elif savings < 0:
                problems.append("customer %d: negative savings %d"
                                % (customer, savings))
            if len(problems) > 5:
                break
    return problems


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- one rep ------------------------------------------------------------------


@dataclass
class Rep:
    setup_s: float
    run_s: float
    commits: int  # during the whole measure (warm-up + window)
    sim: Dict[str, float]  # simulated outputs and counts; must repeat
    problems: List[str]
    self_s: Optional[Dict[str, float]] = None  # traced reps only
    setup_spans: Optional[Dict[str, float]] = None
    tracer: Optional[Tracer] = None


def run_rep(spec: WorkloadSpec, seed: int, traced: bool = False) -> Rep:
    gc.collect()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        workload = spec.make_workload(seed)
        t0 = time.perf_counter()
        bench = Bench(spec.system, workload, n_nodes=spec.n_nodes)
        setup_s = time.perf_counter() - t0
        xenic = spec.system == "xenic"
        before = read_counters(bench, xenic)
        kwargs = {"warmup_us": spec.warmup_us, "window_us": spec.window_us}
        if tracer is None:
            t0 = time.perf_counter()
            result = bench.measure(spec.contexts, **kwargs)
            run_s = time.perf_counter() - t0
        else:
            lo = tracer.span_count()
            root = tracer.intern("Bench.measure", ROOT_LAYER)
            t0 = time.perf_counter()
            result = tracer.call(root, ROOT_LAYER, bench.measure,
                                 (spec.contexts,), kwargs)
            run_s = time.perf_counter() - t0
            hi = tracer.span_count()
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = read_counters(bench, xenic)
    d = {key: after[key] - before[key] for key in after}
    sim = simulated_outputs(d, result, xenic)
    rep = Rep(setup_s, run_s, d["commits"], sim,
              check_outputs(spec, bench, workload, d["commits"]))
    if tracer is not None:
        rep.tracer = tracer
        rep.self_s = tracer.self_times(lo, hi)
        rep.sim["sim.queue_peak"] = tracer.queue_peak
        rep.sim["workloads.specs"] = tracer.count("SpecStream.next", lo, hi)
        cluster_cls = type(bench.cluster).__name__
        rep.setup_spans = {
            "core.cluster_build_s": sum(tracer.durations(
                cluster_cls + ".__init__", 0, lo)),
            "workloads.load_s": sum(tracer.durations(
                type(workload).__name__ + ".load", 0, lo)),
        }
    return rep


def simulated_outputs(d: Dict[str, float], result, xenic: bool
                      ) -> Dict[str, float]:
    """Per-layer counts and ``bench.sim_*``: deterministic per seed."""
    commits = d["commits"]
    attempts = commits + d["aborts"]
    reasons = result.abort_reasons
    extra = result.extra
    out = {
        "bench.sim_tput_per_server": result.throughput_per_server,
        "bench.sim_p50_us": result.median_latency_us,
        "bench.sim_p99_us": result.p99_latency_us,
        "bench.sim_abort_ratio": ratio(
            result.aborts, result.commits + result.aborts),
        "bench.window_commits": result.commits,
        "bench.window_aborts": result.aborts,
        "commits": commits,
        "aborts": d["aborts"],
        "sim.events": d["events"],
        "sim.events_per_txn": ratio(d["events"], commits),
        "core.commit_ratio": ratio(commits, attempts) if xenic else 0.0,
        "core.aborts.lock": sum(
            n for r, n in reasons.items() if "conflict" in r) if xenic else 0,
        "core.aborts.validate": sum(
            n for r, n in reasons.items()
            if "validate" in r or "version" in r) if xenic else 0,
        "core.requests_per_txn": ratio(d["requests_sent"], commits),
        "core.nic_exec_share": ratio(
            d["nic_executions"], d["nic_executions"] + d["host_executions"]),
        "core.log_backpressure": d["log_backpressure"],
        "store.nic_hit_rate": ratio(
            d["nic_hits"], d["nic_hits"] + d["nic_misses"]),
        "store.nic_evictions": d["nic_evictions"],
        "store.log_appends_per_txn": ratio(d["log_appends"], commits),
        "hw.dma.ops_per_txn": ratio(d["dma_ops"], commits),
        "hw.dma.ops_per_vector": ratio(d["dma_ops"], d["dma_vectors"]),
        "hw.eth.msgs_per_packet": ratio(d["eth_msgs"], d["eth_packets"]),
        "hw.eth.bytes_per_txn": ratio(d["eth_bytes"], commits),
        "hw.rdma.bytes_per_txn": ratio(d["rdma_bytes"], commits),
        "hw.rdma.retries": d["rdma_retries"],
        "hw.nic_core_util": extra.get("nic_core_util", 0.0),
        "hw.host_util": extra.get("host_app_util", extra.get("host_util")),
        "hw.worker_util": extra.get("worker_util", 0.0),
        "baselines.commit_ratio": 0.0 if xenic else ratio(commits, attempts),
        "baselines.lock_conflicts": 0 if xenic else d["lock_conflicts"],
    }
    return out


# -- provenance and cross-run identity ----------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's sources (``src/repro``)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".py", ".c")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, src: str) -> dict:
    """Where a result came from: commit, machine, seed and engine leg."""
    return {
        "git_sha": git_sha(),
        "source_sha256": src,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "leg": {
            "selected_compiled": selected_compiled(),
            "compiled_available": compiled_available(),
            "compiled_active": compiled_active(),
            "selected_queue_kind": selected_queue_kind(),
            "selected_fusion": selected_fusion(),
        },
    }


def sim_digest(sim: Dict[str, float]) -> str:
    return hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()).hexdigest()


def check_recorded_digest(key: str, digest: str, path: str) -> Optional[str]:
    """Compare with the digest an earlier run of the same source tree,
    workload and seed recorded; record it if there is none."""
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        if known[key] != digest:
            return ("simulated outputs differ from an earlier run of the "
                    "same sources and seed (%s)" % key)
        return None
    known[key] = digest
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


# -- a run --------------------------------------------------------------------


def run_workload(spec: WorkloadSpec, seed: int, seconds: float,
                 trace: bool, out_dir: str = OUT_DIR) -> dict:
    """Repeat reps of ``spec`` for about ``seconds``; return the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``) plus
    ``provenance``.  Digests of simulated outputs and the spans of the
    last traced rep are written under ``out_dir``."""
    src = source_digest()
    t_start = time.perf_counter()
    plain: List[Rep] = []
    traced: List[Rep] = []
    failed = 0
    attempted = 0
    reference: Optional[Dict[str, float]] = None
    durations: List[float] = []

    def attempt(with_trace: bool) -> None:
        nonlocal failed, attempted, reference
        attempted += 1
        if with_trace and traced:
            traced[-1].tracer = None  # keep only the newest rep's spans
        t0 = time.perf_counter()
        try:
            rep = run_rep(spec, seed, traced=with_trace)
        except Exception:  # noqa: BLE001 - a failed operation, counted
            traceback.print_exc()
            failed += 1
            return
        finally:
            durations.append(time.perf_counter() - t0)
        common = {k: v for k, v in rep.sim.items()
                  if k not in ("sim.queue_peak", "workloads.specs")}
        if reference is None:
            reference = common
            key = "%s/seed=%d/spec=%s/src=%s" % (
                spec.name, seed,
                hashlib.sha256(repr(spec).encode()).hexdigest()[:12], src)
            problem = check_recorded_digest(
                key, sim_digest(common),
                os.path.join(out_dir, "sim-digests.json"))
            if problem:
                rep.problems.append(problem)
        elif common != reference:
            diff = sorted(k for k in common if common[k] != reference.get(k))
            rep.problems.append("simulated outputs differ between reps of "
                                "one seed: %s" % ", ".join(diff[:8]))
        print("%s rep %d%s: setup_s %.4f run_s %.4f commits %d"
              " peak_rss_mb %.1f"
              % (spec.name, attempted, " traced" if with_trace else "",
                 rep.setup_s, rep.run_s, rep.commits, peak_rss_mb()))
        if rep.problems:
            failed += 1
            for p in rep.problems:
                print("FAILED %s rep %d: %s" % (spec.name, attempted, p))
            return
        (traced if with_trace else plain).append(rep)

    def time_for(reps_per_round: int) -> bool:
        elapsed = time.perf_counter() - t_start
        est = statistics.median(durations) * reps_per_round
        return elapsed + est <= seconds

    if not trace:
        attempt(False)
        # Later reps reuse the allocator's freed memory unevenly, so the
        # peak after the first rep is the steady measure of one rep's need.
        first_peak_mb = peak_rss_mb()
        while attempted < spec.min_reps or time_for(1):
            attempt(False)
    else:
        while attempted < 2 or time_for(2):
            attempt(False)
            attempt(True)

    metrics = (end_to_end_metrics(plain, first_peak_mb) if not trace
               else per_layer_metrics(plain, traced))
    result = {
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance(seed, src),
    }

    if trace and traced and traced[-1].tracer is not None:
        path = os.path.join(out_dir, "spans-%s.npz" % spec.name)
        traced[-1].tracer.dump(path, {"workload": spec.name, **result})
        result["provenance"]["spans_file"] = os.path.relpath(path, ROOT)
    return result


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss``, KiB on
    Linux).  A run is one process for one workload, so the peak is this
    workload's own."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(reps: List[Rep], peak_mb: float) -> Dict[str, dict]:
    values = {
        "setup_s": _median([r.setup_s for r in reps]),
        "run_s": _median([r.run_s for r in reps]),
        "txn_per_s": _median([r.commits / r.run_s for r in reps]),
        "peak_rss_mb": peak_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


PER_LAYER_UNITS = {
    "sim.self_s": "s", "sim.events": "count",
    "sim.events_per_txn": "events/txn",
    "sim.events_per_self_s": "events/s", "sim.queue_peak": "count",
    "core.self_s": "s", "core.host_us_per_txn": "us/txn",
    "core.commit_ratio": "ratio", "core.aborts.lock": "count",
    "core.aborts.validate": "count", "core.requests_per_txn": "req/txn",
    "core.nic_exec_share": "ratio", "core.log_backpressure": "count",
    "core.cluster_build_s": "s",
    "store.self_s": "s", "store.nic_hit_rate": "ratio",
    "store.nic_evictions": "count", "store.log_appends_per_txn": "appends/txn",
    "hw.self_s": "s", "hw.dma.ops_per_txn": "ops/txn",
    "hw.dma.ops_per_vector": "ops/vector",
    "hw.eth.msgs_per_packet": "msgs/pkt",
    "hw.eth.bytes_per_txn": "B/txn", "hw.rdma.bytes_per_txn": "B/txn",
    "hw.rdma.retries": "count", "hw.nic_core_util": "ratio",
    "hw.host_util": "ratio", "hw.worker_util": "ratio",
    "baselines.self_s": "s", "baselines.commit_ratio": "ratio",
    "baselines.lock_conflicts": "count",
    "workloads.self_s": "s", "workloads.specs": "count",
    "workloads.load_s": "s",
    "bench.sim_tput_per_server": "txn/s", "bench.sim_p50_us": "us",
    "bench.sim_p99_us": "us", "bench.sim_abort_ratio": "ratio",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.residual_s": "s",
}

LAYER_NAMES = ("sim", "core", "store", "hw", "baselines", "workloads")


def per_layer_metrics(plain: List[Rep], traced: List[Rep]
                      ) -> Dict[str, dict]:
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    if traced:
        first = traced[0]
        for name in values:
            if name in first.sim:
                values[name] = first.sim[name]
        for layer in LAYER_NAMES:
            values[layer + ".self_s"] = _median(
                [r.self_s[layer] for r in traced])
        for name in first.setup_spans:
            values[name] = _median([r.setup_spans[name] for r in traced])
        commits = first.commits
        values["core.host_us_per_txn"] = ratio(
            values["core.self_s"] * 1e6, commits)
        values["sim.events_per_self_s"] = ratio(
            first.sim["sim.events"], values["sim.self_s"])
        traced_run = _median([r.run_s for r in traced])
        values["trace.run_s"] = traced_run
        values["trace.overhead_s"] = traced_run - _median(
            [r.run_s for r in plain])
        values["trace.residual_s"] = _median(
            [r.run_s - sum(r.self_s[layer] for layer in LAYER_NAMES)
             for r in traced])
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
            for k, v in values.items()}
