"""Self-tests of the benchmark, on short runs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os

import pytest

import harness
import run
from tracer import LAYERS, Tracer

ROOT = os.path.dirname(harness.HERE)

# Two contexts per node and a few simulated microseconds keep each rep
# well under a second while still exercising every layer.
SHORT = {"contexts": 4, "warmup_us": 10.0, "window_us": 20.0, "min_reps": 1}
SHORT_256N = {"n_nodes": 16, "warmup_us": 10.0, "window_us": 10.0,
              "min_reps": 1}


def short(name):
    extra = SHORT_256N if name == "xenic_smallbank_256n" else SHORT
    return dataclasses.replace(harness.WORKLOADS[name], **extra)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_simulated_outputs_repeat_per_seed_and_differ_across_seeds(name):
    spec = short(name)
    first = harness.run_rep(spec, harness.DEV_SEED)
    second = harness.run_rep(spec, harness.DEV_SEED)
    other = harness.run_rep(spec, harness.HELD_OUT_SEED)
    assert first.problems == [] and second.problems == []
    assert first.commits > 0
    assert first.sim == second.sim
    assert first.sim != other.sim


@pytest.mark.parametrize("name", ["xenic_smallbank", "drtmh_smallbank"])
def test_tracing_is_neutral_and_accounts_for_run_time(name):
    spec = short(name)
    plain = harness.run_rep(spec, harness.DEV_SEED)
    traced = harness.run_rep(spec, harness.DEV_SEED, traced=True)
    common = {k: v for k, v in traced.sim.items() if k in plain.sim}
    assert common == plain.sim
    assert traced.sim["sim.queue_peak"] > 0
    assert traced.sim["workloads.specs"] > 0
    layers = sum(traced.self_s[layer] for layer in harness.LAYER_NAMES)
    assert abs(traced.run_s - layers) < 0.05 * traced.run_s
    for layer in ("sim", "hw", "workloads"):
        assert traced.self_s[layer] > 0


def test_tracer_restores_every_patched_method():
    import importlib

    def snapshot():
        out = {}
        for modules in LAYERS.values():
            for modname in modules:
                module = importlib.import_module(modname)
                for cls in vars(module).values():
                    if isinstance(cls, type) and cls.__module__ == modname:
                        out[cls] = dict(vars(cls))
        return out

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before


def test_recorded_digest_detects_a_change(tmp_path):
    path = str(tmp_path / "digests.json")
    assert harness.check_recorded_digest("k", "a", path) is None
    assert harness.check_recorded_digest("k", "a", path) is None
    assert harness.check_recorded_digest("k", "b", path) is not None


@pytest.mark.parametrize("trace", [0, 1])
def test_every_benchmark_metric_is_printed(trace, tmp_path, monkeypatch,
                                           capsys):
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    assert names and set(names) <= set(harness.WORKLOADS)
    monkeypatch.setitem(harness.WORKLOADS, "xenic_smallbank",
                        short("xenic_smallbank"))
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "xenic_smallbank", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("git_sha", "cpu", "nproc", "python", "seed", "leg"):
        assert key in provenance
