"""The benchmark's own tests: tiny smoke runs, tracer restore, seeds.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``
(about a minute; each smoke run spawns fresh processes).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import tracer as tracer_mod
from perfbench.run import ROOT, WORKLOAD_NAMES
from perfbench.tracer import TARGETS, Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke(workload, trace):
    proc = run_bench(
        "--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0",
        "--trace", trace, "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "end_to_end" if trace == "0" else "per_layer"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "# cache at start of every repetition: cold" in proc.stdout


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench("--workload", "fleet_cold", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bindings():
    """Every repro module attribute and class attribute a target names."""
    found = {}
    for target in TARGETS:
        holder, original = tracer_mod._resolve(target.module, target.owner, target.attr)
        found[(id(holder), target.attr)] = vars(holder)[target.attr]
        if target.owner is None:
            for module, attr in tracer_mod._import_sites(original):
                found[(id(module), attr)] = original
    return found


def test_tracer_wraps_every_site_and_restores_them():
    import repro.fleet.shard as shard

    before = _bindings()
    original_trace = shard.generate_trace
    tracer = Tracer()
    tracer.install()
    try:
        assert shard.generate_trace is not original_trace
        workload = WORKLOADS["fleet_churn"]
        inputs = workload.setup(DEFAULT_SEED, "tiny")
        tracer.reset()
        workload.run(inputs)
        assert tracer.missing_calls("fleet_churn") == []
        assert tracer.stats["trace"].calls == 1
        assert tracer.stats["engine"].calls >= 1
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert shard.generate_trace is original_trace
    after = _bindings()
    originals = {id(value) for value in before.values()}
    assert all(after[key] is value for key, value in before.items())
    # Modules the run imported while wrapped hold originals too.
    assert all(id(value) in originals for value in after.values())


def test_tracer_self_times_add_up_to_root_time():
    tracer = Tracer()
    tracer.install()
    try:
        workload = WORKLOADS["fleet_cold"]
        inputs = workload.setup(DEFAULT_SEED, "tiny")
        tracer.reset()
        workload.run(inputs)
    finally:
        tracer.uninstall()
    assert tracer.self_time_s() == pytest.approx(tracer.root_s, rel=1e-6)


def test_coverage_falls_when_a_costly_layer_is_unwrapped():
    def coverage(targets):
        tracer = Tracer(targets=targets)
        tracer.install()
        try:
            workload = WORKLOADS["fleet_churn"]
            inputs = workload.setup(DEFAULT_SEED, "tiny")
            tracer.reset()
            start = time.process_time()
            workload.run(inputs)
            elapsed = time.process_time() - start
        finally:
            tracer.uninstall()
        return tracer.self_time_s() / elapsed

    assert coverage(TARGETS) > 0.8
    without_cells = tuple(t for t in TARGETS if t.name not in ("cell", "engine"))
    assert coverage(without_cells) < 0.5


def test_seed_round_trip():
    churn = WORKLOADS["fleet_churn"]
    config, cell_servers = churn.setup(11, "tiny")
    assert churn.setup(11, "tiny") == (config, cell_servers)
    assert config.seed == 11
    assert churn.setup(12, "tiny")[0].seed == 12
    assert WORKLOADS["fleet_cold"].setup(11, "tiny")[0].seed == DEFAULT_SEED
    assert WORKLOADS["sweep_fig13"].setup(11, "tiny")[1].seed_root == 11


def test_seed_reaches_the_repetition():
    def simulated(seed):
        proc = run_bench(
            "--workload", "fleet_churn", "--seed", str(seed), "--seconds", "0",
            "--scale", "tiny",
        )
        assert proc.returncode == 0, proc.stderr
        assert "1 default-seed check" in proc.stdout
        return [line for line in proc.stdout.splitlines() if line.startswith("# simulated")]

    assert simulated(12) != simulated(DEFAULT_SEED)
