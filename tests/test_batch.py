"""Batch sweep runner and the keyed operating-point cache."""

import dataclasses
import json
import os
from types import SimpleNamespace

import pytest

from repro.api import measure
from repro.config import ServerConfig
from repro.core.consolidation import ConsolidationScheduler
from repro.guardband import GuardbandMode
from repro.sim.batch import (
    SweepRunner,
    SweepTask,
    core_scaling_tasks,
    default_runner,
    derive_seed,
    set_default_runner,
)
from repro.sim.cache import (
    OperatingPointCache,
    decode_steady_state,
    encode_steady_state,
    fingerprint,
)
from repro.workloads import get_profile


@pytest.fixture
def runner():
    """A fresh in-process runner with its own cache."""
    return SweepRunner()


class TestFingerprint:
    def test_stable_across_calls(self):
        cfg = ServerConfig()
        assert fingerprint(cfg) == fingerprint(ServerConfig())

    def test_configs_key_apart(self):
        base = ServerConfig()
        tweaked = dataclasses.replace(
            base, peripheral_power=base.peripheral_power + 1.0
        )
        assert fingerprint(base) != fingerprint(tweaked)

    def test_nested_config_changes_key(self):
        base = ServerConfig()
        tweaked = dataclasses.replace(
            base, pdn=dataclasses.replace(base.pdn, r_loadline=base.pdn.r_loadline * 1.1)
        )
        assert fingerprint(base) != fingerprint(tweaked)

    def test_task_hash_covers_mode(self, raytrace):
        uv = SweepTask.consolidated(raytrace, 4, GuardbandMode.UNDERVOLT)
        oc = SweepTask.consolidated(raytrace, 4, GuardbandMode.OVERCLOCK)
        assert uv.task_hash() != oc.task_hash()
        assert uv.coordinates() == oc.coordinates()

    def test_derived_seed_is_order_free(self, raytrace, lu_cb):
        a = SweepTask.consolidated(raytrace, 4, GuardbandMode.UNDERVOLT)
        b = SweepTask.consolidated(lu_cb, 4, GuardbandMode.UNDERVOLT)
        assert a.derived_seed() == a.derived_seed()
        assert a.derived_seed() != b.derived_seed()
        assert derive_seed(7, "x") != derive_seed(8, "x")


class TestSweepRunnerMatchesSerial:
    def test_consolidated_matches_measure_consolidated(self, runner, raytrace):
        results = runner.run_results(
            core_scaling_tasks(raytrace, GuardbandMode.UNDERVOLT, (1, 4, 8))
        )
        for n, got in zip((1, 4, 8), results):
            ref = measure(raytrace, n_threads=n, mode=GuardbandMode.UNDERVOLT)
            # The static half settles first on a fresh server in both
            # schedules, so it is bit-identical; the adaptive half starts
            # from a fresh server here (vs the serial path's shared one),
            # leaving sub-milliwatt thermal-path drift.
            assert got.static.point == ref.static.point
            assert got.static.execution_time == ref.static.execution_time
            assert got.adaptive.point.chip_power == pytest.approx(
                ref.adaptive.point.chip_power, rel=1e-4
            )
            assert got.n_active_cores == n

    def test_scheduled_matches_measure_scheduled(self, runner, raytrace):
        scheduler = ConsolidationScheduler(ServerConfig())
        placement = scheduler.schedule(raytrace, 4, 8)
        task = SweepTask.scheduled(placement, raytrace, GuardbandMode.UNDERVOLT)
        got = runner.run_results([task])[0]
        ref = measure(raytrace, schedule=placement, mode=GuardbandMode.UNDERVOLT)
        assert got.static.point == ref.static.point
        assert got.adaptive.point.chip_power == pytest.approx(
            ref.adaptive.point.chip_power, rel=1e-4
        )
        assert got.adaptive.execution_time == pytest.approx(
            ref.adaptive.execution_time, rel=1e-4
        )

    def test_static_mode_task_pairs_with_itself(self, runner, raytrace):
        got = runner.run_results(
            [SweepTask.consolidated(raytrace, 2, GuardbandMode.STATIC)]
        )[0]
        assert got.static is got.adaptive


class TestDeterminism:
    def test_parallel_equals_serial(self, raytrace, lu_cb):
        tasks = [
            SweepTask.consolidated(raytrace, 1, GuardbandMode.UNDERVOLT),
            SweepTask.consolidated(raytrace, 8, GuardbandMode.OVERCLOCK),
            SweepTask.consolidated(lu_cb, 4, GuardbandMode.UNDERVOLT),
        ]
        serial = SweepRunner(max_workers=1).run_results(tasks)
        parallel = SweepRunner(max_workers=2).run_results(tasks)
        for a, b in zip(serial, parallel):
            assert a.static.point == b.static.point
            assert a.adaptive.point == b.adaptive.point
            assert a.static.execution_time == b.static.execution_time
            assert a.adaptive.execution_time == b.adaptive.execution_time

    def test_results_in_input_order(self, runner, raytrace):
        tasks = core_scaling_tasks(raytrace, GuardbandMode.UNDERVOLT, (8, 1, 4))
        results = runner.run_results(tasks)
        assert [r.n_active_cores for r in results] == [8, 1, 4]


class TestCacheBehavior:
    def test_warm_replay_is_identical_and_instant(self, runner, raytrace):
        tasks = core_scaling_tasks(raytrace, GuardbandMode.UNDERVOLT, (1, 2))
        cold = runner.run(tasks)
        warm = runner.run(tasks)
        assert cold.n_executed == 2 and cold.n_from_cache == 0
        assert warm.n_executed == 0 and warm.n_from_cache == 2
        for a, b in zip(cold.results, warm.results):
            assert a.static.point == b.static.point
            assert a.adaptive.point == b.adaptive.point

    def test_static_half_shared_across_modes(self, runner, raytrace):
        runner.run([SweepTask.consolidated(raytrace, 4, GuardbandMode.UNDERVOLT)])
        stores_before = runner.cache.stats.stores
        runner.run([SweepTask.consolidated(raytrace, 4, GuardbandMode.OVERCLOCK)])
        # Only the overclock point is new; the static half replays.
        assert runner.cache.stats.stores == stores_before + 1

    def test_no_cross_config_hits(self, runner, raytrace):
        task = SweepTask.consolidated(raytrace, 2, GuardbandMode.UNDERVOLT)
        base = runner.run_results([task], ServerConfig())[0]
        base_cfg = ServerConfig()
        tweaked_cfg = dataclasses.replace(
            base_cfg,
            guardband=dataclasses.replace(
                base_cfg.guardband,
                static_guardband=base_cfg.guardband.static_guardband + 0.01,
            ),
        )
        tweaked = runner.run_results([task], tweaked_cfg)[0]
        assert runner.cache.stats.hits == 0
        assert base.static.point != tweaked.static.point

    def test_lru_eviction(self, raytrace):
        cache = OperatingPointCache(max_entries=2)
        runner = SweepRunner(cache=cache)
        runner.run_results(core_scaling_tasks(raytrace, GuardbandMode.STATIC, (1, 2, 3)))
        assert len(cache) == 2
        assert cache.stats.evictions == 1


class TestDiskCache:
    def test_round_trip_across_processes(self, tmp_path, raytrace):
        disk = str(tmp_path / "points")
        task = SweepTask.consolidated(raytrace, 2, GuardbandMode.UNDERVOLT)
        first = SweepRunner(cache=OperatingPointCache(disk_dir=disk))
        a = first.run_results([task])[0]
        # A brand-new runner (fresh memory) must replay from disk only.
        second = SweepRunner(cache=OperatingPointCache(disk_dir=disk))
        b = second.run_results([task])[0]
        assert second.cache.stats.disk_hits == 2
        assert second.cache.stats.misses == 0
        assert a.static.point == b.static.point
        assert a.adaptive.point == b.adaptive.point
        assert a.adaptive.execution_time == b.adaptive.execution_time

    def test_corrupt_file_counts_as_miss(self, tmp_path, raytrace):
        disk = str(tmp_path / "points")
        task = SweepTask.consolidated(raytrace, 1, GuardbandMode.STATIC)
        SweepRunner(cache=OperatingPointCache(disk_dir=disk)).run([task])
        for name in os.listdir(disk):
            with open(os.path.join(disk, name), "w") as fh:
                fh.write("{not json")
        again = SweepRunner(cache=OperatingPointCache(disk_dir=disk))
        result = again.run_results([task])[0]
        assert again.cache.stats.disk_errors >= 1
        assert result.static.point.chip_power > 0

    def test_codec_round_trips_states(self, runner, raytrace):
        state = runner.run_results(
            [SweepTask.consolidated(raytrace, 3, GuardbandMode.UNDERVOLT)]
        )[0].adaptive
        payload = json.loads(json.dumps(encode_steady_state(state)))
        assert decode_steady_state(payload) == state


class TestReports:
    def test_report_counts_and_summary(self, runner, raytrace):
        report = runner.run(
            core_scaling_tasks(raytrace, GuardbandMode.UNDERVOLT, (1, 2))
        )
        assert report.n_tasks == 2
        assert report.n_executed == 2
        assert not report.used_processes
        assert "2 task(s)" in report.summary()
        assert "hits" in report.summary()
        assert "raytrace:n1:undervolt" in report.summary()
        assert "1 batch(es)" in runner.timings_summary()

    def test_default_runner_swap(self):
        sentinel = SweepRunner()
        previous = set_default_runner(sentinel)
        try:
            assert default_runner() is sentinel
        finally:
            set_default_runner(previous)
