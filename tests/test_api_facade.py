"""The unified measurement facade: ``repro.measure`` / ``repro.sweep``."""

import pytest

import repro
from repro import GuardbandMode, build_server, measure, sweep
from repro.core.placement import Placement, ThreadGroup
from repro.errors import SchedulingError
from repro.sim.batch import SweepRunner, core_scaling_tasks
from repro.sim.cache import OperatingPointCache
from repro.workloads import get_profile
from tests.test_measure_reference import reference_measure


class TestResolution:
    def test_workload_accepts_name_or_profile(self, raytrace):
        by_name = measure("raytrace", n_threads=1)
        by_profile = measure(raytrace, n_threads=1)
        assert (
            by_name.adaptive.point.chip_power
            == by_profile.adaptive.point.chip_power
        )

    def test_mode_accepts_string_or_enum(self):
        by_str = measure("raytrace", mode="overclock")
        by_enum = measure("raytrace", mode=GuardbandMode.OVERCLOCK)
        assert (
            by_str.adaptive.active_frequency
            == by_enum.adaptive.active_frequency
        )

    def test_unknown_mode_string_raises(self):
        with pytest.raises(ValueError):
            measure("raytrace", mode="turbo")

    def test_facade_is_reexported_from_package_root(self):
        assert repro.measure is measure
        assert repro.sweep is sweep
        assert "measure" in repro.__all__
        assert "sweep" in repro.__all__


class TestVariantEquivalence:
    """Pinned cases of the reference suite (``test_measure_reference``):
    the facade against its former per-variant implementations, kept
    verbatim there as ``reference_measure``.  Same seed + same placement
    must give bit-identical results through either path."""

    def test_consolidated_matches_legacy(self, raytrace):
        legacy = reference_measure(
            raytrace, n_threads=4, mode=GuardbandMode.UNDERVOLT,
            server=build_server(),
        )
        unified = measure("raytrace", n_threads=4, mode="undervolt")
        assert legacy == unified

    def test_placement_matches_legacy(self, raytrace):
        legacy = reference_measure(
            raytrace, placement=(2, 2), keep_on=(2, 2), server=build_server()
        )
        unified = measure("raytrace", placement=(2, 2), keep_on=(2, 2))
        assert legacy == unified

    def test_schedule_matches_legacy(self, raytrace):
        plan = Placement(
            groups=((ThreadGroup(raytrace, 2),), (ThreadGroup(raytrace, 2),))
        )
        legacy = reference_measure(raytrace, schedule=plan, server=build_server())
        unified = measure(raytrace, schedule=plan)
        assert legacy == unified

    def test_seed_is_plumbed_to_the_server_build(self, raytrace):
        legacy = reference_measure(
            raytrace, n_threads=4, server=build_server(seed=11)
        )
        unified = measure("raytrace", n_threads=4, seed=11)
        assert legacy == unified

    def test_server_reuse_matches_legacy_reuse(self, raytrace):
        # Reused servers keep thermal state across clear(); the facade must
        # mirror the legacy path exactly under the same call sequence.
        legacy_server, unified_server = build_server(), build_server()
        reference_measure(raytrace, n_threads=8, server=legacy_server)
        legacy = reference_measure(raytrace, n_threads=1, server=legacy_server)
        measure("raytrace", n_threads=8, server=unified_server)
        unified = measure("raytrace", n_threads=1, server=unified_server)
        assert legacy == unified


class TestSelectorValidation:
    def test_placement_and_schedule_conflict(self, raytrace):
        plan = Placement(groups=((ThreadGroup(raytrace, 1),), ()))
        with pytest.raises(SchedulingError):
            measure("raytrace", placement=(1, 0), schedule=plan)

    def test_keep_on_requires_placement(self):
        with pytest.raises(SchedulingError):
            measure("raytrace", keep_on=(2, 0))

    def test_selectors_are_keyword_only(self):
        with pytest.raises(TypeError):
            measure("raytrace", GuardbandMode.UNDERVOLT)  # noqa


class TestScheduledColocation:
    """``measure(schedule=)`` settles colocated workloads: whoever shares
    the chip sets its current draw, so its droop, so every core's clock."""

    @staticmethod
    def _overclock(schedule):
        return measure(
            schedule.groups[0][0].profile, schedule=schedule, mode="overclock"
        ).adaptive.point.socket_point(0).solution

    def test_heavier_mix_lower_frequency(self):
        heavy = Placement(groups=((ThreadGroup(get_profile("lu_cb"), 8),), ()))
        light = Placement(groups=((ThreadGroup(get_profile("mcf"), 8),), ()))
        assert (
            self._overclock(heavy).mean_frequency
            < self._overclock(light).mean_frequency
        )

    def test_colocated_victim_slows_with_aggressor(self):
        victim = ThreadGroup(get_profile("swaptions"), 1)
        with_heavy = Placement(
            groups=((victim, ThreadGroup(get_profile("lu_cb"), 7)), ())
        )
        with_light = Placement(
            groups=((victim, ThreadGroup(get_profile("mcf"), 7)), ())
        )
        assert (
            self._overclock(with_light).frequencies[0]
            > self._overclock(with_heavy).frequencies[0]
        )


class TestSweepFacade:
    def test_sweep_matches_legacy_runner_path(self, raytrace):
        unified = sweep(
            "raytrace",
            core_counts=range(1, 4),
            runner=SweepRunner(max_workers=1, cache=OperatingPointCache()),
        )
        legacy_runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
        legacy = legacy_runner.run_results(
            core_scaling_tasks(raytrace, GuardbandMode.UNDERVOLT, range(1, 4))
        )
        assert len(unified) == 3
        for mine, theirs in zip(unified, legacy):
            assert (
                mine.adaptive.point.chip_power
                == theirs.adaptive.point.chip_power
            )
            assert mine.n_active_cores == theirs.n_active_cores

    def test_sweep_with_workers_and_cache_dir(self, tmp_path):
        results = sweep(
            "raytrace", core_counts=[1, 2], cache_dir=str(tmp_path / "cache")
        )
        assert len(results) == 2
        assert (tmp_path / "cache").is_dir()

    def test_runner_conflicts_with_runner_knobs(self):
        runner = SweepRunner(max_workers=1, cache=OperatingPointCache())
        with pytest.raises(SchedulingError):
            sweep("raytrace", runner=runner, workers=2)
        with pytest.raises(SchedulingError):
            sweep("raytrace", runner=runner, cache_dir="/tmp/x")
