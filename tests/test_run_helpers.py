"""The measurement procedures through ``measure()``, and result containers."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import measure
from repro.guardband import GuardbandMode
from repro.sim.results import RunResult, SteadyState, active_mean_frequency
from repro.workloads.scaling import SocketShare


class TestMeasureConsolidated:
    def test_pairs_static_and_adaptive(self, server, raytrace):
        result = measure(raytrace, n_threads=2, mode="undervolt", server=server)
        assert result.static.mode is GuardbandMode.STATIC
        assert result.adaptive.mode is GuardbandMode.UNDERVOLT
        assert result.n_active_cores == 2

    def test_undervolt_saves_power(self, server, raytrace):
        result = measure(raytrace, n_threads=2, mode="undervolt", server=server)
        assert 0 < result.power_saving_fraction < 0.25

    def test_overclock_boosts_frequency(self, server, raytrace):
        result = measure(raytrace, n_threads=2, mode="overclock", server=server)
        assert 0 < result.frequency_boost_fraction < 0.12

    def test_execution_time_attached(self, server, raytrace):
        result = measure(raytrace, n_threads=2, mode="overclock", server=server)
        assert result.static.execution_time > 0
        assert result.adaptive.execution_time < result.static.execution_time

    def test_energy_and_edp_derived(self, server, raytrace):
        result = measure(raytrace, n_threads=2, mode="undervolt", server=server)
        state = result.adaptive
        assert state.energy == pytest.approx(state.chip_power * state.execution_time)
        assert state.edp == pytest.approx(state.energy * state.execution_time)

    def test_smt_stacking_supported(self, server, raytrace):
        result = measure(raytrace, n_threads=8, threads_per_core=4, server=server)
        assert result.n_active_cores == 2


class TestCoreScalingSweep:
    def test_sweep_length(self, server, raytrace):
        results = [measure(raytrace, n_threads=n, server=server) for n in (1, 4, 8)]
        assert [r.n_active_cores for r in results] == [1, 4, 8]

    def test_power_monotone_in_cores(self, server, raytrace):
        results = [measure(raytrace, n_threads=n, server=server) for n in (1, 4, 8)]
        powers = [r.static.chip_power for r in results]
        assert powers[0] < powers[1] < powers[2]

    def test_saving_decays_with_cores(self, server, raytrace):
        """The paper's central Sec. 3 observation."""
        results = [measure(raytrace, n_threads=n, server=server) for n in (1, 8)]
        assert results[0].power_saving_fraction > results[1].power_saving_fraction


class TestMeasurePlacement:
    def test_balanced_placement_uses_both_sockets(self, server, raytrace):
        result = measure(
            raytrace,
            placement=SocketShare.balanced(4),
            keep_on=[4, 4],
            server=server,
        )
        assert result.n_active_cores == 4
        for socket in server.sockets:
            assert socket.chip.n_active_cores() == 2

    def test_keep_on_gates_spares(self, server, raytrace):
        measure(
            raytrace,
            placement=SocketShare.consolidated(2),
            keep_on=[8, 0],
            server=server,
        )
        assert all(c.gated for c in server.sockets[1].chip.cores)

    def test_borrowing_beats_consolidation_at_full_load(self, server, raytrace):
        """The headline Sec. 5.1 effect, end to end."""
        cons = measure(
            raytrace,
            placement=SocketShare.consolidated(8),
            keep_on=[8, 0],
            server=server,
        )
        borr = measure(
            raytrace,
            placement=SocketShare.balanced(8),
            keep_on=[4, 4],
            server=server,
        )
        assert borr.adaptive.chip_power < cons.adaptive.chip_power


class TestActiveMeanFrequency:
    @staticmethod
    def _synthetic_point(socket_freqs, socket_active_ids):
        sockets = tuple(
            SimpleNamespace(
                solution=SimpleNamespace(
                    frequencies=tuple(freqs), active_core_ids=tuple(ids)
                )
            )
            for freqs, ids in zip(socket_freqs, socket_active_ids)
        )
        return SimpleNamespace(sockets=sockets)

    def test_active_cores_only(self):
        point = self._synthetic_point(
            [(4.0e9, 2.0e9), (1.0e9, 1.0e9)], [(0,), ()]
        )
        assert active_mean_frequency(point) == 4.0e9

    def test_idle_server_averages_every_socket(self):
        """Regression: the idle fallback silently used socket 0 only.

        With the sockets parked at different clocks, the explicit idle
        frequency is the mean over *all* cores — 3 GHz here, where the old
        behavior reported socket 0's 4 GHz.
        """
        point = self._synthetic_point(
            [(4.0e9, 4.0e9), (2.0e9, 2.0e9)], [(), ()]
        )
        assert active_mean_frequency(point) == pytest.approx(3.0e9)

    def test_idle_contract_on_real_server(self, server):
        point = server.operate(GuardbandMode.STATIC)
        freqs = []
        for sp in point.sockets:
            freqs.extend(sp.solution.frequencies)
        assert active_mean_frequency(point) == pytest.approx(float(np.mean(freqs)))

    def test_point_is_self_contained(self, server, raytrace):
        """The settled point must not track later server mutations."""
        server.place(0, raytrace, 2)
        point = server.operate(GuardbandMode.UNDERVOLT)
        before = active_mean_frequency(point)
        server.clear()
        server.place(1, raytrace, 8)
        assert active_mean_frequency(point) == before


class TestRunResultGuards:
    def test_speedup_requires_runtimes(self, server, raytrace):
        result = measure(raytrace, n_threads=1, mode="overclock", server=server)
        stripped = RunResult(
            profile=result.profile,
            n_active_cores=1,
            static=SteadyState(
                workload="raytrace",
                mode=GuardbandMode.STATIC,
                n_active_cores=1,
                point=result.static.point,
            ),
            adaptive=result.adaptive,
        )
        with pytest.raises(ValueError):
            stripped.speedup_fraction
        assert stripped.static.energy is None
        assert stripped.static.edp is None

    def test_boost_fallback_matches_captured_frequency(self, server, raytrace):
        """Without a captured ``active_frequency``, the boost falls back to
        :func:`active_mean_frequency` — the idle socket stays out of it."""
        result = measure(raytrace, n_threads=2, mode="overclock", server=server)

        def uncaptured(state):
            return SteadyState(
                workload=state.workload,
                mode=state.mode,
                n_active_cores=state.n_active_cores,
                point=state.point,
            )

        fallback = RunResult(
            profile=result.profile,
            n_active_cores=result.n_active_cores,
            static=uncaptured(result.static),
            adaptive=uncaptured(result.adaptive),
        )
        assert (
            fallback.frequency_boost_fraction == result.frequency_boost_fraction
        )
