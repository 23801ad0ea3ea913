"""Power capping composed with adaptive guardbanding."""

import pytest

from repro.api import measure
from repro.errors import SchedulingError
from repro.fleet import FleetConfig, TrafficConfig
from repro.fleet.engine import FleetSimulation
from repro.guardband.capping import PowerCapPolicy
from repro.workloads import get_profile


@pytest.fixture
def policy(server_config):
    return PowerCapPolicy(server_config)


@pytest.fixture
def busy_socket(server):
    server.place(0, get_profile("lu_cb"), 8)
    return server.sockets[0]


class TestEnforce:
    def test_generous_cap_keeps_top_frequency(self, policy, busy_socket, server_config):
        result = policy.enforce(busy_socket, cap=200.0)
        assert result.frequency == pytest.approx(server_config.chip.f_nominal)
        assert result.power <= 200.0

    def test_tight_cap_lowers_frequency(self, policy, busy_socket, server_config):
        result = policy.enforce(busy_socket, cap=100.0)
        assert result.frequency < server_config.chip.f_nominal
        assert result.power <= 100.0

    def test_result_is_fastest_fitting_point(self, policy, busy_socket):
        result = policy.enforce(busy_socket, cap=100.0)
        # The next faster table point must exceed the cap.
        faster = [
            p for p in policy.table.points if p.frequency > result.frequency
        ]
        if faster:
            above = policy.enforce(busy_socket, cap=1e9)
            # The generous-cap point is the top; sanity: its power > 100.
            assert above.power > 100.0

    def test_headroom_nonnegative(self, policy, busy_socket):
        result = policy.enforce(busy_socket, cap=110.0)
        assert result.headroom >= 0

    def test_impossible_cap_raises(self, policy, busy_socket):
        with pytest.raises(SchedulingError):
            policy.enforce(busy_socket, cap=20.0)

    def test_rejects_nonpositive_cap(self, policy, busy_socket):
        with pytest.raises(SchedulingError):
            policy.enforce(busy_socket, cap=0.0)


class TestEdgeCases:
    def test_cap_below_lowest_table_point_raises(self, policy, busy_socket):
        """The floor: even pmin's settled draw exceeds the cap.

        Walk the feasible caps down point by point; one cent below the
        lowest feasible point's power must be infeasible.
        """
        low = policy.enforce(busy_socket, cap=1e9, adaptive=False)
        while True:
            try:
                low = policy.enforce(
                    busy_socket, cap=low.power - 0.01, adaptive=False
                )
            except SchedulingError:
                break
        with pytest.raises(SchedulingError):
            policy.enforce(busy_socket, cap=low.power - 0.01, adaptive=False)

    def test_cap_exactly_at_table_point_power_is_feasible(
        self, policy, busy_socket
    ):
        """A cap equal to a settled point's power selects that point —
        the walk's comparison must be <=, not <."""
        tight = policy.enforce(busy_socket, cap=110.0)
        exact = policy.enforce(busy_socket, cap=tight.power)
        assert exact.frequency == pytest.approx(tight.frequency)
        assert exact.power == pytest.approx(tight.power)

    def test_cap_epsilon_below_boundary_steps_down(
        self, policy, busy_socket
    ):
        """One epsilon under a point's power forces the next point down
        (or infeasibility if it was the floor)."""
        tight = policy.enforce(busy_socket, cap=110.0)
        try:
            below = policy.enforce(busy_socket, cap=tight.power - 1e-6)
        except SchedulingError:
            return  # tight was already the lowest point: also correct
        assert below.frequency < tight.frequency


class TestMeasureFacadeCap:
    def test_power_cap_below_floor_raises_with_floor_in_message(self):
        profile = get_profile("raytrace")
        with pytest.raises(SchedulingError, match="below the floor"):
            measure(profile, mode="undervolt", n_threads=8, power_cap=1.0)

    def test_power_cap_throttles_frequency(self):
        profile = get_profile("raytrace")
        free = measure(profile, mode="undervolt", n_threads=8)
        free_power = free.adaptive.point.server_power
        capped = measure(
            profile, mode="undervolt", n_threads=8,
            power_cap=free_power - 20.0,
        )
        assert capped.adaptive.point.server_power <= free_power - 20.0
        assert (
            capped.adaptive.point.min_frequency
            < free.adaptive.point.min_frequency
        )


    @pytest.mark.parametrize("mode", ["undervolt", "overclock"])
    @pytest.mark.parametrize("workload, n_threads", [("raytrace", 8), ("fft", 4)])
    def test_capped_picks_lie_on_the_fleet_menu(self, workload, n_threads, mode):
        """``measure(power_cap=)`` can only land where the fleet can."""
        fleet = FleetSimulation(
            FleetConfig(
                n_servers=1,
                traffic=TrafficConfig(duration_seconds=3600.0, jobs_per_hour=10.0),
            )
        )
        kwargs = dict(mode=mode, n_threads=n_threads)
        uncapped = measure(workload, **kwargs)
        on_menu = [uncapped] + [
            measure(workload, f_target=frequency, **kwargs)
            for frequency in fleet._cap_walk_frequencies()
        ]
        top = uncapped.adaptive.point.server_power
        floor = on_menu[-1].adaptive.point.server_power
        for step in range(14):
            cap = floor + (top - floor) * (step + 0.5) / 14
            assert measure(workload, power_cap=cap, **kwargs) in on_menu, cap


class TestAdaptiveAdvantage:
    def test_adaptive_capping_holds_higher_frequency(self, policy, busy_socket):
        """The composition argument: harvesting the guardband first lets
        the same cap support a faster clock."""
        cap = 105.0
        adaptive = policy.enforce(busy_socket, cap, adaptive=True)
        static = policy.enforce(busy_socket, cap, adaptive=False)
        assert adaptive.frequency >= static.frequency
        assert adaptive.frequency > static.frequency or (
            adaptive.power < static.power
        )

    def test_both_respect_the_cap(self, policy, busy_socket):
        for adaptive in (True, False):
            result = policy.enforce(busy_socket, 100.0, adaptive=adaptive)
            assert result.power <= 100.0

    def test_frequency_under_cap_helper(self, policy, busy_socket):
        assert policy.frequency_under_cap(busy_socket, 110.0) == pytest.approx(
            policy.enforce(busy_socket, 110.0).frequency
        )
