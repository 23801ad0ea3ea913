"""One scalar power path at every width, equal to the reference loop.

Settled operating points must equal, to the last bit, what the
per-iteration reference loop (:mod:`tests.test_socket_reference`)
settles, and dies wider than the 2x4 POWER7+ grid must build and solve
on the same path.  Every equality is an exact ``==`` on raw floats on
purpose: the operating-point cache and the event-log SHA-256 hash them.
"""

import pytest

from repro.api import measure
from repro.chip.power import PowerModel
from repro.config import ChipConfig, ServerConfig
from repro.sim.server import Power720Server
from tests.test_socket_reference import reference_loop


class TestChipPowerBitIdentity:
    def test_chip_power_validates_activity(self):
        model = PowerModel(ChipConfig())
        with pytest.raises(ValueError, match="activity"):
            model.chip_power(
                activities=[-0.1] + [0.5] * 7,
                voltages=[1.05] * 8,
                frequencies=[4.0e9] * 8,
                gated=[False] * 8,
                temperature=70.0,
            )

    def test_gated_negative_activity_is_ignored_like_scalar(self):
        """A gated core's activity is never read."""
        model = PowerModel(ChipConfig())
        kwargs = dict(
            voltages=[1.05] * 8,
            frequencies=[4.0e9] * 8,
            gated=[True] + [False] * 7,
            temperature=70.0,
        )
        ignored = model.chip_power(activities=[-0.1] + [0.5] * 7, **kwargs)
        assert ignored == model.chip_power(activities=[0.0] + [0.5] * 7, **kwargs)


class TestSettledStateBitIdentity:
    """End-to-end: settled operating points equal the reference loop's."""

    @pytest.mark.parametrize("mode", ["undervolt", "overclock"])
    @pytest.mark.parametrize("n_threads", [1, 5, 8])
    def test_default_width_solutions_match(self, mode, n_threads):
        with reference_loop():
            reference = measure("raytrace", n_threads=n_threads, mode=mode, seed=11)
        lean = measure("raytrace", n_threads=n_threads, mode=mode, seed=11)
        assert lean.static == reference.static
        assert lean.adaptive == reference.adaptive

    def test_sixteen_core_die_builds_and_solves(self):
        config = ServerConfig(chip=ChipConfig(n_cores=16))
        result = measure(
            "raytrace", n_threads=12, mode="undervolt", config=config, seed=3
        )
        point = result.adaptive.point
        assert point.chip_power > 0
        voltages = [
            v for s in point.sockets for v in s.solution.core_voltages
        ]
        assert len(voltages) == 16 * len(point.sockets)

    def test_wide_die_builds_and_solves(self):
        """Widths past the 2x4 POWER7+ grid grow the floorplan columns."""
        config = ServerConfig(chip=ChipConfig(n_cores=24))
        server = Power720Server(config=config, seed=5)
        result = measure(
            "raytrace", n_threads=20, mode="overclock", server=server
        )
        point = result.adaptive.point
        assert point.chip_power > 0
        voltages = [
            v for s in point.sockets for v in s.solution.core_voltages
        ]
        assert len(voltages) == 24 * len(point.sockets)
