"""A die's CPM bank draws its monitors on the first read, and only then.

The fault-free firmware loop works from the calibrated margin and never
reads a CPM code, so a fault-free sweep batch or fleet day builds banks
without drawing one.  The code readers (``repro audit``, the guarded
controller's probe) must see exactly the codes an eagerly drawn bank
shows; ``reference_firmware`` restores the former eager draw loop.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.analysis.figures_scheduling import fig13_borrowing_all_workloads
from repro.chip.cpm import CpmBank
from repro.cli import main
from repro.config import ChipConfig
from repro.faults import CalibrationFault, CpmStuckFault, FaultPlan
from repro.faults.gate import CpmPlausibilityGate
from repro.faults.injector import injected
from repro.fleet import FleetConfig, TrafficConfig, run_sharded
from repro.fleet.engine import clear_fleet_memos
from repro.fleet.settle_cache import configure_fleet_settle_cache
from repro.guardband import GuardbandController, GuardbandMode
from repro.guardband.calibration import calibrated_margin
from repro.sim.batch import SweepRunner
from repro.sim.server import Power720Server
from repro.workloads import get_profile
from tests.test_guardband_reference import reference_firmware

CONFIG = ChipConfig()


@contextmanager
def counted_banks():
    """Count the banks built and the banks drawn inside the block."""
    counts = {"built": 0, "drawn": 0}
    init, draw = CpmBank.__init__, CpmBank._cpms.func

    def counting_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_draw(self):
        counts["drawn"] += 1
        return draw(self)

    with mock.patch.object(CpmBank, "__init__", counting_init), \
            mock.patch.object(CpmBank._cpms, "func", counting_draw):
        yield counts


@pytest.fixture
def cold_fleet_cache():
    """A fleet day that settles from scratch, leaving the default cache."""
    configure_fleet_settle_cache()
    clear_fleet_memos()
    yield
    configure_fleet_settle_cache()
    clear_fleet_memos()


class TestDrawsOnFirstRead:
    def test_a_read_draws_once(self):
        with counted_banks() as counts:
            bank = CpmBank(CONFIG, seed=7)
            bank.calibrate(0.045, CONFIG.f_nominal, 2)
            assert counts == {"built": 1, "drawn": 0}
            assert bank.read_core(0, 0.045, CONFIG.f_nominal) == [2] * 5
            bank.worst_code(1, 0.045, CONFIG.f_nominal)
            bank.all_cpms()
        assert counts == {"built": 1, "drawn": 1}

    def test_a_fault_free_sweep_batch_draws_no_bank(self):
        with counted_banks() as counts:
            fig13_borrowing_all_workloads(
                workloads=("raytrace", "lu_cb"),
                core_counts=(1, 4, 8),
                runner=SweepRunner(),
            )
        assert counts["built"] > 0
        assert counts["drawn"] == 0

    def test_a_fault_free_fleet_cell_draws_no_bank(self, cold_fleet_cache):
        config = FleetConfig(
            n_servers=4,
            traffic=TrafficConfig(
                duration_seconds=3600.0, jobs_per_hour=120.0, lc_fraction=0.15
            ),
            seed=7,
        )
        with counted_banks() as counts:
            result = run_sharded(config, cell_servers=2)
        assert result.n_epochs > 0 and counts["built"] > 0
        assert counts["drawn"] == 0


class TestAuditCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ["audit", "raytrace", "-n", "4"],
            ["audit", "lu_cb", "-n", "8", "-m", "overclock"],
            ["audit", "mcf", "-n", "2", "-m", "static", "--seed", "11"],
        ],
        ids=["undervolt", "overclock", "static_seed_11"],
    )
    def test_codes_equal_the_eager_bank(self, args, capsys):
        with reference_firmware():
            eager_status = main(args)
        eager = capsys.readouterr().out
        with counted_banks() as counts:
            status = main(args)
        assert counts["drawn"] == 1  # the audited socket's bank only
        assert (status, capsys.readouterr().out) == (eager_status, eager)
        assert " CPM " in eager


def _fallback_sequence(plan, times):
    """Operate a fresh controller at each injector time; returns what
    every operate settled, the fallback state, the probe's gate inputs,
    the injection counts and the codes every CPM reads at the calibrated
    margin afterwards."""
    judged = []
    judge = CpmPlausibilityGate.judge

    def recording_judge(self, observed, expected):
        judged.append((list(observed), list(expected)))
        return judge(self, observed, expected)

    server = Power720Server(seed=7)
    server.place(0, get_profile("raytrace"), 4)
    ctrl = GuardbandController(server.sockets[0])
    steps = []
    with mock.patch.object(CpmPlausibilityGate, "judge", recording_judge), \
            injected(plan) as injector:
        for time in times:
            injector.set_time(time)
            point = ctrl.operate(GuardbandMode.UNDERVOLT)
            steps.append((point, ctrl.fallback_reason))
        counts = dict(injector.counts)
    chip = server.sockets[0].chip
    margin = calibrated_margin(chip.config, server.config.guardband)
    anchor = [
        chip.cpm_bank.read_core(core, margin, chip.config.f_nominal)
        for core in range(chip.n_cores)
    ]
    return steps, judged, counts, anchor


@pytest.mark.chaos
class TestGuardedCodes:
    TIMES = (0.0, 5.0, 20.0, 21.0, 22.0, 23.0)

    def test_injected_calibration_failure_raises_at_the_same_operate(self):
        plan = FaultPlan(
            specs=(CalibrationFault(socket_id=0, duration_seconds=10.0),)
        )
        with reference_firmware():
            eager = _fallback_sequence(plan, self.TIMES)
        lazy = _fallback_sequence(plan, self.TIMES)
        assert lazy == eager
        reasons = [reason for _, reason in lazy[0]]
        assert reasons[:2] == ["calibration_failed"] * 2
        assert reasons[-1] is None

    def test_guarded_probe_sees_calibrated_codes(self):
        plan = FaultPlan(
            specs=(CpmStuckFault(socket_id=0, code=0, duration_seconds=10.0),)
        )
        with reference_firmware():
            eager = _fallback_sequence(plan, self.TIMES)
        lazy = _fallback_sequence(plan, self.TIMES)
        assert lazy == eager
        steps, judged, _, anchor = lazy
        assert judged and all(expected for _, expected in judged)
        code = Power720Server().config.guardband.calibration_code
        assert anchor == [[code] * CONFIG.cpms_per_core] * CONFIG.n_cores
        # The stuck window is policed, then the healthy probes re-arm.
        assert steps[0][1] is not None and steps[-1][1] is None
