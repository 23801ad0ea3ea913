"""The cold firmware path against the code it replaced, to the bit.

Every cold settle builds a die (drawing per-CPM process variation),
calibrates its CPMs, and walks the VRM down in 32 ms firmware ticks.
Three of those steps now skip work that never changed a value: a CPM
read clamps its code with integer comparisons, a bank draws all its
normals in one call, and a tick looks up the droop-safe margin and
droop once instead of once per core.  The settle cache, perfbench's
pinned digests and the fleet event-log SHA-256 hash exact floats, so
this module keeps the former bodies verbatim as the reference
(``CriticalPathMonitor.read``, the ``CpmBank`` draw loop, and
``UndervoltPolicy._worst_excess`` with the ``required_voltage`` it
called) and compares with exact ``==``.
"""

from contextlib import contextmanager
from typing import List, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chip.aging import AgingModel, aged_server_config
from repro.chip.cpm import CpmBank, CriticalPathMonitor
from repro.config import ChipConfig, ServerConfig
from repro.errors import CalibrationError, ConvergenceError
from repro.faults import (
    CalibrationFault,
    FaultPlan,
    LoadlineExcursionFault,
    VrmDroopFault,
)
from repro.faults.injector import injected
from repro.floorplan import Floorplan
from repro.guardband import GuardbandMode
from repro.guardband.calibration import calibrated_margin
from repro.guardband.undervolt import UndervoltPolicy
from repro.sim.server import Power720Server
from repro.workloads import get_profile, profile_names

CONFIG = ChipConfig()


# ----------------------------------------------------------------------
# The reference: the former bodies, verbatim
# ----------------------------------------------------------------------
def _ref_read(self, margin: float, frequency: float) -> int:
    step = self.volts_per_bit(frequency)
    raw = (
        self._calibration_code
        + (margin - self._calibrated_margin) / step
        + self._code_offset
    )
    return int(np.clip(round(raw), 0, self._config.cpm_code_max))


def _ref_bank_init(
    self,
    config: ChipConfig,
    floorplan: Optional[Floorplan] = None,
    calibration_code: int = 2,
    calibrated_margin: float = 0.042,
    seed: int = 7,
) -> None:
    self._config = config
    floorplan = floorplan or Floorplan(config.n_cores)
    rng = np.random.default_rng(seed)
    locations = floorplan.cpm_locations(config.cpms_per_core)
    self._cpms: List[List[CriticalPathMonitor]] = []
    for core in range(config.n_cores):
        core_scale = float(rng.normal(1.0, config.cpm_sensitivity_sigma * 0.6))
        core_cpms = []
        for unit in locations[core]:
            scale = core_scale * float(
                rng.normal(1.0, config.cpm_sensitivity_sigma * 0.5)
            )
            offset = float(rng.normal(0.0, config.cpm_offset_sigma))
            core_cpms.append(
                CriticalPathMonitor(
                    config,
                    sensitivity_scale=max(scale, 0.5),
                    code_offset=offset,
                    calibration_code=calibration_code,
                    calibrated_margin=calibrated_margin,
                    unit=unit,
                )
            )
        self._cpms.append(core_cpms)


def _ref_required_voltage(self, socket, core_id, frequency):
    chip_cfg = self._config.chip
    n_active = socket.chip.n_active_cores()
    droop = socket.path.noise.worst_droop(n_active)
    return (
        chip_cfg.vmin(frequency)
        + calibrated_margin(chip_cfg, self._config.guardband)
        + droop
    )


def _ref_worst_excess(self, socket, solution, target):
    surpluses: List[float] = []
    for core_id, (voltage, frequency) in enumerate(
        zip(solution.core_voltages, solution.frequencies)
    ):
        required = _ref_required_voltage(self, socket, core_id, max(frequency, target))
        surpluses.append(voltage - required)
    return min(surpluses)


@contextmanager
def reference_firmware():
    """Build, calibrate and converge on the former code in the block."""
    with mock.patch.object(CriticalPathMonitor, "read", _ref_read), \
            mock.patch.object(CpmBank, "__init__", _ref_bank_init), \
            mock.patch.object(UndervoltPolicy, "_worst_excess", _ref_worst_excess):
        yield


# ----------------------------------------------------------------------
# The draw identity the one-call bank relies on
# ----------------------------------------------------------------------
class TestNormalDrawIdentity:
    """``rng.normal(loc, s)`` is ``loc + s * z`` of the same stream.

    The bank draws ``standard_normal(n)`` once and applies each draw's
    location and scale in Python.  A numpy that computes ``normal``
    another way (a fused multiply-add, another sampler) must fail here
    instead of silently moving every die's CPM variation.
    """

    LOCS_SCALES = (
        (1.0, CONFIG.cpm_sensitivity_sigma * 0.6),
        (1.0, CONFIG.cpm_sensitivity_sigma * 0.5),
        (0.0, CONFIG.cpm_offset_sigma),
    )

    def test_one_call_matches_per_draw_normals(self):
        for seed in range(200):
            per_draw = np.random.default_rng(seed)
            z = np.random.default_rng(seed).standard_normal(264).tolist()
            for i, value in enumerate(z):
                loc, scale = self.LOCS_SCALES[i % 3]
                assert float(per_draw.normal(loc, scale)) == loc + scale * value

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loc=st.floats(min_value=-2.0, max_value=2.0),
        scale=st.floats(min_value=1e-3, max_value=2.0),
    )
    def test_any_location_and_scale(self, seed, loc, scale):
        z = np.random.default_rng(seed).standard_normal()
        assert float(np.random.default_rng(seed).normal(loc, scale)) == loc + scale * z


# ----------------------------------------------------------------------
# CPM codes and die variation
# ----------------------------------------------------------------------
class TestCpmMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        scale=st.floats(min_value=0.5, max_value=1.6),
        offset=st.floats(min_value=-1.5, max_value=1.5),
        code=st.integers(min_value=0, max_value=CONFIG.cpm_code_max),
        calibrated=st.floats(min_value=0.0, max_value=0.1),
        margin=st.floats(min_value=-0.6, max_value=0.6),
        frequency=st.floats(min_value=CONFIG.f_min, max_value=CONFIG.f_ceiling),
    )
    def test_code_is_identical(self, scale, offset, code, calibrated, margin, frequency):
        cpm = CriticalPathMonitor(
            CONFIG,
            sensitivity_scale=scale,
            code_offset=offset,
            calibration_code=code,
            calibrated_margin=calibrated,
        )
        lean = cpm.read(margin, frequency)
        assert type(lean) is int
        assert lean == _ref_read(cpm, margin, frequency)

    @pytest.mark.parametrize("margin", [-10.0, -0.5, 0.5, 10.0])
    def test_both_saturation_ends(self, margin):
        cpm = CriticalPathMonitor(CONFIG)
        for frequency in (CONFIG.f_min, CONFIG.f_nominal, CONFIG.f_ceiling):
            lean = cpm.read(margin, frequency)
            assert lean == _ref_read(cpm, margin, frequency)
            assert lean in (0, CONFIG.cpm_code_max)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_cores=st.integers(min_value=1, max_value=24),
        cpms_per_core=st.integers(min_value=1, max_value=8),
    )
    def test_scales_and_offsets_are_identical(self, seed, n_cores, cpms_per_core):
        config = ChipConfig(n_cores=n_cores, cpms_per_core=cpms_per_core)
        lean = CpmBank(config, seed=seed)
        reference = CpmBank.__new__(CpmBank)
        _ref_bank_init(reference, config, seed=seed)
        assert [
            (c._sensitivity_scale, c._code_offset, c.unit) for c in lean.all_cpms()
        ] == [
            (c._sensitivity_scale, c._code_offset, c.unit)
            for c in reference.all_cpms()
        ]


class TestLazyBankMatchesEager:
    """A bank draws on its first read and applies the last calibration
    made before it; every monitor must equal the eager draw loop's,
    calibrated at the same points, to the bit."""

    @staticmethod
    def _state(bank, points):
        return [
            (c._sensitivity_scale, c._code_offset, c._calibration_code,
             c._calibrated_margin, c.unit)
            for c in bank.all_cpms()
        ], [
            bank.read_core(core, margin, frequency)
            for margin, frequency in points
            for core in range(bank.n_cores)
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_cores=st.integers(min_value=1, max_value=12),
        cpms_per_core=st.integers(min_value=1, max_value=8),
        calibrations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.1),
                st.floats(min_value=CONFIG.f_min, max_value=CONFIG.f_ceiling),
                st.integers(min_value=0, max_value=CONFIG.cpm_code_max),
            ),
            max_size=2,
        ),
        read_first=st.booleans(),
        points=st.lists(
            st.tuples(
                st.floats(min_value=-0.3, max_value=0.3),
                st.floats(min_value=CONFIG.f_min, max_value=CONFIG.f_ceiling),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_monitors_and_codes_are_identical(
        self, seed, n_cores, cpms_per_core, calibrations, read_first, points
    ):
        config = ChipConfig(n_cores=n_cores, cpms_per_core=cpms_per_core)
        lazy = CpmBank(config, seed=seed)
        eager = CpmBank.__new__(CpmBank)
        _ref_bank_init(eager, config, seed=seed)
        if read_first:  # calibrations land on a drawn bank
            lazy.read_core(0, *points[0])
        assert ("_cpms" in vars(lazy)) is read_first
        for margin, frequency, code in calibrations:
            lazy.calibrate(margin, frequency, code)
            eager.calibrate(margin, frequency, code)
        assert ("_cpms" in vars(lazy)) is read_first
        assert self._state(lazy, points) == self._state(eager, points)

    @pytest.mark.parametrize("code", [-1, CONFIG.cpm_code_max + 1])
    def test_out_of_range_code_raises_before_the_draw(self, code):
        bank = CpmBank(CONFIG, seed=7)
        with pytest.raises(CalibrationError, match="outside detector range"):
            bank.calibrate(0.045, CONFIG.f_nominal, code)
        assert "_cpms" not in vars(bank)
        eager = CpmBank.__new__(CpmBank)
        _ref_bank_init(eager, CONFIG, seed=7)
        with pytest.raises(CalibrationError, match="outside detector range"):
            eager.calibrate(0.045, CONFIG.f_nominal, code)


# ----------------------------------------------------------------------
# Whole firmware settles
# ----------------------------------------------------------------------
def _build(case) -> Power720Server:
    config = ServerConfig(pdn_backend=case["backend"])
    if case["age_years"] is not None:
        config = aged_server_config(config, AgingModel(), case["age_years"])
    server = Power720Server(config=config, seed=case["die_seed"])
    for socket_id, n_threads in enumerate(case["threads"]):
        if n_threads:
            server.place(socket_id, get_profile(case["profile"]), n_threads)
    return server


def _converge(case):
    """One undervolt settle: the controller's (calibration included) and
    the bare policy's on a fresh server, plus the CPM codes it leaves."""
    try:
        server = _build(case)
        point = server.operate(GuardbandMode.UNDERVOLT, case["f_target"])
        codes = [s.worst_cpm_codes(p.solution) for s, p in zip(server.sockets, point.sockets)]
        fresh = _build(case)
        policy = UndervoltPolicy(fresh.config)
        direct = [policy.converge(s, case["f_target"]) for s in fresh.sockets]
    except (ConvergenceError, CalibrationError) as exc:
        return (type(exc).__name__, str(exc))
    return point, codes, direct


@st.composite
def firmware_cases(draw):
    return {
        "die_seed": draw(st.integers(min_value=0, max_value=10_000)),
        "backend": draw(st.sampled_from(["power7", "flexwatts"])),
        "age_years": draw(st.none() | st.floats(min_value=0.5, max_value=10.0)),
        "profile": draw(st.sampled_from(profile_names())),
        "threads": draw(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=8),
            )
        ),
        "f_target": draw(st.none() | st.floats(min_value=3.0e9, max_value=4.2e9)),
    }


class TestConvergeMatchesReference:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=firmware_cases())
    def test_settle_is_bit_identical(self, case):
        with reference_firmware():
            reference = _converge(case)
        assert _converge(case) == reference

    @pytest.mark.parametrize("backend", ["power7", "flexwatts"])
    def test_aged_loaded_server(self, backend):
        case = {
            "die_seed": 21, "backend": backend, "age_years": 6.0,
            "profile": "raytrace", "threads": (4, 2), "f_target": None,
        }
        with reference_firmware():
            reference = _converge(case)
        lean = _converge(case)
        assert lean == reference
        assert all(point.undervolt > 0 for point in lean[0].sockets)


@pytest.mark.chaos
class TestFaultedFirmwareMatchesReference:
    """Armed faults see the same settles and the same injection counts."""

    CASE = {
        "die_seed": 7, "backend": "power7", "age_years": None,
        "profile": "raytrace", "threads": (6, 2), "f_target": None,
    }

    @pytest.mark.parametrize(
        "spec",
        [
            CalibrationFault(socket_id=0),
            LoadlineExcursionFault(socket_id=0, factor=1.7),
            VrmDroopFault(socket_id=1, depth_volts=0.015),
        ],
        ids=["calibration_failure", "loadline_excursion", "vrm_droop"],
    )
    def test_counts_and_settle_match(self, spec):
        plan = FaultPlan(specs=(spec,))
        with reference_firmware(), injected(plan) as injector:
            reference = _converge(self.CASE)
            reference_counts = dict(injector.counts)
        with injected(plan) as injector:
            lean = _converge(self.CASE)
            lean_counts = dict(injector.counts)
        assert lean == reference
        assert lean_counts == reference_counts
        assert lean_counts
